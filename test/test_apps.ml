(** App tests: engine logic (pure) and integration runs on a booted
    Prototype 5 — every app must start, do its work, and leave evidence
    (frames, sound, console output, files). *)

open Tharness

(* ---- engine logic ---- *)

let mario_gravity_and_ground () =
  let st = Apps.Mario.fresh_state () in
  st.Apps.Mario.title <- false;
  (* jump and verify the arc comes back to ground *)
  Apps.Mario.step st { Apps.Mario.left = false; right = false; jump = true };
  check_bool "airborne after jump" false st.Apps.Mario.on_ground;
  let y_top = ref st.Apps.Mario.py in
  for _ = 1 to 120 do
    Apps.Mario.step st Apps.Mario.no_input;
    if st.Apps.Mario.py < !y_top then y_top := st.Apps.Mario.py
  done;
  check_bool "rose above start" true (!y_top < 160.0);
  check_bool "landed" true st.Apps.Mario.on_ground

let mario_autoplay_progresses () =
  let st = Apps.Mario.fresh_state () in
  st.Apps.Mario.title <- false;
  let x0 = st.Apps.Mario.px in
  for _ = 1 to 600 do
    Apps.Mario.step st (Apps.Mario.bot st)
  done;
  check_bool "bot moves right" true (st.Apps.Mario.px > x0 +. 100.0)

let mario_title_transitions () =
  let st = Apps.Mario.fresh_state () in
  check_bool "starts on title" true st.Apps.Mario.title;
  for _ = 1 to 121 do
    Apps.Mario.step st Apps.Mario.no_input
  done;
  check_bool "autoplay transition (par 4.3)" false st.Apps.Mario.title

let doom_raycast_hits_walls () =
  let st = Apps.Doom.fresh_state () in
  for i = 0 to 15 do
    let angle = float_of_int i *. 0.39 in
    let dist, texid, texx, steps, _side = Apps.Doom.cast st angle in
    check_bool "always hits (closed map)" true (texid >= 1);
    check_bool "distance positive" true (dist > 0.0);
    check_bool "distance bounded by map" true (dist < 34.0);
    check_bool "texture x in range" true (texx >= 0 && texx < 64);
    check_bool "steps sane" true (steps >= 1 && steps < 64)
  done

let doom_movement_respects_walls () =
  let st = Apps.Doom.fresh_state () in
  (* walk into the west wall; position must stay inside the map *)
  st.Apps.Doom.dir <- Float.pi;
  for _ = 1 to 500 do
    Apps.Doom.step st
      { Apps.Doom.forward = true; back = false; turn_l = false; turn_r = false; fire = false }
  done;
  check_bool "clamped by collision" true (st.Apps.Doom.px >= 1.0)

let doom_firing_kills_sprites () =
  let st = Apps.Doom.fresh_state () in
  (* aim at the first sprite and fire *)
  let s = st.Apps.Doom.sprites.(0) in
  st.Apps.Doom.dir <- atan2 (s.Apps.Doom.sy -. st.Apps.Doom.py) (s.Apps.Doom.sx -. st.Apps.Doom.px);
  let ammo0 = st.Apps.Doom.ammo in
  Apps.Doom.step st
    { Apps.Doom.forward = false; back = false; turn_l = false; turn_r = false; fire = true };
  check_bool "sprite died" false s.Apps.Doom.alive;
  check_int "ammo spent" (ammo0 - 1) st.Apps.Doom.ammo

let donut_renders_a_torus () =
  let lum, points = Apps.Donut.render_luminance ~cols:60 ~rows:24 ~a:0.3 ~b:0.7 in
  check_bool "many surface points" true (points > 20_000);
  let lit = Array.fold_left (fun acc l -> if l >= 0.0 then acc + 1 else acc) 0 lum in
  check_in_range "covered cells" 100.0 1200.0 (float_of_int lit);
  (* the text frame has visible structure *)
  let text = Apps.Donut.frame_to_text ~cols:60 ~rows:24 lum in
  check_bool "nonempty art" true (String.exists (fun c -> c <> ' ' && c <> '\n') text)

let donut_rotates () =
  let a, _ = Apps.Donut.render_luminance ~cols:40 ~rows:20 ~a:0.0 ~b:0.0 in
  let b, _ = Apps.Donut.render_luminance ~cols:40 ~rows:20 ~a:1.0 ~b:0.5 in
  check_bool "different angles differ" true (a <> b)

let suite_engines =
  ( "apps.engines",
    [
      quick "mario gravity and landing" mario_gravity_and_ground;
      quick "mario autoplay progresses" mario_autoplay_progresses;
      quick "mario title transition" mario_title_transitions;
      quick "doom raycast properties" doom_raycast_hits_walls;
      quick "doom wall collision" doom_movement_respects_walls;
      quick "doom hitscan" doom_firing_kills_sprites;
      quick "donut renders a torus" donut_renders_a_torus;
      quick "donut rotates" donut_rotates;
    ] )

(* ---- integration on a live prototype 5 ---- *)

let stage5 () = Proto.Stage.boot ~prototype:5 ()

let frames_of stage pid =
  Core.Sched.frames_presented stage.Proto.Stage.kernel.Core.Kernel.sched ~pid

let run_app_collect_frames ~prog ~argv ~seconds =
  let stage = stage5 () in
  let task = Proto.Stage.start stage prog argv in
  Proto.Stage.run_for stage (Sim.Engine.sec seconds);
  (stage, task, frames_of stage task.Core.Task.pid)

let doom_produces_frames () =
  (* the first ~4 s load the 3 MB WAD off the SD card *)
  let _, _, frames = run_app_collect_frames ~prog:"doom" ~argv:[ "doom"; "0" ] ~seconds:8 in
  check_bool "doom renders >40 FPS after loading" true (frames > 160)

let mario_variants_produce_frames () =
  List.iter
    (fun variant ->
      let _, _, frames =
        run_app_collect_frames ~prog:"mario" ~argv:[ "mario"; variant; "0" ] ~seconds:2
      in
      check_bool (variant ^ " renders") true (frames > 60))
    [ "noinput"; "proc"; "sdl" ]

let video_plays_at_native_rate () =
  let stage, task, _ =
    run_app_collect_frames ~prog:"video"
      ~argv:[ "video"; "/d/videos/clip480.mv1"; "0" ]
      ~seconds:4
  in
  let frames = frames_of stage task.Core.Task.pid in
  (* ~26-30 FPS after the initial load: at least 60 frames in 4s *)
  check_bool "video decodes and presents" true (frames > 60)

(* The display plane and the CPU view after a fixed number of frames,
   pinned by MD5: the perfbench digests cover the trace, the UART, the
   clock and the frame counts, but no pixel. clip480 fills the 640x480 screen;
   clip720 is wider and taller than it, so only its top-left window is
   converted and shown. *)
let video_display_plane_pinned () =
  List.iter
    (fun (clip, frames, md5, cpu_md5) ->
      let stage = stage5 () in
      let task = Proto.Stage.start stage "video" [ "video"; clip; string_of_int frames ] in
      Proto.Stage.run_for stage (Sim.Engine.sec 4);
      check_bool (clip ^ " exited") true (task.Core.Task.state = Core.Task.Zombie);
      check_int (clip ^ " exit code") 0 task.Core.Task.exit_code;
      check_int (clip ^ " frames") frames (frames_of stage task.Core.Task.pid);
      let fb = Option.get stage.Proto.Stage.kernel.Core.Kernel.fb in
      check_string (clip ^ " display plane") md5
        (Digest.to_hex (Digest.string (Hw.Framebuffer.to_ppm fb)));
      check_string (clip ^ " CPU view") cpu_md5
        (fb_plane_md5 fb Hw.Framebuffer.read_pixel))
    [
      ( "/d/videos/clip480.mv1",
        9,
        "4bbb6a7d33d84bcee80d2aee711418ea",
        "e43b1df17bb5c6679d175a7edf57042b" );
      ( "/d/videos/clip720.mv1",
        6,
        "686e336ef558dc5f5643d75854b7eefb",
        "485eec5be8644e1bff5fb361dc7ad081" );
    ]

(* The composited desktop, pinned by MD5 at four instants: mario's SDL
   window, the launcher and sysmon's translucent overlay (alpha 170),
   then focus rotated with ctrl+tab, then the focused window moved with
   ctrl+down. Each instant pins the display plane and the CPU view the
   WM composes into. *)
let desktop_planes_pinned () =
  let stage = stage5 () in
  let fb = Option.get stage.Proto.Stage.kernel.Core.Kernel.fb in
  let usb = stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.usb in
  let press ?modifiers code =
    Hw.Usb.key_down usb ?modifiers code;
    Proto.Stage.run_for stage (Sim.Engine.ms 50);
    Hw.Usb.key_up usb code
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let pins = ref [] in
  let pin name ms =
    Proto.Stage.run_for stage (Sim.Engine.ms ms);
    pins :=
      (name, md5 (Hw.Framebuffer.to_ppm fb), fb_plane_md5 fb Hw.Framebuffer.read_pixel)
      :: !pins
  in
  ignore (Proto.Stage.start stage "mario" [ "mario"; "sdl"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.ms 500);
  ignore (Proto.Stage.start stage "launcher" [ "launcher"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.ms 500);
  ignore (Proto.Stage.start stage "sysmon" [ "sysmon"; "0" ]);
  pin "three windows" 1000;
  check_int "three surfaces" 3
    (Core.Wm.surface_count (Option.get stage.Proto.Stage.kernel.Core.Kernel.wm));
  pin "a second on" 1000;
  press ~modifiers:0x01 0x2b (* ctrl+tab *);
  pin "after ctrl+tab" 500;
  press ~modifiers:0x01 0x51 (* ctrl+down *);
  pin "after ctrl+down" 500;
  List.iter2
    (fun (name, plane, cpu) (plane', cpu') ->
      check_string (name ^ ": display plane") plane' plane;
      check_string (name ^ ": CPU view") cpu' cpu)
    (List.rev !pins)
    [
      ("065ae1c4c139e8da71c99547cd3c38f6", "d205f9f2ac44aed8838bd6b9b4d9b3e2");
      ("7234918a20bdb739109c67295ee02f1d", "f065ab6e9634247c96f8ca23a1434d22");
      ("d63adcbf486b7bafefa72a3f0389c9a2", "1abef9eeed8a9d218a68a21ba0ec4337");
      ("cd3bdc1c7bfa0a3a1fb6e91c2a28ac7b", "e76d4beb5fb03fac94374c675e0449f2");
    ]

(* The first frame each desktop app writes to /dev/surface, pinned by
   the MD5 of the WM surface's bytes: every 32-bit word whole, its X
   byte included. The apps start one at a time on one stage, as in
   [desktop_planes_pinned], and the stage steps a millisecond at a time
   until the new surface holds its first frame. *)
let surface_first_frames_pinned () =
  let stage = stage5 () in
  let wm = Option.get stage.Proto.Stage.kernel.Core.Kernel.wm in
  let first_frame pid =
    let rec step n =
      let s =
        Hashtbl.fold
          (fun _ (s : Core.Wm.surface) acc -> if s.owner_pid = pid then Some s else acc)
          wm.Core.Wm.surfaces None
      in
      match s with
      | Some s when s.frames > 0 ->
          check_int "one frame landed" 1 s.frames;
          Digest.to_hex (Digest.bytes s.pixels)
      | _ ->
          if n = 0 then Alcotest.failf "pid %d wrote no frame" pid;
          Proto.Stage.run_for stage (Sim.Engine.ms 1);
          step (n - 1)
    in
    step 2000
  in
  List.iter
    (fun (argv, md5) ->
      let task = Proto.Stage.start stage (List.hd argv) argv in
      check_string (List.hd argv ^ " first frame") md5 (first_frame task.Core.Task.pid))
    [
      ([ "mario"; "sdl"; "0" ], "84f600d17b590ba85f63e2ad66b745f1");
      ([ "launcher"; "0" ], "09d08bd7771d777cd58d8d76c58b0338");
      ([ "sysmon"; "0" ], "8e0ad5201e31767be9a6b3576058d624");
    ]

(* A corrupt payload behind a valid header is EINVAL, like a bad header,
   not an exception that kills the task. A 16x16 frame has six blocks,
   so a payload under six bytes, or no frame at all, is refused with the
   header; the padded payloads (five empty blocks first) reach the
   decoder. *)
let video_rejects_corrupt_payload () =
  List.iter
    (fun (name, payloads) ->
      let clip =
        User.Mv1.pack
          {
            User.Mv1.width = 16;
            height = 16;
            fps = 30;
            frames = Array.of_list (List.map Bytes.of_string payloads);
          }
      in
      let code =
        in_kernel (fun kernel ->
            let env = User.Uenv.create () in
            env.User.Uenv.e_fb <- kernel.Core.Kernel.fb;
            let fd = User.Usys.open_ "/bad.mv1" (Core.Abi.o_create lor Core.Abi.o_wronly) in
            ignore (User.Usys.write fd clip);
            ignore (User.Usys.close fd);
            Apps.Video_player.main env [ "video"; "/bad.mv1"; "1" ])
      in
      check_int name Core.Errno.einval code)
    [
      ("truncated payload", [ "\000\001" ]);
      ("run overflow", [ "\064\001\000\255" ]);
      ("no frames", []);
      ("truncated after five blocks", [ "\255\255\255\255\255\000\001" ]);
      ("run overflow after five blocks", [ "\255\255\255\255\255\064\001\000\255" ]);
    ]

let music_fills_the_speaker () =
  let stage = stage5 () in
  ignore (Proto.Stage.start stage "music" [ "music"; "/d/music/track1.vogg"; "/d/music/cover1.pngl" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 4);
  let pwm = stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.pwm in
  check_bool "audio streamed" true (Hw.Pwm_audio.samples_played pwm > 100_000);
  let out = Hw.Pwm_audio.recent_output pwm in
  check_bool "melody present" true (Array.exists (fun s -> abs s > 5000) out);
  (* once the pipeline is primed it must not starve *)
  let under0 = Hw.Pwm_audio.underruns pwm in
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  check_bool "no stutter mid-song" true (Hw.Pwm_audio.underruns pwm - under0 < 8)

let buzzer_beeps () =
  let stage = stage5 () in
  ignore (Proto.Stage.start stage "buzzer" [ "buzzer"; "880"; "800" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  let out = Hw.Pwm_audio.recent_output stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.pwm in
  check_bool "square wave emitted" true
    (Array.exists (fun s -> s > 10_000) out && Array.exists (fun s -> s < -10_000) out)

let slider_shows_slides () =
  let stage = stage5 () in
  let task = Proto.Stage.start stage "slider" [ "slider"; "/d/slides"; "200"; "1" ] in
  Proto.Stage.run_for stage (Sim.Engine.sec 5);
  check_bool "presented at least one slide per file" true
    (frames_of stage task.Core.Task.pid >= 2);
  check_string "exited cleanly" "zombie" (Core.Task.state_name task)

let blockchain_mines () =
  let stage = stage5 () in
  let task = Proto.Stage.start stage "blockchain" [ "blockchain"; "4"; "10"; "2" ] in
  Proto.Stage.run_for stage (Sim.Engine.sec 8);
  check_string "miner finished" "zombie" (Core.Task.state_name task);
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  (* the exact chain pins the hash itself: the perf workloads mine at a
     difficulty that never finds a block. Block 2's header
     ("2|<64 hex>|10000331") is two SHA blocks long. *)
  check_bool "block 1 pinned" true
    (has "[miner 0] block 1 nonce=513 hash=00075663c1732a47\n");
  check_bool "block 2 pinned" true
    (has "[miner 1] block 2 nonce=10000331 hash=002742bd7d372ef5\n");
  check_bool "hash rate reported" true (has "kH/s")

let sysmon_floats_on_top () =
  let stage = stage5 () in
  ignore (Proto.Stage.start stage "mario" [ "mario"; "sdl"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  ignore (Proto.Stage.start stage "sysmon" [ "sysmon"; "3" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  let wm = Option.get stage.Proto.Stage.kernel.Core.Kernel.wm in
  check_int "two windows" 2 (Core.Wm.surface_count wm);
  (* sysmon's surface is translucent and always-on-top *)
  let translucent =
    Hashtbl.fold
      (fun _ s acc -> acc || (s.Core.Wm.alpha < 255 && s.Core.Wm.always_on_top))
      wm.Core.Wm.surfaces false
  in
  check_bool "translucent overlay" true translucent

let shell_runs_scripts () =
  let stage = stage5 () in
  ignore (Proto.Stage.start stage "sh" [ "sh"; "/scripts/demo.sh" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 5);
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "echo ran" true (has "demo script");
  check_bool "uptime ran" true (has "up ");
  check_bool "ls ran (sees programs)" true (has "doom")

let shell_interactive () =
  let stage = stage5 () in
  let kernel = stage.Proto.Stage.kernel in
  ignore (Proto.Stage.start stage "sh" [ "sh" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "echo one; echo two\n";
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "cat /scripts/demo.sh\n";
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "prompt shown" true (has "vos$ ");
  check_bool "sequence ran" true (has "one" && has "two");
  check_bool "cat works" true (has "demo script")

let utils_work () =
  let stage = stage5 () in
  let kernel = stage.Proto.Stage.kernel in
  ignore (Proto.Stage.start stage "sh" [ "sh" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  let type_line l =
    Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart (l ^ "\n");
    Proto.Stage.run_for stage (Sim.Engine.sec 2)
  in
  type_line "mkdir /tmp";
  type_line "echo written by echo";
  type_line "wc /scripts/demo.sh";
  type_line "grep demo /scripts/demo.sh";
  type_line "ps";
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "echo output" true (has "written by echo");
  check_bool "wc counts" true (has "/scripts/demo.sh");
  check_bool "grep matches" true (has "echo demo script");
  check_bool "ps lists shell" true (has "sh")

let doom_loads_wad_from_fat () =
  let stage = stage5 () in
  let sd = stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.sd in
  let reads0 = Hw.Sd.read_count sd in
  ignore (Proto.Stage.start stage "doom" [ "doom"; "60" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 8);
  (* the 3 MB WAD must have come off the SD card in ranged commands:
     far fewer commands than sectors *)
  let reads = Hw.Sd.read_count sd - reads0 in
  check_bool "ranged reads" true (reads > 0 && reads < 2000)

let suite_integration =
  ( "apps.integration",
    [
      slow "doom produces frames" doom_produces_frames;
      slow "mario variants render" mario_variants_produce_frames;
      slow "video plays" video_plays_at_native_rate;
      slow "video display plane is pinned" video_display_plane_pinned;
      slow "desktop planes are pinned" desktop_planes_pinned;
      quick "video rejects a corrupt payload" video_rejects_corrupt_payload;
      slow "music fills the speaker" music_fills_the_speaker;
      slow "buzzer beeps" buzzer_beeps;
      slow "slider shows slides" slider_shows_slides;
      slow "blockchain mines" blockchain_mines;
      slow "sysmon floats on top" sysmon_floats_on_top;
      slow "shell runs scripts" shell_runs_scripts;
      slow "shell interactive" shell_interactive;
      slow "console utilities" utils_work;
      slow "doom WAD load uses FAT range IO" doom_loads_wad_from_fat;
      slow "first surface frames are pinned" surface_first_frames_pinned;
    ] )
