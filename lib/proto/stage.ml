(** The prototype stager — "forward engineering" support: boot a machine
    configured as prototype K with that stage's programs, files and
    assets, and drive its target apps.

    Prototypes 1–2 have no userspace: their donuts run as kernel-resident
    tasks rendering straight at the hardware, exactly like the paper's
    baremetal appliance (P1) and kernel-task stage (P2). Prototype 3
    onward loads programs from the ramdisk via exec. *)

type t = { kernel : Core.Kernel.t; env : User.Uenv.t }

(* Program sizes model the paper's Figure 7 app footprints: early
   prototypes are hundreds of SLoC; Prototype 5 binaries link newlib and
   minisdl and jump to hundreds of KB. *)
let program_table env =
  [
    ("hello", 4 * 1024, Apps.Hello.main env);
    ("donut", 24 * 1024, Apps.Donut.main env);
    ("mario", 96 * 1024, Apps.Mario.main env);
    ("sysmon", 48 * 1024, Apps.Sysmon.main env);
    ("sh", 56 * 1024, Apps.Shell.main env);
    ("ls", 16 * 1024, Apps.Utils.ls_main env);
    ("cat", 12 * 1024, Apps.Utils.cat_main env);
    ("echo", 8 * 1024, Apps.Utils.echo_main env);
    ("wc", 12 * 1024, Apps.Utils.wc_main env);
    ("mkdir", 8 * 1024, Apps.Utils.mkdir_main env);
    ("rm", 8 * 1024, Apps.Utils.rm_main env);
    ("grep", 16 * 1024, Apps.Utils.grep_main env);
    ("kill", 8 * 1024, Apps.Utils.kill_main env);
    ("ps", 8 * 1024, Apps.Utils.ps_main env);
    ("uptime", 8 * 1024, Apps.Utils.uptime_main env);
    ("slider", 64 * 1024, Apps.Slider.main env);
    ("buzzer", 12 * 1024, Apps.Buzzer.main env);
    (* Prototype 5 binaries link newlib/minisdl; their VELF images sit just
       under xv6fs's ~268 KB file limit (§4.5) — the rest of their
       footprint arrives via sbrk at run time. *)
    ("music", 240 * 1024, Apps.Music_player.main env);
    ("doom", 256 * 1024, Apps.Doom.main env);
    ("video", 224 * 1024, Apps.Video_player.main env);
    ("launcher", 200 * 1024, Apps.Launcher.main env);
    ("blockchain", 180 * 1024, Apps.Blockchain.main env);
  ]

let programs_for_prototype env k =
  let names =
    match k with
    | 1 | 2 -> []
    | 3 -> [ "hello"; "donut"; "mario" ]
    | 4 ->
        [ "hello"; "donut"; "mario"; "sh"; "ls"; "cat"; "echo"; "wc"; "mkdir";
          "rm"; "grep"; "kill"; "ps"; "uptime"; "slider"; "buzzer" ]
    | 5 -> List.map (fun (n, _, _) -> n) (program_table env)
    | _ -> invalid_arg "Stage.programs_for_prototype"
  in
  List.filter_map
    (fun (name, size, main) ->
      if List.mem name names then
        Some { Core.Kernel.prog_name = name; prog_size = size; prog_main = main }
      else None)
    (program_table env)

(* Ramdisk extras per prototype: P4 gets slides and ROMs on xv6fs (no SD
   yet); scripts for the shell. *)
let ramdisk_files k =
  if k >= 4 then
    [
      ("/slides/one.bmp", Assets.slide_bmp ());
      ("/slides/two.pngl", Assets.slide_pngl ());
      ("/slides/three.gifl", Assets.slide_gifl ());
      ("/roms/mario.nes", Assets.nes_rom "mario");
      ("/roms/zelda.nes", Assets.nes_rom "zelda");
      ("/roms/tetris.nes", Assets.nes_rom "tetris");
      ("/scripts/demo.sh", Bytes.of_string "echo demo script\nuptime\nls /\n");
    ]
  else []

(* FAT32 partition contents (Prototype 5): user-exchangeable media. *)
let fat_files k =
  if k >= 5 then
    [
      ("/videos/clip480.mv1", Assets.clip_480p ());
      ("/videos/clip720.mv1", Assets.clip_720p ());
      ("/videos/clipaudio.vogg", Assets.clip_audio_vogg ());
      ("/music/track1.vogg", Assets.track_vogg ());
      ("/music/cover1.pngl", Assets.cover_pngl ());
      ("/slides/hires.pngl", Assets.slide_pngl_hires ());
      ("/slides/one.bmp", Assets.slide_bmp ());
      ("/doom/doom1.wad", Assets.doom_wad ());
    ]
  else []

let boot ?(platform = Hw.Board.pi3) ?(config_tweak = fun c -> c)
    ?(track_dirty = true) ?usb_files ~prototype () =
  let env = User.Uenv.create () in
  let config = config_tweak (Core.Kconfig.prototype prototype) in
  env.User.Uenv.e_simd <- config.Core.Kconfig.simd_pixel_ops;
  let spec =
    {
      Core.Kernel.default_spec with
      sp_platform = platform;
      sp_config = config;
      sp_programs = programs_for_prototype env prototype;
      sp_files = ramdisk_files prototype;
      sp_fat_files = fat_files prototype;
      sp_usb_files = usb_files;
      sp_track_dirty = track_dirty;
    }
  in
  let kernel = Core.Kernel.boot spec in
  env.User.Uenv.e_fb <- kernel.Core.Kernel.fb;
  { kernel; env }

(* ---- running apps ---- *)

(* Start a registered program as a fresh user process (P3+). *)
let start t name argv =
  let progs = program_table t.env in
  match List.find_opt (fun (n, _, _) -> String.equal n name) progs with
  | None -> invalid_arg ("Stage.start: no program " ^ name)
  | Some (_, _, main) ->
      Core.Kernel.spawn_user t.kernel ~name (fun () -> main argv)

(* Prototype 1's baremetal donut: rendered by a kernel task, paced by
   busy-waiting on the timer (there is no sleep yet); Prototype 2's donuts
   sleep instead, visualizing the scheduler. *)
let kernel_donut t ~pace ~frames ~speed =
  let kernel = t.kernel in
  let fb =
    match kernel.Core.Kernel.fb with
    | Some fb -> fb
    | None -> invalid_arg "Stage.kernel_donut: no framebuffer"
  in
  Core.Kernel.spawn_kernel kernel ~name:"donut-k" (fun () ->
      let a = ref 0.0 and b = ref 0.0 in
      for _ = 1 to frames do
        let lum, points =
          Apps.Donut.render_luminance ~cols:100 ~rows:75 ~a:!a ~b:!b
        in
        Effect.perform (Core.Abi.Burn (points * Apps.Donut.cycles_per_point));
        for y = 0 to 74 do
          for x = 0 to 99 do
            let l = lum.((y * 100) + x) in
            let shade = if l < 0.0 then 0 else min 255 (int_of_float (l *. 200.0) + 55) in
            Hw.Framebuffer.write_pixel fb ~x:(x * 2) ~y:(y * 2)
              ((shade lsl 16) lor (shade lsl 8) lor (shade / 2))
          done
        done;
        Hw.Framebuffer.flush fb;
        (match pace with
        | `Busy_wait -> Effect.perform (Core.Abi.Burn 16_000_000)
        | `Sleep ms -> (
            match Effect.perform (Core.Abi.Sys (Core.Abi.Sleep ms)) with
            | Core.Abi.R_int _ -> ()
            | Core.Abi.R_bytes _ | Core.Abi.R_pair _ | Core.Abi.R_stat _
            | Core.Abi.R_mmap _ ->
                ()));
        a := !a +. speed;
        b := !b +. (speed /. 2.0)
      done;
      0)

let run_for t ns = Core.Kernel.run_for t.kernel ns
let uart t = Core.Kernel.uart_output t.kernel
