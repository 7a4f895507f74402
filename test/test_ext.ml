(** Tests for the extension features and the deeper edge cases: USB mass
    storage, window movement, single-stepping, background shell jobs,
    buffer-cache behaviour, allocator/errno edges, and the ablation
    mechanisms. *)

open Tharness
open User

(* ---- USB mass storage (the §4.4 extensibility) ---- *)

let usb_stage () =
  Proto.Stage.boot ~prototype:5
    ~usb_files:
      [
        ("/photos/vacation.bmp", Proto.Assets.slide_bmp ());
        ("/notes/readme.txt", Bytes.of_string "hello from a usb stick");
      ]
    ()

let usb_stick_mounts () =
  let stage = usb_stage () in
  check_bool "device enumerated" true
    (Hw.Usb.msd_attached stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.usb);
  match
    Benchlib.Measure.run_task stage.Proto.Stage.kernel ~name:"usb-reader"
      (fun () ->
        match Usys.slurp "/usb/notes/readme.txt" with
        | Ok data ->
            if String.equal (Bytes.to_string data) "hello from a usb stick" then 0
            else 1
        | Error e -> e)
  with
  | Ok (0, _) -> ()
  | Ok (rc, _) -> Alcotest.failf "usb read failed: %d" rc
  | Error e -> Alcotest.fail e

let usb_stick_writable () =
  let stage = usb_stage () in
  match
    Benchlib.Measure.run_task stage.Proto.Stage.kernel ~name:"usb-writer"
      (fun () ->
        let fd = Usys.open_ "/usb/new.txt" (Core.Abi.o_create lor Core.Abi.o_rdwr) in
        if fd < 0 then -fd
        else begin
          ignore (Usys.write_str fd "persisted to the stick");
          ignore (Usys.lseek fd 0 Core.Abi.seek_set);
          match Usys.read fd 64 with
          | Ok b when String.equal (Bytes.to_string b) "persisted to the stick" ->
              ignore (Usys.close fd);
              0
          | Ok _ | Error _ -> 1
        end)
  with
  | Ok (0, _) -> ()
  | Ok (rc, _) -> Alcotest.failf "usb write failed: %d" rc
  | Error e -> Alcotest.fail e

let usb_and_sd_coexist () =
  let stage = usb_stage () in
  match
    Benchlib.Measure.run_task stage.Proto.Stage.kernel ~name:"both" (fun () ->
        (* both FAT mounts, plus the xv6 root, live side by side *)
        let sd = Usys.open_ "/d/music/track1.vogg" Core.Abi.o_rdonly in
        let usb = Usys.open_ "/usb/photos/vacation.bmp" Core.Abi.o_rdonly in
        let root = Usys.open_ "/scripts/demo.sh" Core.Abi.o_rdonly in
        if sd >= 0 && usb >= 0 && root >= 0 then 0 else 1)
  with
  | Ok (0, _) -> ()
  | Ok _ -> Alcotest.fail "a mount is missing"
  | Error e -> Alcotest.fail e

let usb_slower_than_ramdisk () =
  (* the stick pays USB bulk wire time; the xv6 root is memory-speed *)
  let stage = usb_stage () in
  let kernel = stage.Proto.Stage.kernel in
  Benchlib.Micro.prepare_file kernel ~path:"/usb/speed.bin" ~bytes:(128 * 1024);
  let usb_kbps =
    Benchlib.Micro.fs_throughput_kbps kernel ~path:"/usb/speed.bin"
      ~bytes:(128 * 1024) ~chunk:(32 * 1024) ~direction:`Read
  in
  check_in_range "usb ~bulk throughput" 200.0 2200.0 usb_kbps

let msd_bounds () =
  let b = Hw.Board.create () in
  Hw.Usb.attach_msd b.Hw.Board.usb (Hw.Disk.create ~sectors:8);
  ignore (check_err "read past end" (Hw.Usb.msd_read b.Hw.Board.usb ~lba:8 ~count:1));
  ignore (check_err "unattached"
      (let b2 = Hw.Board.create () in
       Hw.Usb.msd_read b2.Hw.Board.usb ~lba:0 ~count:1));
  let data, cost = check_ok "ok read" (Hw.Usb.msd_read b.Hw.Board.usb ~lba:0 ~count:8) in
  check_int "size" 4096 (Bytes.length data);
  check_bool "wire time charged" true (Int64.compare cost 1_000_000L > 0)

(* ---- window management extras ---- *)

let wm_move_window_with_keys () =
  let kernel = boot_kernel () in
  let board = kernel.Core.Kernel.board in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"win" (fun () ->
         match Gfx.windowed ~width:50 ~height:50 ~x:100 ~y:100 () with
         | Error e -> e
         | Ok gfx ->
             Gfx.present gfx;
             ignore (Usys.sleep 1_000_000);
             0));
  run_for kernel 1;
  let wm = Option.get kernel.Core.Kernel.wm in
  let s = Option.get (Core.Wm.surface wm (Option.get wm.Core.Wm.focus)) in
  check_int "starts at x=100" 100 s.Core.Wm.sx;
  (* ctrl+right moves the focused window 16 px *)
  Hw.Usb.key_down board.Hw.Board.usb ~modifiers:0x01 0x4f;
  run_for kernel 1;
  Hw.Usb.key_up board.Hw.Board.usb 0x4f;
  run_for kernel 1;
  check_int "moved right" 116 s.Core.Wm.sx;
  Hw.Usb.key_down board.Hw.Board.usb ~modifiers:0x01 0x51;
  run_for kernel 1;
  check_int "moved down" 116 s.Core.Wm.sy

let wm_overlap_zorder_pixels () =
  let kernel = boot_kernel () in
  let open_colored name color x =
    ignore
      (Core.Kernel.spawn_user kernel ~name (fun () ->
           match Gfx.windowed ~width:60 ~height:60 ~x ~y:50 () with
           | Error e -> e
           | Ok gfx ->
               Gfx.fill gfx color;
               Gfx.present gfx;
               ignore (Usys.sleep 1_000_000);
               0));
    run_for kernel 1
  in
  open_colored "below" 0xff0000 50;
  open_colored "above" 0x00ff00 80 (* overlaps columns 80..110 *);
  let fb = Option.get kernel.Core.Kernel.fb in
  check_int "overlap shows the top window" 0x00ff00
    (Hw.Framebuffer.display_pixel fb ~x:90 ~y:70);
  check_int "non-overlap shows the bottom one" 0xff0000
    (Hw.Framebuffer.display_pixel fb ~x:55 ~y:70)

(* ---- debug monitor: single-step ---- *)

let debugmon_single_step () =
  let kernel = boot_kernel () in
  let dm = kernel.Core.Kernel.debugmon in
  let frames_entered = ref 0 in
  let task =
    Core.Kernel.spawn_user kernel ~name:"stepped" (fun () ->
        for _ = 1 to 5 do
          Usys.in_frame "tick" (fun () -> incr frames_entered)
        done;
        0)
  in
  Core.Debugmon.step dm ~pid:task.Core.Task.pid ~count:3;
  run_for kernel 1;
  (* stopped at the first frame entry; resume twice more, consuming the
     remaining step budget *)
  check_int "stopped before body 1" 0 !frames_entered;
  Core.Debugmon.resume dm task.Core.Task.pid;
  run_for kernel 1;
  check_int "stopped before body 2" 1 !frames_entered;
  Core.Debugmon.resume dm task.Core.Task.pid;
  run_for kernel 1;
  check_int "stopped before body 3" 2 !frames_entered;
  Core.Debugmon.resume dm task.Core.Task.pid;
  run_for kernel 1;
  check_int "ran free afterwards" 5 !frames_entered;
  check_string "completed" "zombie" (Core.Task.state_name task)

(* ---- shell: background jobs and cd ---- *)

let shell_background_jobs () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  ignore (Proto.Stage.start stage "sh" [ "sh" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  (* a background donut keeps rendering while the shell prompts again *)
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "donut pixels 0 &\n";
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "echo still responsive\n";
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "job line printed" true (has "] donut &");
  check_bool "shell still responsive" true (has "still responsive");
  check_bool "donut runs in background" true
    (List.exists
       (fun t ->
         String.equal t.Core.Task.name "donut"
         && not (String.equal (Core.Task.state_name t) "zombie"))
       (Core.Sched.all_tasks kernel.Core.Kernel.sched))

let shell_cd_builtin () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  ignore (Proto.Stage.start stage "sh" [ "sh" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "cd /scripts; cat demo.sh\n";
  Proto.Stage.run_for stage (Sim.Engine.sec 3);
  let out = Proto.Stage.uart stage in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "relative cat after cd" true (has "demo script")

(* ---- slider with the high-res P5 PNG ---- *)

let slider_hires_png () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let task =
    Proto.Stage.start stage "slider" [ "slider"; "/d/slides"; "150"; "1" ]
  in
  Proto.Stage.run_for stage (Sim.Engine.sec 8);
  check_string "deck completed (incl. 640x480 PNG)" "zombie"
    (Core.Task.state_name task);
  (* /d/slides holds two files (the 640x480 PNG and a BMP): both shown *)
  check_bool "slides presented" true
    (Core.Sched.frames_presented stage.Proto.Stage.kernel.Core.Kernel.sched
       ~pid:task.Core.Task.pid
    >= 2)

(* ---- buffer cache behaviour ---- *)

let bufcache_hits_and_misses () =
  let board = Hw.Board.create () in
  let image = Bytes.make (64 * 512) '\000' in
  Bytes.blit_string "cached-data" 0 image 1024 11;
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:1 ~capacity:4 ()
  in
  let first = Core.Bufcache.bread bc 2 in
  check_string "content" "cached-data" (Bytes.sub_string first 0 11);
  check_int "one miss" 1 (Core.Bufcache.misses bc);
  ignore (Core.Bufcache.bread bc 2);
  check_int "then a hit" 1 (Core.Bufcache.hits bc);
  (* evict by touching more blocks than capacity *)
  List.iter (fun n -> ignore (Core.Bufcache.bread bc n)) [ 3; 4; 5; 6; 7 ];
  ignore (Core.Bufcache.bread bc 2);
  check_bool "block 2 was evicted (second miss)" true (Core.Bufcache.misses bc >= 7)

let bufcache_write_through () =
  let board = Hw.Board.create () in
  let image = Bytes.make (8 * 512) '\000' in
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:1 ()
  in
  let block = Bytes.make 512 'w' in
  Core.Bufcache.bwrite bc 3 block;
  check_bool "device updated immediately" true
    (Bytes.get image (3 * 512) = 'w')

(* ---- errno mapping ---- *)

(* One row per class. Each message holds another class's words, which
   must not matter. *)
let errno_mapping () =
  List.iter
    (fun (name, e, errno) -> check_int name errno (Core.Errno.of_fs_error e))
    Fs.Error.
      [
        ("no entry", No_entry "fat32: not found: exists", Core.Errno.enoent);
        ("exists", Exists "xv6fs: exists: /no such", Core.Errno.eexist);
        ("not a dir", Not_dir "fat32: not a directory: /exists", Core.Errno.enotdir);
        ("is a dir", Is_dir "fat32: is a directory: /too large", Core.Errno.eisdir);
        ("too big", Too_big "xv6fs: file too large", Core.Errno.efbig);
        ("no space", No_space "xv6fs: out of data blocks", Core.Errno.enospc);
        ("not empty", Not_empty "fat32: directory not empty", Core.Errno.enotempty);
        ( "invalid",
          Invalid "xv6fs: corrupt dirent (inum out of range)",
          Core.Errno.einval );
      ];
  check_string "name table" "ENOENT" (Core.Errno.name Core.Errno.enoent)

(* ---- uncached framebuffer costs more (the ablation's mechanism) ---- *)

let uncached_fb_costs_more () =
  let kernel = boot_kernel () in
  let fb = Option.get kernel.Core.Kernel.fb in
  let frame mapping =
    Hw.Framebuffer.set_mapping fb mapping;
    match
      Benchlib.Measure.run_task kernel ~name:"painter" (fun () ->
          let env = Uenv.create () in
          env.Uenv.e_fb <- Some fb;
          match Gfx.direct env with
          | Error e -> e
          | Ok gfx ->
              Gfx.fill gfx 0x112233;
              Gfx.present gfx;
              0)
    with
    | Ok (_, ns) -> Sim.Engine.to_ms ns
    | Error e -> Alcotest.fail e
  in
  let cached = frame Hw.Framebuffer.Cached in
  let uncached = frame Hw.Framebuffer.Uncached in
  check_bool "uncached at least 2x slower" true (uncached > 2.0 *. cached)

(* ---- xv6fs dirent slot reuse ---- *)

let xv6_dirent_slot_reuse () =
  let img = Fs.Xv6fs.mkfs ~total_blocks:1024 ~ninodes:32 () in
  let t = Result.get_ok (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img)) in
  ignore (check_fs_ok "a" (Fs.Xv6fs.create t "/a" Fs.Xv6fs.Reg));
  ignore (check_fs_ok "b" (Fs.Xv6fs.create t "/b" Fs.Xv6fs.Reg));
  let root = Fs.Xv6fs.root t in
  let size_before = (Fs.Xv6fs.stat_of t root).Fs.Xv6fs.st_size in
  ignore (check_fs_ok "rm a" (Fs.Xv6fs.unlink t "/a"));
  ignore (check_fs_ok "c reuses the slot" (Fs.Xv6fs.create t "/c" Fs.Xv6fs.Reg));
  check_int "directory did not grow" size_before
    (Fs.Xv6fs.stat_of t root).Fs.Xv6fs.st_size

(* ---- kbd ring overflow drops oldest ---- *)

let kbd_ring_overflow () =
  let kernel = boot_kernel () in
  let board = kernel.Core.Kernel.board in
  (* no reader: flood more than the 64-entry ring via GPIO edges *)
  for _ = 1 to 40 do
    Hw.Gpio.press board.Hw.Board.gpio Hw.Gpio.A;
    Hw.Gpio.release board.Hw.Board.gpio Hw.Gpio.A
  done;
  run_for kernel 1;
  let kbd = kernel.Core.Kernel.kbd in
  check_int "ring capped at 64" 64 (Core.Kbd.pending kbd);
  check_bool "drops counted" true (Core.Kbd.dropped kbd >= 16)

(* ---- sleep precision and uptime ---- *)

let sleep_precision () =
  let durations = [ 1; 7; 33; 250 ] in
  in_kernel (fun _ ->
      List.iter
        (fun ms ->
          let t0 = Usys.uptime_ms () in
          ignore (Usys.sleep ms);
          let waited = Usys.uptime_ms () - t0 in
          if waited < ms || waited > ms + 3 then
            Alcotest.failf "sleep %d drifted to %d" ms waited)
        durations)

(* ---- final property sweep ---- *)

let mv1_roundtrip_prop =
  qcheck ~count:15 "mv1 encode/decode any 16x16 frame stays in range"
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let width = 16 and height = 16 in
      let plane n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      let frame =
        {
          Mv1.y_plane = plane (width * height);
          u_plane = plane (width / 2 * (height / 2));
          v_plane = plane (width / 2 * (height / 2));
        }
      in
      let back =
        Mv1.decode_frame ~width ~height ~quality:Mv1.quality
          (Mv1.encode_frame ~width ~height ~quality:Mv1.quality frame)
      in
      (* a plane holds bytes, so every decoded sample is in 0..255 by
         type; what is left to check is that each plane comes back whole *)
      Bytes.length back.Mv1.y_plane = width * height
      && Bytes.length back.Mv1.u_plane = width / 2 * (height / 2)
      && Bytes.length back.Mv1.v_plane = width / 2 * (height / 2))

let adpcm_stays_in_int16 =
  qcheck ~count:25 "adpcm decode of arbitrary nibbles stays in int16"
    QCheck.(pair small_nat (int_range 1 2000))
    (fun (seed, n) ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 3)) in
      let data = Bytes.init ((n + 1) / 2) (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      let out = Adpcm.decode data ~samples:n in
      Array.for_all (fun s -> s >= -32768 && s <= 32767) out)

let vpath_join_prop =
  qcheck "join with a relative path extends the directory"
    QCheck.(pair (string_of_size (Gen.int_bound 20)) (string_of_size (Gen.int_bound 20)))
    (fun (dir, name) ->
      let clean s = String.map (fun c -> if c = '/' then '_' else c) s in
      let name = clean name in
      if String.length name = 0 || String.equal name "." || String.equal name ".."
      then true
      else begin
        let joined = Fs.Vpath.join ("/" ^ clean dir) name in
        String.equal (Fs.Vpath.basename joined) name
      end)

let sched_many_sleepers_all_wake =
  qcheck ~count:5 "N sleepers with random delays all wake exactly once"
    QCheck.(int_range 2 20)
    (fun n ->
      let kernel = boot_kernel () in
      let woke = Array.make n 0 in
      for i = 0 to n - 1 do
        ignore
          (Core.Kernel.spawn_user kernel
             ~name:(Printf.sprintf "sleeper%d" i)
             (fun () ->
               ignore (Usys.sleep (10 + (i * 13 mod 200)));
               woke.(i) <- woke.(i) + 1;
               0))
      done;
      run_for kernel 2;
      Array.for_all (fun w -> w = 1) woke)

let fat_lfn_prop =
  qcheck ~count:20 "fat32 stores and restores arbitrary long names"
    QCheck.(string_gen_of_size (Gen.int_range 1 60) (Gen.char_range 'a' 'z'))
    (fun name ->
      let dev, _ = Fs.Blockdev.ramdisk ~name:"sd" ~sectors:8192 in
      let io = Fs.Fat32.io_of_blockdev dev in
      Fs.Fat32.mkfs io ~total_sectors:8192;
      let t = Result.get_ok (Fs.Fat32.mount io) in
      match Fs.Fat32.create t ("/" ^ name) with
      | Error _ -> false
      | Ok () -> (
          match Fs.Fat32.readdir t "/" with
          | Ok [ (stored, _) ] -> String.equal (String.lowercase_ascii stored) name
          | Ok _ | Error _ -> false))

let suite =
  ( "extensions",
    [
      quick "usb stick mounts under /usb" usb_stick_mounts;
      quick "usb stick is writable" usb_stick_writable;
      quick "usb + sd + root coexist" usb_and_sd_coexist;
      slow "usb throughput is bulk-limited" usb_slower_than_ramdisk;
      quick "msd bounds" msd_bounds;
      quick "wm: move window with ctrl+arrows" wm_move_window_with_keys;
      quick "wm: overlap obeys z-order" wm_overlap_zorder_pixels;
      quick "debugmon single-step" debugmon_single_step;
      slow "shell background jobs (&)" shell_background_jobs;
      slow "shell cd builtin" shell_cd_builtin;
      slow "slider handles the hires PNG" slider_hires_png;
      quick "bufcache hits/misses/LRU" bufcache_hits_and_misses;
      quick "bufcache write-through" bufcache_write_through;
      quick "errno mapping" errno_mapping;
      quick "uncached fb costs more" uncached_fb_costs_more;
      quick "xv6fs dirent slot reuse" xv6_dirent_slot_reuse;
      quick "kbd ring overflow drops" kbd_ring_overflow;
      quick "sleep precision" sleep_precision;
      mv1_roundtrip_prop;
      adpcm_stays_in_int16;
      vpath_join_prop;
      sched_many_sleepers_all_wake;
      fat_lfn_prop;
    ] )
