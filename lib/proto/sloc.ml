(** Source-line analysis (Figure 7): counts this repository's own source,
    with each module attributed to the prototype that introduces it and to
    a kernel subsystem category — regenerating both panels of the figure
    from the artifact itself. Every [.ml] file under the six OS layers
    ({!layers}) must have an entry; one without is reported as
    unattributed. *)

type category =
  | Core_kernel  (** sched, tasks, vm, syscalls *)
  | Drivers  (** device models + kernel drivers *)
  | Filesystems
  | Debugging
  | Beyond_paper
      (** machinery the paper's kernel lacks: the sanitizer, the
          observability stack, the host-parallel engine pool *)
  | Userlib
  | Apps

let category_name = function
  | Core_kernel -> "kernel core"
  | Drivers -> "drivers/io"
  | Filesystems -> "filesystems"
  | Debugging -> "debug support"
  | Beyond_paper -> "beyond paper"
  | Userlib -> "user library"
  | Apps -> "apps"

(* file -> (prototype introduced, category) *)
let inventory =
  [
    (* Prototype 1: baremetal IO *)
    ("lib/sim/engine.ml", 1, Core_kernel);
    ("lib/sim/heap.ml", 1, Core_kernel);
    ("lib/sim/rng.ml", 1, Core_kernel);
    (* the engine (P1) runs its parallel batches on the domain pool *)
    ("lib/sim/dpool.ml", 1, Beyond_paper);
    ("lib/hw/irq.ml", 1, Drivers);
    ("lib/hw/intc.ml", 1, Drivers);
    ("lib/hw/timer.ml", 1, Drivers);
    ("lib/hw/uart.ml", 1, Drivers);
    ("lib/hw/mailbox.ml", 1, Drivers);
    ("lib/hw/framebuffer.ml", 1, Drivers);
    ("lib/hw/board.ml", 1, Drivers);
    ("lib/core/console.ml", 1, Drivers);
    ("lib/core/kconfig.ml", 1, Core_kernel);
    ("lib/core/kcost.ml", 1, Core_kernel);
    ("lib/core/errno.ml", 1, Core_kernel);
    ("lib/core/spinlock.ml", 1, Core_kernel);
    (* every spinlock (P1) reports to the sanitizer, and its acquisitions
       to the trace (ktrace, P1), where vprobe's lock points read them *)
    ("lib/core/kcheck.ml", 1, Beyond_paper);
    ("lib/core/kperf.ml", 1, Beyond_paper);
    ("lib/core/vprobe.ml", 1, Beyond_paper);
    (* Prototype 2: multitasking *)
    ("lib/core/task.ml", 2, Core_kernel);
    ("lib/core/runq.ml", 2, Core_kernel);
    ("lib/core/acct.ml", 2, Core_kernel);
    ("lib/core/sched.ml", 2, Core_kernel);
    ("lib/core/kalloc.ml", 2, Core_kernel);
    (* Prototype 3: user/kernel *)
    ("lib/core/abi.ml", 3, Core_kernel);
    ("lib/core/vm.ml", 3, Core_kernel);
    ("lib/core/velf.ml", 3, Core_kernel);
    (* the byte order of every disk and wire format; VELF and Gfx, its
       first users, are P3 *)
    ("lib/hw/le.ml", 3, Drivers);
    ("lib/core/proc.ml", 3, Core_kernel);
    ("lib/user/usys.ml", 3, Userlib);
    ("lib/user/umalloc.ml", 3, Userlib);
    ("lib/user/uenv.ml", 3, Userlib);
    ("lib/user/gfx.ml", 3, Userlib);
    (* Prototype 4: files *)
    ("lib/core/fd.ml", 4, Core_kernel);
    ("lib/core/vfs.ml", 4, Filesystems);
    ("lib/core/bufcache.ml", 4, Filesystems);
    ("lib/fs/blockdev.ml", 4, Filesystems);
    ("lib/fs/vpath.ml", 4, Filesystems);
    ("lib/fs/xv6fs.ml", 4, Filesystems);
    ("lib/fs/error.ml", 4, Filesystems);
    ("lib/core/devfs.ml", 4, Drivers);
    ("lib/core/procfs.ml", 4, Filesystems);
    ("lib/core/pipe.ml", 4, Core_kernel);
    ("lib/core/kbd.ml", 4, Drivers);
    ("lib/core/audio.ml", 4, Drivers);
    ("lib/hw/usb.ml", 4, Drivers);
    ("lib/hw/disk.ml", 4, Drivers);
    ("lib/hw/gpio.ml", 4, Drivers);
    ("lib/hw/dma.ml", 4, Drivers);
    ("lib/hw/pwm_audio.ml", 4, Drivers);
    ("lib/core/syscall.ml", 4, Core_kernel);
    ("lib/core/kernel.ml", 4, Core_kernel);
    ("lib/user/uevents.ml", 4, Userlib);
    (* Prototype 5: desktop *)
    ("lib/fs/fat32.ml", 5, Filesystems);
    ("lib/fs/mbr.ml", 5, Filesystems);
    ("lib/hw/sd.ml", 5, Drivers);
    ("lib/core/sem.ml", 5, Core_kernel);
    ("lib/core/wm.ml", 5, Core_kernel);
    ("lib/user/uthread.ml", 5, Userlib);
    ("lib/user/minisdl.ml", 5, Userlib);
    ("lib/user/deflate.ml", 5, Userlib);
    ("lib/user/lzw.ml", 5, Userlib);
    ("lib/user/adpcm.ml", 5, Userlib);
    ("lib/user/yuv.ml", 5, Userlib);
    ("lib/user/bmp.ml", 5, Userlib);
    ("lib/user/pnglite.ml", 5, Userlib);
    ("lib/user/giflite.ml", 5, Userlib);
    ("lib/user/mv1.ml", 5, Userlib);
    ("lib/user/sha256.ml", 5, Userlib);
    ("lib/user/md5.ml", 5, Userlib);
    (* debugging support (reported with its own color in Fig. 7) *)
    ("lib/core/ktrace.ml", 1, Debugging);
    ("lib/core/kpanic.ml", 1, Debugging);
    ("lib/core/debugmon.ml", 3, Debugging);
    ("lib/core/unwind.ml", 3, Debugging);
    ("lib/core/panic.ml", 4, Debugging);
    ("lib/hw/power.ml", 5, Drivers);
    (* apps *)
    ("lib/apps/hello.ml", 1, Apps);
    ("lib/apps/donut.ml", 1, Apps);
    ("lib/apps/mario.ml", 3, Apps);
    ("lib/apps/sysmon.ml", 5, Apps);
    ("lib/apps/shell.ml", 4, Apps);
    ("lib/apps/utils.ml", 4, Apps);
    ("lib/apps/slider.ml", 4, Apps);
    ("lib/apps/buzzer.ml", 4, Apps);
    ("lib/apps/music_player.ml", 5, Apps);
    ("lib/apps/doom.ml", 5, Apps);
    ("lib/apps/video_player.ml", 5, Apps);
    ("lib/apps/launcher.ml", 5, Apps);
    ("lib/apps/blockchain.ml", 5, Apps);
  ]

(* Count non-blank, non-comment-only lines, the usual SLoC convention. *)
let count_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let count = ref 0 in
      (try
         while true do
           let line = String.trim (input_line ic) in
           let is_comment =
             String.length line >= 2
             && (String.equal (String.sub line 0 2) "(*"
                || String.equal (String.sub line 0 2) "*)")
           in
           if String.length line > 0 && not is_comment then incr count
         done
       with End_of_file -> close_in ic);
      Some !count

(* Locate the repo root: walk up from cwd until dune-project appears. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else begin
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
    end
  in
  up (Sys.getcwd ())

type report = {
  per_prototype : (int * (category * int) list) list;
  kernel_totals : (int * int) list;  (** cumulative kernel SLoC by stage *)
  app_totals : (int * int) list;  (** cumulative app+userlib SLoC *)
  missing : string list;  (** inventory entries with no file *)
  unattributed : string list;  (** layer files with no inventory entry *)
}

(* The OS layers Figure 7 attributes, file by file. *)
let layers = [ "sim"; "hw"; "core"; "fs"; "user"; "apps" ]

(* Every [.ml] file under the layers, as repo-relative paths. *)
let layer_files root =
  List.concat_map
    (fun layer ->
      let dir = Filename.concat "lib" layer in
      match Sys.readdir (Filename.concat root dir) with
      | exception Sys_error _ -> []
      | files ->
          Array.to_list files
          |> List.filter (fun f -> Filename.check_suffix f ".ml")
          |> List.sort String.compare
          |> List.map (Filename.concat dir))
    layers

let analyze () =
  let root = Option.value ~default:"." (repo_root ()) in
  let counted =
    List.filter_map
      (fun (path, proto, cat) ->
        match count_file (Filename.concat root path) with
        | Some n -> Some (path, proto, cat, n)
        | None -> None)
      inventory
  in
  let missing =
    List.filter_map
      (fun (path, _, _) ->
        if Sys.file_exists (Filename.concat root path) then None else Some path)
      inventory
  in
  let per_prototype =
    List.init 5 (fun i ->
        let k = i + 1 in
        let cats =
          List.filter_map
            (fun cat ->
              let n =
                List.fold_left
                  (fun acc (_, proto, c, n) ->
                    if proto = k && c = cat then acc + n else acc)
                  0 counted
              in
              if n > 0 then Some (cat, n) else None)
            [
              Core_kernel;
              Drivers;
              Filesystems;
              Debugging;
              Beyond_paper;
              Userlib;
              Apps;
            ]
        in
        (k, cats))
  in
  let cumulative pred =
    List.init 5 (fun i ->
        let k = i + 1 in
        let n =
          List.fold_left
            (fun acc (_, proto, cat, n) ->
              if proto <= k && pred cat then acc + n else acc)
            0 counted
        in
        (k, n))
  in
  {
    per_prototype;
    kernel_totals =
      cumulative (function
        | Core_kernel | Drivers | Filesystems | Debugging | Beyond_paper ->
            true
        | Userlib | Apps -> false);
    app_totals =
      cumulative (function
        | Userlib | Apps -> true
        | Core_kernel | Drivers | Filesystems | Debugging | Beyond_paper ->
            false);
    missing;
    unattributed =
      List.filter
        (fun path ->
          not (List.exists (fun (p, _, _) -> String.equal p path) inventory))
        (layer_files root);
  }

let render report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kernel SLoC by prototype (cumulative):\n";
  List.iter
    (fun (k, n) -> Buffer.add_string buf (Printf.sprintf "  prototype %d: %6d\n" k n))
    report.kernel_totals;
  Buffer.add_string buf "userspace SLoC by prototype (cumulative):\n";
  List.iter
    (fun (k, n) -> Buffer.add_string buf (Printf.sprintf "  prototype %d: %6d\n" k n))
    report.app_totals;
  Buffer.add_string buf "newly introduced, by stage and subsystem:\n";
  List.iter
    (fun (k, cats) ->
      Buffer.add_string buf (Printf.sprintf "  prototype %d:\n" k);
      List.iter
        (fun (cat, n) ->
          Buffer.add_string buf
            (Printf.sprintf "    %-14s %6d\n" (category_name cat) n))
        cats)
    report.per_prototype;
  if report.missing <> [] then begin
    Buffer.add_string buf "missing files:\n";
    List.iter (fun p -> Buffer.add_string buf ("  " ^ p ^ "\n")) report.missing
  end;
  if report.unattributed <> [] then begin
    Buffer.add_string buf "unattributed files:\n";
    List.iter
      (fun p -> Buffer.add_string buf ("  " ^ p ^ "\n"))
      report.unattributed
  end;
  Buffer.contents buf
