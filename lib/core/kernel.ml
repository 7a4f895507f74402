(** Kernel assembly and boot (§3 "OS image", §4).

    Booting mirrors the real flow: the GPU firmware loads the kernel image
    from SD partition 1 (charged as firmware time), the kernel builds its
    ramdisk root filesystem (xv6fs) with every user program packed as a
    VELF executable, allocates the framebuffer through the mailbox, brings
    up drivers per the prototype's feature set, mounts the FAT32 partition
    under /d, releases secondary cores, and is then ready to spawn init. *)

type program = {
  prog_name : string;
  prog_size : int;  (** VELF image size: drives exec load cost and memory *)
  prog_main : string list -> int;
}

type spec = {
  sp_platform : Hw.Board.platform;
  sp_config : Kconfig.t;
  sp_fb : (int * int) option;
  sp_programs : program list;
  sp_files : (string * Bytes.t) list;  (** extra ramdisk files *)
  sp_fat_files : (string * Bytes.t) list;  (** files on the FAT partition *)
  sp_usb_files : (string * Bytes.t) list option;
      (** when [Some], a FAT32-formatted USB mass-storage stick with these
          files is plugged in and mounted under /usb — the USB-class
          extensibility §4.4 anticipates *)
  sp_track_dirty : bool;
  sp_sd_mib : int;
}

let default_spec =
  {
    sp_platform = Hw.Board.pi3;
    sp_config = Kconfig.full;
    sp_fb = Some (640, 480);
    sp_programs = [];
    sp_files = [];
    sp_fat_files = [];
    sp_usb_files = None;
    sp_track_dirty = true;
    sp_sd_mib = 64;
  }

type t = {
  spec : spec;
  board : Hw.Board.t;
  config : Kconfig.t;
  kalloc : Kalloc.t;
  sched : Sched.t;
  fdt : Fd.t;
  vfs : Vfs.t;
  kbd : Kbd.t;
  audio : Audio.t option;
  wm : Wm.t option;
  fb : Hw.Framebuffer.t option;
  debugmon : Debugmon.t;
  panic : Panic.t;
  rootfs : Fs.Xv6fs.t;
  root_bc : Bufcache.t;
  fat_bc : Bufcache.t option;
  devfs : Devfs.t;
  kcheck : Kcheck.t option;
  kernel_reserved_bytes : int;
  mutable boot_ready_ns : int64;
}

(* SD layout: partition 1 (kernel image) and partition 2 (FAT32 user
   files), as in §3. *)
let part1_lba = 2048
let part1_sectors = 8192 (* 4 MiB kernel image *)
let part2_lba = part1_lba + part1_sectors

(* Create every missing directory above [path] through the filesystem's
   own [exists] and [mkdir]. *)
let mkdirs ~exists ~mkdir path =
  let rec go built = function
    | [] -> ()
    | comp :: rest ->
        let next = built ^ "/" ^ comp in
        (if not (exists next) then
           match mkdir next with
           | Ok () -> ()
           | Error e -> Kpanic.panicf "boot: %s" (Fs.Error.to_string e));
        go next rest
  in
  go "" (Fs.Vpath.split (Fs.Vpath.dirname path))

(* Build the ramdisk image holding every program as a VELF file plus the
   extra files. Returns the raw image. *)
let build_ramdisk spec =
  let velfs =
    List.map
      (fun p ->
        ( "/" ^ p.prog_name,
          Velf.build
            {
              Velf.prog_name = p.prog_name;
              code_bytes = (max 1024 p.prog_size * 3) / 4;
              data_bytes = max 256 (p.prog_size / 4);
            } ))
      spec.sp_programs
  in
  let all_files = velfs @ spec.sp_files in
  let content_bytes =
    List.fold_left (fun acc (_, data) -> acc + Bytes.length data) 0 all_files
  in
  (* With the journal on, the image gains a log area (header + slots,
     two above the 64-block transaction cap) and uses the extent block
     map; off keeps the paper's exact layout. *)
  let nlog = if spec.sp_config.Kconfig.journal then 66 else 0 in
  let total_blocks =
    max 512 ((content_bytes * 3 / 2 / Fs.Xv6fs.block_bytes) + 256)
    + if nlog > 0 then nlog + 1 else 0
  in
  let ninodes = max 64 (List.length all_files * 2) in
  let image =
    Fs.Xv6fs.mkfs ~nlog ~ext:spec.sp_config.Kconfig.journal ~total_blocks
      ~ninodes ()
  in
  let fsys =
    match Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image image) with
    | Ok f -> f
    | Error e -> Kpanic.panicf "boot: ramdisk %s" (Fs.Error.to_string e)
  in
  List.iter
    (fun (path, data) ->
      mkdirs
        ~exists:(fun p -> Result.is_ok (Fs.Xv6fs.lookup fsys p))
        ~mkdir:(fun p ->
          Result.map ignore (Fs.Xv6fs.create fsys p Fs.Xv6fs.Dir))
        path;
      match Fs.Xv6fs.create fsys path Fs.Xv6fs.Reg with
      | Error e -> Kpanic.panicf "boot: %s" (Fs.Error.to_string e)
      | Ok node -> (
          match Fs.Xv6fs.writei fsys node ~off:0 ~data with
          | Ok _ -> ()
          | Error e ->
              Kpanic.panicf "boot: %s: %s" path (Fs.Error.to_string e)))
    all_files;
  image

(* Format [dev] as FAT32 and fill it with [files]: the SD card's
   partition 2 and the USB stick both start this way. Panics name the
   device. *)
let format_fat (dev : Fs.Blockdev.t) files =
  let name = dev.Fs.Blockdev.name in
  let io = Fs.Fat32.io_of_blockdev dev in
  Fs.Fat32.mkfs io ~total_sectors:dev.Fs.Blockdev.total_sectors;
  let fat =
    match Fs.Fat32.mount io with
    | Ok f -> f
    | Error e -> Kpanic.panicf "boot: %s mkfs %s" name (Fs.Error.to_string e)
  in
  List.iter
    (fun (path, data) ->
      mkdirs
        ~exists:(fun p -> Result.is_ok (Fs.Fat32.stat fat p))
        ~mkdir:(Fs.Fat32.mkdir fat) path;
      (match Fs.Fat32.create fat path with
      | Ok () -> ()
      | Error e -> Kpanic.panicf "boot: %s %s" name (Fs.Error.to_string e));
      match Fs.Fat32.write_file fat path ~off:0 ~data with
      | Ok _ -> ()
      | Error e ->
          Kpanic.panicf "boot: %s %s: %s" name path (Fs.Error.to_string e))
    files

(* Partition the SD card and format partition 2 with the FAT files. *)
let build_fat_partition board spec =
  let sd = board.Hw.Board.sd in
  let total = Hw.Sd.sectors sd in
  let part2_sectors = total - part2_lba in
  (match
     Fs.Mbr.write
       (Fs.Blockdev.of_sd sd ~name:"sd" ~first_lba:0 ~sectors:total)
       [|
         {
           Fs.Mbr.part_type = Fs.Mbr.native_type;
           first_lba = part1_lba;
           sectors = part1_sectors;
         };
         {
           Fs.Mbr.part_type = Fs.Mbr.fat32_lba_type;
           first_lba = part2_lba;
           sectors = part2_sectors;
         };
       |]
   with
  | Ok () -> ()
  | Error e -> Kpanic.panicf "boot: mbr %s" e);
  format_fat
    (Fs.Blockdev.of_sd sd ~name:"sd:p2" ~first_lba:part2_lba
       ~sectors:part2_sectors)
    spec.sp_fat_files

(* Mount a device-backed FAT32 volume at [at] through a block cache of
   its own, and return that cache. *)
let mount_fat_device vfs ~board (cfg : Kconfig.t) backing ~at =
  let bc =
    Bufcache.create ~board ~trace:vfs.Vfs.sched.Sched.trace ~backing
      ~block_sectors:1 ~capacity:64 ~writeback:cfg.Kconfig.writeback
      ~readahead:cfg.Kconfig.readahead_blocks
      ~coalesce:cfg.Kconfig.sd_coalescing ()
  in
  match
    Fs.Fat32.mount
      (Bufcache.fat_io bc ~range_bypass:cfg.Kconfig.range_io_bypass)
  with
  | Ok fat ->
      Vfs.mount vfs ~at (Vfs.fat_mount fat bc);
      bc
  | Error e -> Kpanic.panicf "boot: mount %s: %s" at (Fs.Error.to_string e)

let boot spec =
  let board =
    Hw.Board.create ~platform:spec.sp_platform ~sd_mib:spec.sp_sd_mib ()
  in
  let engine = board.Hw.Board.engine in
  (* Size the engine's domain pool before any event fires. A config that
     explicitly asks for > 1 domain wins; otherwise VOS_SIM_DOMAINS
     applies, which lets CI drive the whole suite multicore without
     touching configs. Either way virtual time is unaffected — domains
     > 1 only parallelizes Par computes. *)
  let sim_domains =
    if spec.sp_config.Kconfig.sim_domains > 1 then
      spec.sp_config.Kconfig.sim_domains
    else
      match Sys.getenv_opt "VOS_SIM_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 1 -> n
          | Some _ | None -> spec.sp_config.Kconfig.sim_domains)
      | None -> spec.sp_config.Kconfig.sim_domains
  in
  Sim.Engine.set_domains engine sim_domains;
  (* firmware: load kernel image from SD partition 1 *)
  Sim.Engine.advance_to engine spec.sp_platform.Hw.Board.firmware_boot_ns;
  (* card init by our driver *)
  Sim.Engine.advance_to engine
    (Int64.add (Sim.Engine.now engine) (Hw.Board.io_ns board Hw.Sd.init_cost_ns));
  (* framebuffer through the mailbox *)
  let fb =
    match spec.sp_fb with
    | None -> None
    | Some (w, h) -> (
        match
          Hw.Mailbox.call board.Hw.Board.mailbox
            [
              Hw.Mailbox.Set_physical_size (w, h);
              Hw.Mailbox.Set_depth 32;
              Hw.Mailbox.Allocate_buffer;
            ]
        with
        | Ok (results, cost) ->
            Sim.Engine.advance_to engine (Int64.add (Sim.Engine.now engine) cost);
            List.find_map
              (function Hw.Mailbox.Buffer fb -> Some fb | _ -> None)
              results
        | Error e -> Kpanic.panicf "boot: mailbox %s" e)
  in
  (* root filesystem on ramdisk *)
  let ramdisk = build_ramdisk spec in
  let fb_bytes =
    match fb with
    | Some fb -> 4 * Hw.Framebuffer.width fb * Hw.Framebuffer.height fb
    | None -> 0
  in
  let kernel_reserved = (6 * 1024 * 1024) + Bytes.length ramdisk + fb_bytes in
  let kalloc =
    Kalloc.create
      ~dram_bytes:(948 * 1024 * 1024)
      ~kernel_reserved_bytes:kernel_reserved
  in
  let sched = Sched.create board spec.sp_config in
  let trace = sched.Sched.trace in
  (* the runtime sanitizer comes up with the scheduler so every later
     subsystem can feed it; kernel-side knowledge (channel-name parsing,
     semaphore holders, fd walks) is injected below once those exist *)
  let kcheck =
    if spec.sp_config.Kconfig.kcheck then Some (Kcheck.create ()) else None
  in
  sched.Sched.kcheck <- kcheck;
  (match kcheck with
  | Some kc ->
      Kcheck.set_emit kc (fun ev -> Sched.trace_emit sched ev);
      sched.Sched.ptable <- Some (Spinlock.create ~kcheck:kc ~trace "ptable")
  | None -> ());
  let root_bc =
    if spec.sp_config.Kconfig.journal then
      (* journaled rootfs wants the write-back cache (pinned blocks defer
         until commit) and a capacity that holds a whole transaction *)
      Bufcache.create ~board ~trace ~backing:(Bufcache.Ram ramdisk)
        ~block_sectors:2 ~capacity:128
        ~writeback:spec.sp_config.Kconfig.writeback
        ~coalesce:spec.sp_config.Kconfig.sd_coalescing ()
    else
      Bufcache.create ~board ~trace ~backing:(Bufcache.Ram ramdisk)
        ~block_sectors:2 ()
  in
  let rootfs =
    match Fs.Xv6fs.mount (Bufcache.xv6_io root_bc) with
    | Ok f -> f
    | Error e -> Kpanic.panicf "boot: root mount %s" (Fs.Error.to_string e)
  in
  (* Group commit rides the flush daemon: before each periodic flush the
     cache asks the filesystem to commit whatever transaction is open, so
     pinned blocks become flushable in the same pass. *)
  if Fs.Xv6fs.journaled rootfs then
    Bufcache.set_pre_flush root_bc (fun () -> ignore (Fs.Xv6fs.commit rootfs));
  let console = Console.create board sched in
  let kbd = Kbd.create board sched in
  let audio =
    if Kconfig.files spec.sp_config then Some (Audio.create board sched)
    else None
  in
  let wm =
    match (Kconfig.desktop spec.sp_config, fb) with
    | true, Some fb ->
        let wm = Wm.create sched fb ~track_dirty:spec.sp_track_dirty in
        Kbd.set_sink kbd (fun ev -> Wm.key_sink wm ev);
        Some wm
    | _, (Some _ | None) -> None
  in
  let devfs = Devfs.create ~console ~kbd ~audio ~wm ~fb in
  let procfs = Procfs.create ~board ~sched ~kalloc in
  let fdt = Fd.create sched in
  let vfs =
    Vfs.create ~sched ~config:spec.sp_config ~fdt
      ~root:(Vfs.xv6_mount rootfs root_bc) ~devfs ~procfs
      ~ipc:(Pipe.params_of_config spec.sp_config sched.Sched.kperf)
  in
  (* FAT32 partition under /d *)
  let fat_bc =
    if Kconfig.desktop spec.sp_config then begin
      build_fat_partition board spec;
      Some
        (mount_fat_device vfs ~board spec.sp_config
           (Bufcache.Card (board.Hw.Board.sd, part2_lba))
           ~at:"/d")
    end
    else None
  in
  (* USB mass-storage stick: format a FAT image, attach it to the hub,
     and mount it under /usb through the same FatFS + buffer cache path *)
  (match spec.sp_usb_files with
  | None -> ()
  | Some files ->
      if not (Kconfig.desktop spec.sp_config) then
        Kpanic.panicf "boot: USB storage needs the FAT32 feature";
      let disk = Hw.Disk.create ~sectors:32768 (* a 16 MiB stick *) in
      format_fat (Fs.Blockdev.of_disk ~name:"usb0" disk) files;
      Hw.Usb.attach_msd board.Hw.Board.usb disk;
      ignore
        (mount_fat_device vfs ~board spec.sp_config
           (Bufcache.Usb_msd board.Hw.Board.usb)
           ~at:"/usb"));
  let fat_caches = List.filter (fun bc -> bc != root_bc) (Vfs.caches vfs) in
  (* Write-back mode: a periodic flush daemon per device-backed cache.
     The daemon is an engine event, i.e. a kernel thread woken by timer —
     its flushes are not billed to whichever task happens to be in a
     syscall when it fires. *)
  if spec.sp_config.Kconfig.writeback then begin
    let start bc =
      Bufcache.start_flush_daemon bc ~interval_ms:Kconfig.flush_interval_ms
    in
    List.iter start fat_caches;
    (* the journaled rootfs cache is write-back too: its daemon is what
       drives group commit (via the pre-flush hook above) *)
    if spec.sp_config.Kconfig.journal then start root_bc
  end;
  let sems = Sem.create sched in
  let proc = Proc.create ~sched ~fdt ~vfs ~sems ~kalloc in
  (* now that tasks, semaphores and fd tables exist, teach kcheck who
     could wake each wait channel and how to re-derive every refcount *)
  (match kcheck with
  | Some kc ->
      let blocked_on pid =
        match Sched.task_by_pid sched pid with
        | Some { Task.state = Task.Blocked chan; _ } -> Some chan
        | Some _ | None -> None
      in
      let live pid =
        match Sched.task_by_pid sched pid with
        | Some task -> task.Task.state <> Task.Zombie
        | None -> false
      in
      let wakers pid =
        match blocked_on pid with
        | None -> []
        | Some chan -> (
            match chan with
            | Task.Exit_of joinee ->
                (* joiners are woken by the joinee's exit *)
                if live joinee then [ joinee ] else []
            | Task.Children_of parent -> (
                (* wait(2) is woken by any live child's exit *)
                match Sched.task_by_pid sched parent with
                | Some parent -> List.filter live parent.Task.children
                | None -> [])
            | Task.Sem_count id ->
                (* only a task holding the semaphore open plausibly posts it *)
                Sem.holders sems id
            | Task.Pipe_readable pipe_id ->
                (* blocked readers are woken by the write side (and vice
                   versa): data arriving or the last end closing *)
                Fd.pipe_end_owners fdt ~pipe_id ~write:true
            | Task.Pipe_writable pipe_id ->
                Fd.pipe_end_owners fdt ~pipe_id ~write:false
            | Task.Debug_stop _ | Task.Wm_events _ | Task.Kbd_events
            | Task.Uart_input | Task.Audio_space | Task.Poll_waiters
            | Task.Sleeping ->
                (* woken by timers, IRQs or the debugger — external, so
                   the deadlock walk stops here *)
                [])
      in
      let chan_name pid =
        match blocked_on pid with
        | Some chan -> Task.chan_name chan
        | None -> "?"
      in
      Kcheck.set_env kc
        { Kcheck.blocked = (fun pid -> blocked_on pid <> None); wakers; chan_name };
      Kcheck.register_auditor kc ~name:"fd/pipe refs" (fun () -> Fd.audit fdt);
      Kcheck.register_auditor kc ~name:"sem refs" (fun () -> Sem.audit sems)
  | None -> ());
  List.iter
    (fun p -> Proc.register_program proc p.prog_name p.prog_main)
    spec.sp_programs;
  Syscall.install
    {
      Syscall.s_sched = sched;
      s_config = spec.sp_config;
      s_vfs = vfs;
      s_proc = proc;
      s_sems = sems;
      s_console = console;
      s_fb = fb;
    };
  let debugmon = Debugmon.create sched in
  let panic = Panic.install sched console in
  (* kperf wiring. Block caches record SD request latency and emit
     request spans; the trace ring pokes /proc/ktrace pollers through a
     zero-delay engine event (never synchronously from inside [emit],
     which may run with scheduler state mid-update); subsystem counters
     surface in /proc/metrics. All of it is host-side bookkeeping — no
     cycles are charged, and the poke only fires while a trace-pipe
     reader is actually open. *)
  List.iter (fun bc -> Bufcache.set_observer bc sched) (Vfs.caches vfs);
  (let wake_pending = ref false in
   sched.Sched.trace.Ktrace.on_data <-
     Some
       (fun () ->
         if not !wake_pending then begin
           wake_pending := true;
           ignore
             (Sim.Engine.schedule_after engine 0L (fun () ->
                  wake_pending := false;
                  Sched.poll_wake sched))
         end));
  (let kp = sched.Sched.kperf in
   Kperf.register_counter kp ~label:("cache", "root") "vos_bufcache_hits_total"
     (fun () -> root_bc.Bufcache.hits);
   Kperf.register_counter kp ~label:("cache", "root")
     "vos_bufcache_misses_total" (fun () -> root_bc.Bufcache.misses);
   List.iteri
     (fun i bc ->
       let l = ("cache", Printf.sprintf "fat%d" i) in
       Kperf.register_counter kp ~label:l "vos_bufcache_hits_total" (fun () ->
           bc.Bufcache.hits);
       Kperf.register_counter kp ~label:l "vos_bufcache_misses_total"
         (fun () -> bc.Bufcache.misses))
     fat_caches;
   (* journal and sanitizer counters, so one /proc/metrics scrape covers
      the storage and kcheck subsystems *)
   Kperf.register_counter kp ~help:"Journal transactions committed"
     "vos_journal_commits_total" (fun () -> Fs.Xv6fs.log_commits rootfs);
   Kperf.register_counter kp
     ~help:"Journal blocks installed by recovery at mount"
     "vos_journal_replayed_total" (fun () -> Fs.Xv6fs.log_replayed rootfs);
   Kperf.register_counter kp
     ~help:"Writes absorbed into an already-queued journal block"
     "vos_journal_absorbed_total" (fun () -> Fs.Xv6fs.log_absorbed rootfs);
   Kperf.register_counter kp ~help:"Kernel sanitizer violations detected"
     "vos_kcheck_violations_total" (fun () ->
       match sched.Sched.kcheck with
       | Some kc -> List.length kc.Kcheck.violations
       | None -> 0));
  (* vprobe's journal:commit: host-side bookkeeping, no cycles charged
     and no engine events scheduled *)
  Fs.Xv6fs.set_on_commit rootfs (fun blocks ->
      if Ktrace.probing trace then
        Sched.trace_emit sched (Ktrace.Probe (Ktrace.Journal_commit blocks)));
  (* task teardown hooks *)
  sched.Sched.on_task_exit <-
    [
      (fun task -> Fd.close_all fdt ~pid:task.Task.pid);
      (fun task -> Sem.task_exit sems ~pid:task.Task.pid);
      (fun task ->
        match (wm, task.Task.wm_surface) with
        | Some wm, Some sid -> Wm.remove_surface wm sid
        | (Some _ | None), (Some _ | None) -> ());
    ];
  Sched.start sched;
  (match wm with Some wm -> Wm.start wm | None -> ());
  (* peripheral bring-up: USB enumeration dominates (§6.2's boot-time
     analysis); run the clock through it so the system is ready *)
  if Kconfig.files spec.sp_config then begin
    Hw.Usb.power_on board.Hw.Board.usb;
    Sched.run_until sched
      (Int64.add (Sim.Engine.now engine) (Int64.add Hw.Usb.init_cost_ns 1_000_000L))
  end
  else
    Sched.run_until sched (Int64.add (Sim.Engine.now engine) 50_000_000L);
  let t =
    {
      spec;
      board;
      config = spec.sp_config;
      kalloc;
      sched;
      fdt;
      vfs;
      kbd;
      audio;
      wm;
      fb;
      debugmon;
      panic;
      rootfs;
      root_bc;
      fat_bc;
      devfs;
      kcheck;
      kernel_reserved_bytes = kernel_reserved;
      boot_ready_ns = Sim.Engine.now engine;
    }
  in
  t

(* Orderly shutdown: flush every cache's dirty blocks and stop the flush
   daemons. Under write-through this is a no-op; under write-back it is
   the moment deferred writes become durable (the real VOS would do this
   from the power-button path). *)
let shutdown t =
  Vfs.sync_all t.vfs;
  List.iter Bufcache.stop_flush_daemon (Vfs.caches t.vfs)

(* ---- conveniences ---- *)

(* Give a fresh process the xv6 convention: console on fds 0, 1 and 2
   (init opens the console and dups it twice). *)
let setup_std_fds t ~pid =
  if Kconfig.files t.config then
    match Devfs.lookup t.devfs "console" with
    | None -> ()
    | Some ops ->
        let file =
          Fd.make_file t.fdt ~kind:(Fd.K_dev ops) ~readable:true
            ~writable:true ~nonblock:false
        in
        (match Fd.alloc t.fdt ~pid file with
        | Ok 0 ->
            ignore (Fd.dup t.fdt ~pid ~fd:0);
            ignore (Fd.dup t.fdt ~pid ~fd:0)
        | Ok _ | Error _ -> ())

let spawn_user t ~name main =
  let size =
    match
      List.find_opt (fun p -> String.equal p.prog_name name) t.spec.sp_programs
    with
    | Some p -> p.prog_size
    | None -> 64 * 1024
  in
  let pages = (size / Kalloc.page_bytes) + 1 in
  match Vm.create t.kalloc ~code_pages:pages with
  | Error e -> Kpanic.panicf "spawn: %s" e
  | Ok vm ->
      let task = Sched.spawn t.sched ~name ~kind:Task.User ~vm main in
      setup_std_fds t ~pid:task.Task.pid;
      task

let spawn_kernel t ~name main = Sched.spawn t.sched ~name ~kind:Task.Kernel main

let run_for t ns =
  Sched.run_until t.sched (Int64.add (Sim.Engine.now t.board.Hw.Board.engine) ns)

let run_until t time = Sched.run_until t.sched time

let now t = Hw.Board.now t.board

(* Total OS memory footprint (§6.3): static kernel + ramdisk + fb, plus
   dynamically allocated pages and kmalloc. *)
let os_memory_bytes t =
  t.kernel_reserved_bytes + Kalloc.used_bytes t.kalloc
  + Kalloc.kmalloc_bytes t.kalloc

let uart_output t = Hw.Uart.output t.board.Hw.Board.uart
