(** The VFS: one file abstraction over xv6fs, FAT32, devfs, procfs and
    pipes (§4.4–4.5).

    Path routing is exactly VOS's: "/dev" and "/proc" are intercepted, and
    every other path goes to the mount table: the FAT32 partition under
    "/d" (and a USB stick under "/usb"), with the root filesystem (xv6fs
    on ramdisk) at "/" for the rest. Every file syscall has one path for
    files, whatever backs them: {!xv6_mount} and {!fat_mount} are the only
    code that knows an on-disk format, and the pseudo-inode bridge for
    FatFS lives in the second. *)

type t = {
  sched : Sched.t;
  config : Kconfig.t;
  fdt : Fd.t;
  mutable mounts : (string * Fd.mount) list;
      (** newest first, so a path goes to the first mount point that
          prefixes it; the root filesystem, at "/" since {!create},
          comes last and takes every path no other mount claims *)
  devfs : Devfs.t;
  procfs : Procfs.t;
  ipc : Pipe.params;  (** pipe knobs, pipe-id stream and pipe counters *)
  polls : Kperf.cell;  (** poll syscalls entered *)
  poll_immediate : Kperf.cell;  (** returned ready without blocking *)
  poll_blocked : Kperf.cell;  (** had to sleep at least once *)
  poll_timeouts : Kperf.cell;  (** returned 0 on timeout expiry *)
}

let create ~sched ~config ~fdt ~root ~devfs ~procfs ~ipc =
  let c = Kperf.counter sched.Sched.kperf in
  let polls = c "vos_polls_total" in
  let poll_immediate = c "vos_poll_immediate_total" in
  let poll_blocked = c "vos_poll_blocked_total" in
  let poll_timeouts = c "vos_poll_timeouts_total" in
  { sched; config; fdt; mounts = [ ("/", root) ]; devfs; procfs; ipc;
    polls; poll_immediate; poll_blocked; poll_timeouts }

let mount t ~at m = t.mounts <- (at, m) :: t.mounts

(** Every mounted filesystem's cache, in mount order: the root's first. *)
let caches t = List.rev_map (fun (_, m) -> m.Fd.m_cache) t.mounts

(* ---- the two mount constructors ---- *)

(* xv6fs files hold their inode. Its stat reads only the in-memory
   inode, never the cache; a directory that cannot be read lists as
   empty. *)
let xv6_mount fsys cache =
  let stat_of inode =
    let st = Fs.Xv6fs.stat_of fsys inode in
    {
      Abi.stat_type =
        (match st.Fs.Xv6fs.st_type with
        | Fs.Xv6fs.Dir -> Abi.T_dir
        | Fs.Xv6fs.Reg -> Abi.T_file
        | Fs.Xv6fs.Dev -> Abi.T_dev);
      stat_size = st.Fs.Xv6fs.st_size;
      stat_nlink = st.Fs.Xv6fs.st_nlink;
      stat_ino = st.Fs.Xv6fs.st_inum;
    }
  in
  let opened inode =
    ( {
        Fd.n_stat = (fun () -> Ok (stat_of inode));
        n_size = (fun () -> (stat_of inode).Abi.stat_size);
        n_list =
          (fun () ->
            match Fs.Xv6fs.readdir fsys inode with
            | Ok entries -> Ok (List.map fst entries)
            | Error _ -> Ok []);
        n_read = Fs.Xv6fs.readi fsys inode;
        n_write = Fs.Xv6fs.writei fsys inode;
        n_truncate = (fun () -> Fs.Xv6fs.truncate fsys inode);
      },
      stat_of inode )
  in
  {
    Fd.m_cache = cache;
    m_op_cycles = 0;
    m_lookup = (fun path -> Result.map opened (Fs.Xv6fs.lookup fsys path));
    m_create =
      (fun path -> Result.map opened (Fs.Xv6fs.create fsys path Fs.Xv6fs.Reg));
    m_mkdir =
      (fun path -> Result.map ignore (Fs.Xv6fs.create fsys path Fs.Xv6fs.Dir));
    m_unlink = Fs.Xv6fs.unlink fsys;
    m_sync = (fun () -> ignore (Fs.Xv6fs.commit fsys));
  }

(* FAT32 files hold their path: FatFS has no inodes, so every open-file
   operation pays for a pseudo-inode, a stat by path (§4.5). An open
   file keeps the last size it saw, which answers SEEK_END once its
   name is gone. A failed truncate leaves that size alone. *)
let fat_mount fat cache =
  let stat_of st =
    {
      Abi.stat_type = (if st.Fs.Fat32.st_dir then Abi.T_dir else Abi.T_file);
      stat_size = st.Fs.Fat32.st_size;
      stat_nlink = 1;
      stat_ino = st.Fs.Fat32.st_cluster;
    }
  in
  let lookup path =
    Result.map
      (fun st ->
        let size = ref st.Fs.Fat32.st_size in
        ( {
            Fd.n_stat = (fun () -> Result.map stat_of (Fs.Fat32.stat fat path));
            n_size =
              (fun () ->
                match Fs.Fat32.stat fat path with
                | Ok st -> st.Fs.Fat32.st_size
                | Error _ -> !size);
            n_list =
              (fun () -> Result.map (List.map fst) (Fs.Fat32.readdir fat path));
            n_read = Fs.Fat32.read_file fat path;
            n_write =
              (fun ~off ~data ->
                let written = Fs.Fat32.write_file fat path ~off ~data in
                Result.iter (fun n -> size := max !size (off + n)) written;
                written);
            n_truncate =
              (fun () ->
                if Result.is_ok (Fs.Fat32.truncate fat path) then size := 0);
          },
          stat_of st ))
      (Fs.Fat32.stat fat path)
  in
  {
    Fd.m_cache = cache;
    m_op_cycles = Kcost.pseudo_inode;
    m_lookup = lookup;
    m_create =
      (fun path ->
        Result.bind (Fs.Fat32.create fat path) (fun () -> lookup path));
    m_mkdir = Fs.Fat32.mkdir fat;
    m_unlink = Fs.Fat32.unlink fat;
    m_sync = ignore;
  }

let resolve ctx path =
  let cwd = ctx.Sched.task.Task.cwd in
  Fs.Vpath.join cwd path

type route =
  | To_dev of string
  | To_proc of string
  | To_fs of Fd.mount * string  (** the path below the mount point *)

let route t path =
  match Fs.Vpath.strip_prefix ~prefix:"/dev" path with
  | Some rest when not (String.equal rest "/") ->
      To_dev (Fs.Vpath.basename rest)
  | Some _ | None -> (
      match Fs.Vpath.strip_prefix ~prefix:"/proc" path with
      | Some rest when not (String.equal rest "/") ->
          To_proc (Fs.Vpath.basename rest)
      | Some _ | None ->
          (* the root's "/" prefixes every path, so some mount matches *)
          Option.get
            (List.find_map
               (fun (at, m) ->
                 Option.map
                   (fun rest -> To_fs (m, rest))
                   (Fs.Vpath.strip_prefix ~prefix:at path))
               t.mounts))

let err ctx e = Sched.finish ctx (Abi.R_int (-e))

let charge_dispatch ctx =
  Sched.charge ctx (Kcost.fd_lookup + Kcost.vfs_dispatch)

(* ---- open ---- *)

let want_read flags = flags land 0x3 <> Abi.o_wronly
let want_write flags = flags land 0x3 <> Abi.o_rdonly

let install ctx t file =
  match Fd.alloc t.fdt ~pid:ctx.Sched.task.Task.pid file with
  | Ok fd -> Sched.finish ctx (Abi.R_int fd)
  | Error e -> err ctx e

let open_file ctx t m path flags =
  Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
      Sched.charge ctx m.Fd.m_op_cycles;
      let found =
        match m.Fd.m_lookup path with
        | Error _ when flags land Abi.o_create <> 0 -> m.Fd.m_create path
        | found -> found
      in
      match found with
      | Error e -> err ctx (Errno.of_fs_error e)
      | Ok (node, st) ->
          (* xv6 semantics: directories open read-only. A writable dir fd
             would let write(2) scribble raw dirents over the directory
             body — self-inflicted fs corruption via the syscall ABI. *)
          if st.Abi.stat_type = Abi.T_dir && want_write flags then
            err ctx Errno.eisdir
          else begin
            if flags land Abi.o_trunc <> 0 && st.Abi.stat_type = Abi.T_file
            then node.Fd.n_truncate ();
            install ctx t
              (Fd.make_file t.fdt ~kind:(Fd.K_file (m, node))
                 ~readable:(want_read flags) ~writable:(want_write flags)
                 ~nonblock:false)
          end)

(* O_NONBLOCK is a desktop-stage feature (P5); before it the flag is
   ignored and every file blocks. *)
let nonblock_of t flags =
  Kconfig.desktop t.config && flags land Abi.o_nonblock <> 0

(* Only reached at P4+: the syscall gate answers ENOSYS before. *)
let op_open ctx t path flags =
  charge_dispatch ctx;
  let path = resolve ctx path in
  match route t path with
  | To_dev name -> (
      match Devfs.lookup t.devfs name with
      | None -> err ctx Errno.enoent
      | Some ops ->
          install ctx t
            (Fd.make_file t.fdt ~kind:(Fd.K_dev ops)
               ~readable:(want_read flags) ~writable:(want_write flags)
               ~nonblock:(nonblock_of t flags)))
  | To_proc name -> (
      match Procfs.ops t.procfs name with
      | None -> err ctx Errno.enoent
      | Some ops ->
          install ctx t
            (Fd.make_file t.fdt ~kind:(Fd.K_dev ops) ~readable:true
               ~writable:(want_write flags) ~nonblock:(nonblock_of t flags)))
  | To_fs (m, sub) -> open_file ctx t m sub flags

(* ---- read ---- *)

(* Upper bound on one read(2) transfer. A hostile multi-GB [len] must
   never size a host allocation: regular files clamp to the readable
   span below, and this cap backstops every path (a sparse file's size
   can far exceed the data present). Short reads are legal, and no VOS
   program issues single transfers anywhere near this large. *)
let max_read_bytes = 8 * 1024 * 1024

(* Directory reads return a text listing, one name per line; callers stat
   entries individually for sizes (as the xv6 ls does with dirents). *)
let read_file ctx m node file len =
  Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
      Sched.charge ctx m.Fd.m_op_cycles;
      match node.Fd.n_stat () with
      | Error e -> err ctx (Errno.of_fs_error e)
      | Ok st when st.Abi.stat_type = Abi.T_dir -> (
          match node.Fd.n_list () with
          | Error e -> err ctx (Errno.of_fs_error e)
          | Ok names ->
              let text =
                String.concat "" (List.map (fun n -> n ^ "\n") names)
              in
              let off = min file.Fd.off (String.length text) in
              let n = min len (String.length text - off) in
              file.Fd.off <- off + n;
              Sched.finish ctx
                (Abi.R_bytes (Bytes.of_string (String.sub text off n))))
      | Ok st -> (
          (* bound the allocation to the readable span before the fs
             layer sizes its output buffer *)
          let len = min len (max 0 (st.Abi.stat_size - file.Fd.off)) in
          match node.Fd.n_read ~off:file.Fd.off ~len with
          | Error e -> err ctx (Errno.of_fs_error e)
          | Ok data ->
              file.Fd.off <- file.Fd.off + Bytes.length data;
              Sched.charge ctx (Kcost.copy_cycles ~bytes:(Bytes.length data));
              Sched.finish ctx (Abi.R_bytes data)))

let op_read ctx t fd len =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  match Fd.get t.fdt ~pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file ->
      if not file.Fd.readable then err ctx Errno.ebadf
      else if len < 0 then err ctx Errno.einval
      else begin
        let len = min len max_read_bytes in
        match file.Fd.kind with
        | Fd.K_dev ops -> ops.Fd.dev_read ctx file ~len
        | Fd.K_pipe_read p -> Pipe.read ctx p ~len ~nonblock:file.Fd.nonblock
        | Fd.K_pipe_write _ -> err ctx Errno.ebadf
        | Fd.K_file (m, node) -> read_file ctx m node file len
      end

(* ---- write ---- *)

let op_write ctx t fd data =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  match Fd.get t.fdt ~pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file ->
      if not file.Fd.writable then err ctx Errno.ebadf
      else begin
        match file.Fd.kind with
        | Fd.K_dev ops -> ops.Fd.dev_write ctx file data
        | Fd.K_pipe_write p -> Pipe.write ctx p data ~nonblock:file.Fd.nonblock
        | Fd.K_pipe_read _ -> err ctx Errno.ebadf
        | Fd.K_file (m, node) ->
            Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
                Sched.charge ctx m.Fd.m_op_cycles;
                match node.Fd.n_write ~off:file.Fd.off ~data with
                | Error e -> err ctx (Errno.of_fs_error e)
                | Ok n ->
                    file.Fd.off <- file.Fd.off + n;
                    Sched.charge ctx (Kcost.copy_cycles ~bytes:n);
                    Sched.finish ctx (Abi.R_int n))
      end

(* ---- the rest of the file syscalls ---- *)

(* SEEK_END's and fstat's stat run outside [Bufcache.with_ctx]: a FAT32
   stat that misses the cache bills its device time and copy cycles to
   no task. xv6fs's stat reads no block. *)
let op_lseek ctx t fd offset whence =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  match Fd.get t.fdt ~pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file -> (
      match file.Fd.kind with
      | Fd.K_pipe_read _ | Fd.K_pipe_write _ -> err ctx Errno.espipe
      | Fd.K_file _ | Fd.K_dev _ ->
          (* whence is validated, not defaulted: anything outside the
             three POSIX anchors used to fall through to SEEK_END
             silently, so lseek(fd, 0, 7) "worked" *)
          if
            whence <> Abi.seek_set && whence <> Abi.seek_cur
            && whence <> Abi.seek_end
          then err ctx Errno.einval
          else begin
            let base =
              if whence = Abi.seek_set then 0
              else if whence = Abi.seek_cur then file.Fd.off
              else
                match file.Fd.kind with
                | Fd.K_file (_, node) -> node.Fd.n_size ()
                | Fd.K_dev _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ -> 0
            in
            let pos = base + offset in
            if pos < 0 then err ctx Errno.einval
            else begin
              file.Fd.off <- pos;
              Sched.finish ctx (Abi.R_int pos)
            end
          end)

let op_fstat ctx t fd =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  match Fd.get t.fdt ~pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file -> (
      match file.Fd.kind with
      | Fd.K_file (m, node) -> (
          Sched.charge ctx m.Fd.m_op_cycles;
          match node.Fd.n_stat () with
          | Error e -> err ctx (Errno.of_fs_error e)
          | Ok st -> Sched.finish ctx (Abi.R_stat st))
      | Fd.K_dev ops ->
          Sched.finish ctx
            (Abi.R_stat
               {
                 Abi.stat_type = Abi.T_dev;
                 stat_size = 0;
                 stat_nlink = 1;
                 stat_ino = Hashtbl.hash ops.Fd.dev_name land 0xffff;
               })
      | Fd.K_pipe_read p | Fd.K_pipe_write p ->
          Sched.finish ctx
            (Abi.R_stat
               {
                 Abi.stat_type = Abi.T_dev;
                 stat_size = Pipe.fill p;
                 stat_nlink = 1;
                 stat_ino = p.Pipe.pipe_id;
               }))

(* mkdir and unlink: a path operation on the mount that owns the path;
   devices and procfs refuse both. *)
let path_op ctx t path op =
  charge_dispatch ctx;
  match route t (resolve ctx path) with
  | To_dev _ | To_proc _ -> err ctx Errno.eperm
  | To_fs (m, sub) ->
      Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
          match op m sub with
          | Ok () -> Sched.finish ctx (Abi.R_int 0)
          | Error e -> err ctx (Errno.of_fs_error e))

let op_mkdir ctx t path = path_op ctx t path (fun m -> m.Fd.m_mkdir)
let op_unlink ctx t path = path_op ctx t path (fun m -> m.Fd.m_unlink)

let op_chdir ctx t path =
  charge_dispatch ctx;
  let path = resolve ctx path in
  let is_dir =
    match route t path with
    | To_dev _ | To_proc _ -> false
    | To_fs (m, sub) ->
        Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
            match m.Fd.m_lookup sub with
            | Ok (_, st) -> st.Abi.stat_type = Abi.T_dir
            | Error _ -> false)
  in
  if is_dir then begin
    ctx.Sched.task.Task.cwd <- path;
    Sched.finish ctx (Abi.R_int 0)
  end
  else err ctx Errno.enoent

let op_pipe ctx t flags =
  charge_dispatch ctx;
  Sched.charge ctx Kcost.pipe_setup;
  let p = Pipe.create t.ipc ~trace:t.sched.Sched.trace in
  let nonblock = nonblock_of t flags in
  let rf =
    Fd.make_file t.fdt ~kind:(Fd.K_pipe_read p) ~readable:true ~writable:false
      ~nonblock
  in
  let wf =
    Fd.make_file t.fdt ~kind:(Fd.K_pipe_write p) ~readable:false ~writable:true
      ~nonblock
  in
  let pid = ctx.Sched.task.Task.pid in
  match Fd.alloc t.fdt ~pid rf with
  | Error e -> err ctx e
  | Ok rfd -> (
      match Fd.alloc t.fdt ~pid wf with
      | Error e ->
          ignore (Fd.close t.fdt ~pid ~fd:rfd);
          err ctx e
      | Ok wfd -> Sched.finish ctx (Abi.R_pair (rfd, wfd)))

(* ---- poll ---- *)

let file_ready ctx file =
  match file.Fd.kind with
  | Fd.K_pipe_read p -> Pipe.read_ready p
  | Fd.K_pipe_write p -> Pipe.write_ready p
  | Fd.K_dev ops -> (
      match ops.Fd.dev_poll with Some ready -> ready ctx file | None -> true)
  | Fd.K_file _ -> true (* regular files never block *)

(* poll(2): readiness multiplexing over pipes, /dev/events, the console
   and anything else with a [dev_poll] hook. All pollers sleep on the one
   shared {!Task.Poll_waiters} (a task can block on exactly one channel);
   every producer-side readiness transition wakes the channel and each
   poller rescans its own fd set — so wakeups can be spurious for a given
   caller, but never lost. [timeout_ms]: negative waits forever, 0 is a
   pure probe, positive arms an engine timer whose expiry also kicks the
   shared channel. *)
let op_poll ctx t fds timeout_ms =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  let sched = ctx.Sched.sched in
  t.polls.Kperf.n <- t.polls.Kperf.n + 1;
  if fds = [] || List.length fds > Fd.max_files then err ctx Errno.einval
  else begin
    let expired = ref false in
    let blocked = ref false in
    let entered_ns = Sched.now sched in
    (* poll wait = entry to verdict (readiness, timeout, or instant
       probe); host-side histogram only, nothing charged *)
    let record_wait () =
      Kperf.Hist.record sched.Sched.h_poll_wait
        (Int64.sub (Sched.now sched) entered_ns)
    in
    let scan () =
      Sched.charge ctx (Kcost.poll_fd_check * List.length fds);
      let mask = ref 0 and bad = ref false in
      List.iteri
        (fun i fd ->
          match Fd.get t.fdt ~pid ~fd with
          | None -> bad := true
          | Some file -> if file_ready ctx file then mask := !mask lor (1 lsl i))
        fds;
      if !bad then Error Errno.ebadf else Ok !mask
    in
    let rec attempt () =
      match scan () with
      | Error e -> err ctx e
      | Ok mask when mask <> 0 ->
          if not !blocked then
            t.poll_immediate.Kperf.n <- t.poll_immediate.Kperf.n + 1;
          let nready =
            List.fold_left
              (fun n i -> if mask land (1 lsl i) <> 0 then n + 1 else n)
              0
              (List.mapi (fun i _ -> i) fds)
          in
          record_wait ();
          Sched.trace_emit_task sched ctx.Sched.task
            (Ktrace.Poll_return (pid, nready));
          Sched.finish ctx (Abi.R_int mask)
      | Ok _ when timeout_ms = 0 || !expired ->
          (if !expired then
             t.poll_timeouts.Kperf.n <- t.poll_timeouts.Kperf.n + 1
           else t.poll_immediate.Kperf.n <- t.poll_immediate.Kperf.n + 1);
          record_wait ();
          Sched.trace_emit_task sched ctx.Sched.task
            (Ktrace.Poll_return (pid, 0));
          Sched.finish ctx (Abi.R_int 0)
      | Ok _ ->
          if not !blocked then begin
            blocked := true;
            t.poll_blocked.Kperf.n <- t.poll_blocked.Kperf.n + 1;
            if timeout_ms > 0 then
              ignore
                (Sim.Engine.schedule_after (Sched.engine sched)
                   (Sim.Engine.ms timeout_ms) (fun () ->
                     expired := true;
                     Sched.poll_wake sched))
          end;
          Sched.block ctx ~chan:Task.Poll_waiters ~retry:attempt
    in
    attempt ()
  end

let op_close ctx t fd =
  charge_dispatch ctx;
  match Fd.close t.fdt ~pid:ctx.Sched.task.Task.pid ~fd with
  | Ok () -> Sched.finish ctx (Abi.R_int 0)
  | Error e -> err ctx e

let op_dup ctx t fd =
  charge_dispatch ctx;
  match Fd.dup t.fdt ~pid:ctx.Sched.task.Task.pid ~fd with
  | Ok newfd -> Sched.finish ctx (Abi.R_int newfd)
  | Error e -> err ctx e

(* fsync: commit the open journal transaction (rootfs) and drive every
   dirty block through the cache AND the device's write queue — the
   barrier, not a bare flush, is what makes fsync mean "on the medium":
   a flush alone would leave blocks parked in the SD elevator. Under the
   write-through configuration every cache is already clean and the
   barrier is free, the durability contract the paper's cache gave
   implicitly. Pipes and devices have nothing to sync. *)
let op_fsync ctx t fd =
  charge_dispatch ctx;
  match Fd.get t.fdt ~pid:ctx.Sched.task.Task.pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file -> (
      match file.Fd.kind with
      | Fd.K_file (m, _) ->
          Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
              m.Fd.m_sync ();
              Bufcache.barrier m.Fd.m_cache;
              Sched.finish ctx (Abi.R_int 0))
      | Fd.K_dev _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ ->
          Sched.finish ctx (Abi.R_int 0))

(* Checkpoint every cache, in mount order; the shutdown path (and nothing
   else) calls this with no syscall context, so the device time lands on
   virtual time directly rather than on a task. Committing here is what
   makes a clean shutdown + remount replay nothing. *)
let sync_all t =
  List.iter
    (fun (_, m) ->
      m.Fd.m_sync ();
      Bufcache.barrier m.Fd.m_cache)
    (List.rev t.mounts)

let op_mmap ctx t fd =
  charge_dispatch ctx;
  match Fd.get t.fdt ~pid:ctx.Sched.task.Task.pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file -> (
      match file.Fd.kind with
      | Fd.K_dev ops -> (
          match ops.Fd.dev_mmap with
          | Some f -> f ctx file
          | None -> err ctx Errno.einval)
      | Fd.K_file _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ ->
          err ctx Errno.einval)

(* ---- kernel-internal file access (exec's loader) ----
   Charges into [ctx] but does not finish it. *)

let read_whole ctx t path =
  match route t (resolve ctx path) with
  | To_dev _ | To_proc _ -> Error Errno.einval
  | To_fs (m, sub) ->
      Bufcache.with_ctx m.Fd.m_cache ctx (fun () ->
          Result.map_error Errno.of_fs_error
            (Result.bind (m.Fd.m_lookup sub) (fun (node, st) ->
                 node.Fd.n_read ~off:0 ~len:st.Abi.stat_size)))
