(** The VFS: one file abstraction over xv6fs, FAT32, devfs, procfs and
    pipes (§4.4–4.5).

    Path routing is exactly VOS's: the root filesystem (xv6fs on ramdisk)
    owns "/", the FAT32 partition is mounted under "/d", and "/dev" and
    "/proc" are intercepted. File syscalls are interposed and dispatched by
    path — the pseudo-inode bridge for FatFS lives in the K_fat file kind. *)

type t = {
  sched : Sched.t;
  config : Kconfig.t;
  fdt : Fd.t;
  root : Fs.Xv6fs.t;
  root_bc : Bufcache.t;
  mutable fat_mounts : (string * Fs.Fat32.t * Bufcache.t) list;
      (** FAT32 mount points: "/d" for the SD partition (§4.5), plus any
          USB mass-storage sticks ("/usb") *)
  devfs : Devfs.t;
  procfs : Procfs.t;
  ipc : Pipe.params;  (** pipe knobs, pipe-id stream and pipe counters *)
  polls : Kperf.cell;  (** poll syscalls entered *)
  poll_immediate : Kperf.cell;  (** returned ready without blocking *)
  poll_blocked : Kperf.cell;  (** had to sleep at least once *)
  poll_timeouts : Kperf.cell;  (** returned 0 on timeout expiry *)
}

let create ~sched ~config ~fdt ~root ~root_bc ~devfs ~procfs ~ipc =
  let c = Kperf.counter sched.Sched.kperf in
  let polls = c "vos_polls_total" in
  let poll_immediate = c "vos_poll_immediate_total" in
  let poll_blocked = c "vos_poll_blocked_total" in
  let poll_timeouts = c "vos_poll_timeouts_total" in
  { sched; config; fdt; root; root_bc; fat_mounts = []; devfs; procfs; ipc;
    polls; poll_immediate; poll_blocked; poll_timeouts }

let mount_fat t ~at fat bc = t.fat_mounts <- t.fat_mounts @ [ (at, fat, bc) ]

let resolve ctx path =
  let cwd = ctx.Sched.task.Task.cwd in
  Fs.Vpath.join cwd path

type route =
  | To_dev of string
  | To_proc of string
  | To_fat of Fs.Fat32.t * Bufcache.t * string
  | To_root of string

let route t path =
  match Fs.Vpath.strip_prefix ~prefix:"/dev" path with
  | Some rest when not (String.equal rest "/") ->
      To_dev (Fs.Vpath.basename rest)
  | Some _ | None -> (
      match Fs.Vpath.strip_prefix ~prefix:"/proc" path with
      | Some rest when not (String.equal rest "/") ->
          To_proc (Fs.Vpath.basename rest)
      | Some _ | None -> (
          let fat_hit =
            List.find_map
              (fun (at, fat, bc) ->
                match Fs.Vpath.strip_prefix ~prefix:at path with
                | Some rest -> Some (To_fat (fat, bc, rest))
                | None -> None)
              t.fat_mounts
          in
          match fat_hit with Some r -> r | None -> To_root path))

let err ctx e = Sched.finish ctx (Abi.R_int (-e))

let charge_dispatch ctx =
  Sched.charge ctx (Kcost.fd_lookup + Kcost.vfs_dispatch)

(* ---- open ---- *)

let want_read flags = flags land 0x3 <> Abi.o_wronly
let want_write flags = flags land 0x3 <> Abi.o_rdonly

let open_xv6 ctx t path flags =
  Bufcache.with_ctx t.root_bc ctx (fun () ->
      let node =
        match Fs.Xv6fs.lookup t.root path with
        | Ok node -> Ok node
        | Error _ when flags land Abi.o_create <> 0 ->
            Fs.Xv6fs.create t.root path Fs.Xv6fs.Reg
        | Error e -> Error e
      in
      match node with
      | Error e -> err ctx (Errno.of_fs_error e)
      | Ok node ->
          let st = Fs.Xv6fs.stat_of t.root node in
          (* xv6 semantics: directories open read-only. A writable dir fd
             would let write(2) scribble raw dirents over the directory
             body — self-inflicted fs corruption via the syscall ABI. *)
          if st.Fs.Xv6fs.st_type = Fs.Xv6fs.Dir && want_write flags then
            err ctx Errno.eisdir
          else begin
          if flags land Abi.o_trunc <> 0 && st.Fs.Xv6fs.st_type = Fs.Xv6fs.Reg
          then Fs.Xv6fs.truncate t.root node;
          let file =
            Fd.make_file t.fdt
              ~kind:(Fd.K_xv6 (t.root, node))
              ~readable:(want_read flags) ~writable:(want_write flags)
              ~nonblock:false
          in
          (match Fd.alloc t.fdt ~pid:ctx.Sched.task.Task.pid file with
          | Ok fd -> Sched.finish ctx (Abi.R_int fd)
          | Error e -> err ctx e)
          end)

let open_fat ctx t fat bc sub flags =
  Bufcache.with_ctx bc ctx (fun () ->
          Sched.charge ctx Kcost.pseudo_inode;
          let ensure () =
            match Fs.Fat32.stat fat sub with
            | Ok st -> Ok st
            | Error _ when flags land Abi.o_create <> 0 -> (
                match Fs.Fat32.create fat sub with
                | Ok () -> Fs.Fat32.stat fat sub
                | Error e -> Error e)
            | Error e -> Error e
          in
          match ensure () with
          | Error e -> err ctx (Errno.of_fs_error e)
          | Ok st when st.Fs.Fat32.st_dir && want_write flags ->
              err ctx Errno.eisdir
          | Ok st ->
              let st =
                if
                  flags land Abi.o_trunc <> 0 && not st.Fs.Fat32.st_dir
                then begin
                  match Fs.Fat32.truncate fat sub with
                  | Ok () -> { st with Fs.Fat32.st_size = 0 }
                  | Error _ -> st
                end
                else st
              in
              let handle =
                { Fd.fat_path = sub; fat_size = st.Fs.Fat32.st_size }
              in
              let file =
                Fd.make_file t.fdt
                  ~kind:(Fd.K_fat (fat, bc, handle))
                  ~readable:(want_read flags) ~writable:(want_write flags)
                  ~nonblock:false
              in
              (match Fd.alloc t.fdt ~pid:ctx.Sched.task.Task.pid file with
              | Ok fd -> Sched.finish ctx (Abi.R_int fd)
              | Error e -> err ctx e))

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
          let file =
            Fd.make_file t.fdt ~kind:(Fd.K_dev ops)
              ~readable:(want_read flags) ~writable:(want_write flags)
              ~nonblock:(nonblock_of t flags)
          in
          (match Fd.alloc t.fdt ~pid:ctx.Sched.task.Task.pid file with
          | Ok fd -> Sched.finish ctx (Abi.R_int fd)
          | Error e -> err ctx e))
  | To_proc name -> (
      match Procfs.ops t.procfs name with
      | None -> err ctx Errno.enoent
      | Some ops ->
          let file =
            Fd.make_file t.fdt ~kind:(Fd.K_dev ops) ~readable:true
              ~writable:(want_write flags) ~nonblock:(nonblock_of t flags)
          in
          (match Fd.alloc t.fdt ~pid:ctx.Sched.task.Task.pid file with
          | Ok fd -> Sched.finish ctx (Abi.R_int fd)
          | Error e -> err ctx e))
  | To_fat (fat, bc, sub) -> open_fat ctx t fat bc sub flags
  | To_root p -> open_xv6 ctx t p flags

(* ---- read ---- *)

(* Directory reads return a text listing, one name per line; callers stat
   entries individually for sizes (as the xv6 ls does with dirents). *)
let xv6_dir_listing fsys node =
  match Fs.Xv6fs.readdir fsys node with
  | Error _ -> ""
  | Ok entries ->
      String.concat "" (List.map (fun (name, _) -> name ^ "\n") entries)

(* Upper bound on one read(2) transfer. A hostile multi-GB [len] must
   never size a host allocation: regular files clamp to the readable
   span below, and this cap backstops every path (a sparse file's size
   can far exceed the data present). Short reads are legal, and no VOS
   program issues single transfers anywhere near this large. *)
let max_read_bytes = 8 * 1024 * 1024

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
        | Fd.K_xv6 (fsys, node) ->
            Bufcache.with_ctx t.root_bc ctx (fun () ->
                let st = Fs.Xv6fs.stat_of fsys node in
                match st.Fs.Xv6fs.st_type with
                | Fs.Xv6fs.Dir ->
                    let text = xv6_dir_listing fsys node in
                    let off = min file.Fd.off (String.length text) in
                    let n = min len (String.length text - off) in
                    file.Fd.off <- off + n;
                    Sched.finish ctx
                      (Abi.R_bytes (Bytes.of_string (String.sub text off n)))
                | Fs.Xv6fs.Reg | Fs.Xv6fs.Dev -> (
                    (* bound the allocation to the readable span before
                       the fs layer sizes its output buffer *)
                    let len =
                      min len (max 0 (st.Fs.Xv6fs.st_size - file.Fd.off))
                    in
                    match Fs.Xv6fs.readi fsys node ~off:file.Fd.off ~len with
                    | Error e -> err ctx (Errno.of_fs_error e)
                    | Ok data ->
                        file.Fd.off <- file.Fd.off + Bytes.length data;
                        Sched.charge ctx
                          (Kcost.copy_cycles ~bytes:(Bytes.length data));
                        Sched.finish ctx (Abi.R_bytes data)))
        | Fd.K_fat (fat, bc, handle) ->
            Bufcache.with_ctx bc ctx (fun () ->
                Sched.charge ctx Kcost.pseudo_inode;
                match Fs.Fat32.stat fat handle.Fd.fat_path with
                | Error e -> err ctx (Errno.of_fs_error e)
                | Ok st when st.Fs.Fat32.st_dir -> (
                    match Fs.Fat32.readdir fat handle.Fd.fat_path with
                    | Error e -> err ctx (Errno.of_fs_error e)
                    | Ok entries ->
                        let text =
                          String.concat ""
                            (List.map (fun (name, _) -> name ^ "\n") entries)
                        in
                        let off = min file.Fd.off (String.length text) in
                        let n = min len (String.length text - off) in
                        file.Fd.off <- off + n;
                        Sched.finish ctx
                          (Abi.R_bytes (Bytes.of_string (String.sub text off n))))
                | Ok st -> (
                    let len =
                      min len (max 0 (st.Fs.Fat32.st_size - file.Fd.off))
                    in
                    match
                      Fs.Fat32.read_file fat handle.Fd.fat_path ~off:file.Fd.off
                        ~len
                    with
                    | Error e -> err ctx (Errno.of_fs_error e)
                    | Ok data ->
                        file.Fd.off <- file.Fd.off + Bytes.length data;
                        Sched.charge ctx
                          (Kcost.copy_cycles ~bytes:(Bytes.length data));
                        Sched.finish ctx (Abi.R_bytes data)))
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
        | Fd.K_xv6 (fsys, node) ->
            Bufcache.with_ctx t.root_bc ctx (fun () ->
                match Fs.Xv6fs.writei fsys node ~off:file.Fd.off ~data with
                | Error e -> err ctx (Errno.of_fs_error e)
                | Ok n ->
                    file.Fd.off <- file.Fd.off + n;
                    Sched.charge ctx (Kcost.copy_cycles ~bytes:n);
                    Sched.finish ctx (Abi.R_int n))
        | Fd.K_fat (fat, bc, handle) ->
            Bufcache.with_ctx bc ctx (fun () ->
                Sched.charge ctx Kcost.pseudo_inode;
                match
                  Fs.Fat32.write_file fat handle.Fd.fat_path ~off:file.Fd.off
                    ~data
                with
                | Error e -> err ctx (Errno.of_fs_error e)
                | Ok n ->
                    file.Fd.off <- file.Fd.off + n;
                    handle.Fd.fat_size <- max handle.Fd.fat_size file.Fd.off;
                    Sched.charge ctx (Kcost.copy_cycles ~bytes:n);
                    Sched.finish ctx (Abi.R_int n))
      end

(* ---- the rest of the file syscalls ---- *)

let file_size file =
  match file.Fd.kind with
  | Fd.K_xv6 (fsys, node) -> (Fs.Xv6fs.stat_of fsys node).Fs.Xv6fs.st_size
  | Fd.K_fat (fat, _, handle) -> (
      match Fs.Fat32.stat fat handle.Fd.fat_path with
      | Ok st -> st.Fs.Fat32.st_size
      | Error _ -> handle.Fd.fat_size)
  | Fd.K_dev _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ -> 0

let op_lseek ctx t fd offset whence =
  charge_dispatch ctx;
  let pid = ctx.Sched.task.Task.pid in
  match Fd.get t.fdt ~pid ~fd with
  | None -> err ctx Errno.ebadf
  | Some file -> (
      match file.Fd.kind with
      | Fd.K_pipe_read _ | Fd.K_pipe_write _ -> err ctx Errno.espipe
      | Fd.K_xv6 _ | Fd.K_fat _ | Fd.K_dev _ ->
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
              else file_size file
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
      | Fd.K_xv6 (fsys, node) ->
          Bufcache.with_ctx t.root_bc ctx (fun () ->
              let st = Fs.Xv6fs.stat_of fsys node in
              Sched.finish ctx
                (Abi.R_stat
                   {
                     Abi.stat_type =
                       (match st.Fs.Xv6fs.st_type with
                       | Fs.Xv6fs.Dir -> Abi.T_dir
                       | Fs.Xv6fs.Reg -> Abi.T_file
                       | Fs.Xv6fs.Dev -> Abi.T_dev);
                     stat_size = st.Fs.Xv6fs.st_size;
                     stat_nlink = st.Fs.Xv6fs.st_nlink;
                     stat_ino = st.Fs.Xv6fs.st_inum;
                   }))
      | Fd.K_fat (fat, _, handle) -> (
          Sched.charge ctx Kcost.pseudo_inode;
          match Fs.Fat32.stat fat handle.Fd.fat_path with
          | Error e -> err ctx (Errno.of_fs_error e)
          | Ok st ->
              Sched.finish ctx
                (Abi.R_stat
                   {
                     Abi.stat_type =
                       (if st.Fs.Fat32.st_dir then Abi.T_dir else Abi.T_file);
                     stat_size = st.Fs.Fat32.st_size;
                     stat_nlink = 1;
                     stat_ino = st.Fs.Fat32.st_cluster;
                   }))
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

let op_mkdir ctx t path =
  charge_dispatch ctx;
  let path = resolve ctx path in
  match route t path with
  | To_dev _ | To_proc _ -> err ctx Errno.eperm
  | To_fat (fat, bc, sub) ->
      Bufcache.with_ctx bc ctx (fun () ->
          match Fs.Fat32.mkdir fat sub with
          | Ok () -> Sched.finish ctx (Abi.R_int 0)
          | Error e -> err ctx (Errno.of_fs_error e))
  | To_root p ->
      Bufcache.with_ctx t.root_bc ctx (fun () ->
          match Fs.Xv6fs.create t.root p Fs.Xv6fs.Dir with
          | Ok _ -> Sched.finish ctx (Abi.R_int 0)
          | Error e -> err ctx (Errno.of_fs_error e))

let op_unlink ctx t path =
  charge_dispatch ctx;
  let path = resolve ctx path in
  match route t path with
  | To_dev _ | To_proc _ -> err ctx Errno.eperm
  | To_fat (fat, bc, sub) ->
      Bufcache.with_ctx bc ctx (fun () ->
          match Fs.Fat32.unlink fat sub with
          | Ok () -> Sched.finish ctx (Abi.R_int 0)
          | Error e -> err ctx (Errno.of_fs_error e))
  | To_root p ->
      Bufcache.with_ctx t.root_bc ctx (fun () ->
          match Fs.Xv6fs.unlink t.root p with
          | Ok () -> Sched.finish ctx (Abi.R_int 0)
          | Error e -> err ctx (Errno.of_fs_error e))

let op_chdir ctx t path =
  charge_dispatch ctx;
  let path = resolve ctx path in
  let is_dir =
    match route t path with
    | To_dev _ | To_proc _ -> false
    | To_fat (fat, bc, sub) ->
        Bufcache.with_ctx bc ctx (fun () ->
            match Fs.Fat32.stat fat sub with
            | Ok st -> st.Fs.Fat32.st_dir
            | Error _ -> false)
    | To_root p ->
        Bufcache.with_ctx t.root_bc ctx (fun () ->
            match Fs.Xv6fs.lookup t.root p with
            | Ok node ->
                (Fs.Xv6fs.stat_of t.root node).Fs.Xv6fs.st_type = Fs.Xv6fs.Dir
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
  | Fd.K_xv6 _ | Fd.K_fat _ -> true (* regular files never block *)

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
      | Fd.K_xv6 _ ->
          Bufcache.with_ctx t.root_bc ctx (fun () ->
              ignore (Fs.Xv6fs.commit t.root);
              Bufcache.barrier t.root_bc;
              Sched.finish ctx (Abi.R_int 0))
      | Fd.K_fat (_, bc, _) ->
          Bufcache.with_ctx bc ctx (fun () ->
              Bufcache.barrier bc;
              Sched.finish ctx (Abi.R_int 0))
      | Fd.K_dev _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ ->
          Sched.finish ctx (Abi.R_int 0))

(* Checkpoint every cache; the shutdown path (and nothing else) calls this
   with no syscall context, so the device time lands on virtual time
   directly rather than on a task. Committing here is what makes a clean
   shutdown + remount replay nothing. *)
let sync_all t =
  ignore (Fs.Xv6fs.commit t.root);
  Bufcache.barrier t.root_bc;
  List.iter (fun (_, _, bc) -> Bufcache.barrier bc) t.fat_mounts

let fat_caches t = List.map (fun (_, _, bc) -> bc) t.fat_mounts

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
      | Fd.K_xv6 _ | Fd.K_fat _ | Fd.K_pipe_read _ | Fd.K_pipe_write _ ->
          err ctx Errno.einval)

(* ---- kernel-internal file access (exec's loader) ----
   Charges into [ctx] but does not finish it. *)

let read_whole ctx t path =
  let path = resolve ctx path in
  match route t path with
  | To_dev _ | To_proc _ -> Error Errno.einval
  | To_fat (fat, bc, sub) ->
      Bufcache.with_ctx bc ctx (fun () ->
          match Fs.Fat32.stat fat sub with
          | Error e -> Error (Errno.of_fs_error e)
          | Ok st -> (
              match
                Fs.Fat32.read_file fat sub ~off:0 ~len:st.Fs.Fat32.st_size
              with
              | Ok data -> Ok data
              | Error e -> Error (Errno.of_fs_error e)))
  | To_root p ->
      Bufcache.with_ctx t.root_bc ctx (fun () ->
          match Fs.Xv6fs.lookup t.root p with
          | Error e -> Error (Errno.of_fs_error e)
          | Ok node -> (
              let st = Fs.Xv6fs.stat_of t.root node in
              match
                Fs.Xv6fs.readi t.root node ~off:0 ~len:st.Fs.Xv6fs.st_size
              with
              | Ok data -> Ok data
              | Error e -> Error (Errno.of_fs_error e)))
