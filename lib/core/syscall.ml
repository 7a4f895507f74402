(** The syscall dispatch table — all 31 entries: the paper's 28 (§3)
    plus fsync, nice and poll ({!Abi}), gated by the
    prototype stage: a call a stage lacks returns -ENOSYS, which is how
    Table 1's feature matrix is mechanically enforced. Each gate reads
    one of {!Kconfig}'s stage predicates. *)

type services = {
  s_sched : Sched.t;
  s_config : Kconfig.t;
  s_vfs : Vfs.t;
  s_proc : Proc.t;
  s_sems : Sem.t;
  s_console : Console.t;
  s_fb : Hw.Framebuffer.t option;
}

let dispatch s ctx =
  let cfg = s.s_config in
  let need cond k = if cond then k () else Sched.fail ctx Errno.enosys in
  match ctx.Sched.call with
  (* ---- tasks & time ---- *)
  | Abi.Fork child ->
      need (Kconfig.user_kernel cfg) (fun () -> Proc.sys_fork ctx s.s_proc child)
  | Abi.Exec (path, argv) ->
      need (Kconfig.files cfg) (fun () ->
          Proc.sys_exec ctx s.s_proc path argv)
  | Abi.Exit code ->
      ctx.Sched.done_ <- true;
      Sched.do_exit ctx.Sched.sched ctx.Sched.task code
  | Abi.Wait ->
      need (Kconfig.user_kernel cfg) (fun () -> Proc.sys_wait ctx s.s_proc)
  | Abi.Kill pid ->
      need (Kconfig.user_kernel cfg) (fun () -> Proc.sys_kill ctx s.s_proc pid)
  | Abi.Getpid -> Sched.finish ctx (Abi.R_int ctx.Sched.task.Task.pid)
  | Abi.Sleep ms ->
      need (Kconfig.multitasking cfg) (fun () -> Proc.sys_sleep ctx ms)
  | Abi.Uptime -> Proc.sys_uptime ctx s.s_proc
  | Abi.Nice inc ->
      need (Kconfig.multitasking cfg) (fun () -> Proc.sys_nice ctx inc)
  | Abi.Sbrk delta ->
      need (Kconfig.user_kernel cfg) (fun () -> Proc.sys_sbrk ctx delta)
  | Abi.Cacheflush -> (
      match s.s_fb with
      | None -> Sched.fail ctx Errno.enosys
      | Some fb ->
          let rows = Hw.Framebuffer.stale_rows fb in
          Sched.charge ctx (Kcost.cache_flush_per_row * max 1 rows);
          Hw.Framebuffer.flush fb;
          let pid = ctx.Sched.task.Task.pid in
          Sched.count_frame ctx.Sched.sched pid;
          Sched.trace_emit_task ctx.Sched.sched ctx.Sched.task
            (Ktrace.Frame_present pid);
          Sched.finish ctx (Abi.R_int rows))
  (* ---- files ---- *)
  | Abi.Open (path, flags) ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_open ctx s.s_vfs path flags)
  | Abi.Close fd ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_close ctx s.s_vfs fd)
  | Abi.Read (fd, len) ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_read ctx s.s_vfs fd len)
  | Abi.Write (fd, data) ->
      (* Prototype 3's write() is hardwired to the UART (§4.3); with files
         enabled, fd 1 falls back to the console when not opened. *)
      if not (Kconfig.files cfg) then
        if Kconfig.user_kernel cfg && fd = 1 then
          Console.write ctx s.s_console data
        else Sched.fail ctx Errno.enosys
      else if
        fd = 1
        && Fd.get s.s_vfs.Vfs.fdt ~pid:ctx.Sched.task.Task.pid ~fd = None
      then Console.write ctx s.s_console data
      else Vfs.op_write ctx s.s_vfs fd data
  | Abi.Lseek (fd, off, whence) ->
      need (Kconfig.files cfg) (fun () ->
          Vfs.op_lseek ctx s.s_vfs fd off whence)
  | Abi.Dup fd ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_dup ctx s.s_vfs fd)
  | Abi.Pipe flags ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_pipe ctx s.s_vfs flags)
  | Abi.Fstat fd ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_fstat ctx s.s_vfs fd)
  | Abi.Mkdir path ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_mkdir ctx s.s_vfs path)
  | Abi.Unlink path ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_unlink ctx s.s_vfs path)
  | Abi.Chdir path ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_chdir ctx s.s_vfs path)
  | Abi.Fsync fd ->
      need (Kconfig.files cfg) (fun () -> Vfs.op_fsync ctx s.s_vfs fd)
  | Abi.Poll (fds, timeout_ms) ->
      (* poll ships with O_NONBLOCK in the desktop stage: both exist so
         event-driven apps stop spinning *)
      need (Kconfig.desktop cfg) (fun () ->
          Vfs.op_poll ctx s.s_vfs fds timeout_ms)
  | Abi.Mmap fd ->
      need (Kconfig.user_kernel cfg) (fun () ->
          if fd >= 0 && Kconfig.files cfg then
            Vfs.op_mmap ctx s.s_vfs fd
          else begin
            (* Prototype 3 has no device files: mmap is hardwired to the
               framebuffer, as exec() hardcodes the fb args (par 4.3) *)
            match s.s_fb with
            | None -> Sched.fail ctx Errno.enosys
            | Some fb -> Devfs.mmap_fb ctx fb
          end)
  (* ---- threading & sync ---- *)
  | Abi.Clone body ->
      need (Kconfig.desktop cfg) (fun () ->
          Proc.sys_clone ctx s.s_proc body)
  | Abi.Join tid ->
      need (Kconfig.desktop cfg) (fun () ->
          Proc.sys_join ctx s.s_proc tid)
  | Abi.Sem_open value ->
      need (Kconfig.desktop cfg) (fun () ->
          match Sem.sem_open s.s_sems ~pid:ctx.Sched.task.Task.pid ~value with
          | Ok id -> Sched.finish ctx (Abi.R_int id)
          | Error e -> Sched.fail ctx e)
  | Abi.Sem_post id ->
      need (Kconfig.desktop cfg) (fun () -> Sem.post ctx s.s_sems id)
  | Abi.Sem_wait id ->
      need (Kconfig.desktop cfg) (fun () -> Sem.wait ctx s.s_sems id)
  | Abi.Sem_close id ->
      need (Kconfig.desktop cfg) (fun () -> Sem.close ctx s.s_sems id)

let install s = s.s_sched.Sched.dispatch <- (fun ctx -> dispatch s ctx)
