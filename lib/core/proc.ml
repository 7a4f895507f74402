(** Process and thread syscalls: fork, exec, wait, kill, clone, join,
    sbrk, sleep.

    The cost structure follows the paper's findings: fork is eager — it
    copies every resident page, which is why Figure 9 shows it much slower
    than production OSes with lazy replication; exec's cost scales with the
    loaded image; clone(CLONE_VM) shares the mm and so is cheap. *)

type t = {
  sched : Sched.t;
  fdt : Fd.t;
  vfs : Vfs.t;
  sems : Sem.t;
  progs : (string, string list -> int) Hashtbl.t;
  kalloc : Kalloc.t;
}

let create ~sched ~fdt ~vfs ~sems ~kalloc =
  { sched; fdt; vfs; sems; progs = Hashtbl.create 32; kalloc }

let register_program t name main = Hashtbl.replace t.progs name main

let sys_fork ctx t child_main =
  let parent = ctx.Sched.task in
  match parent.Task.vm with
  | None ->
      (* kernel task forking: plain spawn *)
      let child =
        Sched.spawn t.sched ~name:parent.Task.name ~kind:parent.Task.kind
          ~parent:parent.Task.pid child_main
      in
      Sched.charge ctx Kcost.fork_base;
      Sched.kcheck_audit t.sched ~reason:(fun () ->
          Printf.sprintf "fork %d -> %d" parent.Task.pid child.Task.pid);
      Sched.finish ctx (Abi.R_int child.Task.pid)
  | Some vm -> (
      match Vm.fork_copy vm with
      | Error _ -> Sched.fail ctx Errno.enomem
      | Ok (child_vm, pages_copied) ->
          Sched.charge ctx
            (Kcost.fork_base + (Kcost.fork_per_page * pages_copied));
          let child =
            Sched.spawn t.sched ~name:parent.Task.name ~kind:Task.User
              ~vm:child_vm ~parent:parent.Task.pid child_main
          in
          child.Task.cwd <- parent.Task.cwd;
          Fd.clone_table t.fdt ~parent:parent.Task.pid ~child:child.Task.pid;
          Sem.fork t.sems ~parent:parent.Task.pid ~child:child.Task.pid;
          Sched.kcheck_audit t.sched ~reason:(fun () ->
              Printf.sprintf "fork %d -> %d" parent.Task.pid child.Task.pid);
          Sched.finish ctx (Abi.R_int child.Task.pid))

let sys_exec ctx t path argv =
  match Vfs.read_whole ctx t.vfs path with
  | Error e -> Sched.fail ctx e
  | Ok image -> (
      match Velf.parse image with
      | Error _ -> Sched.fail ctx Errno.einval
      | Ok velf -> (
          match Hashtbl.find_opt t.progs velf.Velf.prog_name with
          | None -> Sched.fail ctx Errno.enoent
          | Some main ->
              let task = ctx.Sched.task in
              let pages = Velf.code_pages velf in
              (match task.Task.vm with
              | Some old -> Vm.destroy old
              | None -> ());
              (match Vm.create t.kalloc ~code_pages:pages with
              | Error _ -> Sched.fail ctx Errno.enomem
              | Ok vm ->
                  task.Task.vm <- Some vm;
                  task.Task.name <- velf.Velf.prog_name;
                  Sched.charge ctx
                    (Kcost.exec_base + (Kcost.exec_per_page * pages));
                  Sched.exec_replace ctx (fun () -> main argv))))

let sys_wait ctx t =
  let parent = ctx.Sched.task in
  let rec attempt () =
    if parent.Task.children = [] then Sched.fail ctx Errno.echild
    else begin
      let zombie =
        List.find_map
          (fun pid ->
            match Sched.task_by_pid t.sched pid with
            | Some child when child.Task.state = Task.Zombie -> Some child
            | Some _ | None -> None)
          parent.Task.children
      in
      match zombie with
      | Some child ->
          Sched.charge ctx Kcost.wait_reap;
          Sched.reap t.sched child;
          Sched.finish ctx (Abi.R_int child.Task.pid)
      | None ->
          Sched.block ctx ~chan:(Task.Children_of parent.Task.pid)
            ~retry:attempt
    end
  in
  attempt ()

(* kill(2), VOS dialect: there are no signals and no process groups, so
   kill is always terminal and only positive pids address anything —
   pid <= 0 (POSIX's group/broadcast forms) is EINVAL, not a wildcard
   massacre. A zombie has already exited: a second kill reports ESRCH
   rather than pretending to deliver. Self-kill is legal; the killed
   flag is honored at the next preemption point, after this syscall
   returns 0 to the (now doomed) caller. *)
let sys_kill ctx t pid =
  if pid <= 0 then Sched.fail ctx Errno.einval
  else
    match Sched.task_by_pid t.sched pid with
    | None -> Sched.fail ctx Errno.esrch
    | Some victim when victim.Task.state = Task.Zombie -> Sched.fail ctx Errno.esrch
    | Some victim ->
        Sched.charge ctx Kcost.wakeup;
        Sched.force_kill t.sched victim;
        Sched.finish ctx (Abi.R_int 0)

let sys_clone ctx t thread_main =
  let parent = ctx.Sched.task in
  let vm = Option.map Vm.share parent.Task.vm in
  Sched.charge ctx Kcost.clone_base;
  let child =
    Sched.spawn t.sched
      ~name:(parent.Task.name ^ "-thr")
      ~kind:parent.Task.kind ?vm ~parent:parent.Task.pid thread_main
  in
  child.Task.cwd <- parent.Task.cwd;
  Fd.share_table t.fdt ~parent:parent.Task.pid ~child:child.Task.pid;
  Sem.share t.sems ~parent:parent.Task.pid ~child:child.Task.pid;
  Sched.kcheck_audit t.sched ~reason:(fun () ->
      Printf.sprintf "clone %d -> %d" parent.Task.pid child.Task.pid);
  Sched.finish ctx (Abi.R_int child.Task.pid)

let sys_join ctx t tid =
  let rec attempt () =
    match Sched.task_by_pid t.sched tid with
    | None -> Sched.fail ctx Errno.esrch
    | Some thread when thread.Task.state = Task.Zombie ->
        let code = thread.Task.exit_code in
        Sched.charge ctx Kcost.wait_reap;
        Sched.reap t.sched thread;
        Sched.finish ctx (Abi.R_int code)
    | Some _ ->
        Sched.block ctx ~chan:(Task.Exit_of tid) ~retry:attempt
  in
  attempt ()

let sys_sbrk ctx delta =
  let task = ctx.Sched.task in
  match task.Task.vm with
  | None -> Sched.fail ctx Errno.enomem
  | Some vm -> (
      match Vm.sbrk vm delta with
      | Error _ -> Sched.fail ctx Errno.enomem
      | Ok (old_brk, new_pages) ->
          Sched.charge ctx (Kcost.sbrk_per_page * max 1 new_pages);
          Sched.finish ctx (Abi.R_int old_brk))

let sys_sleep ctx ms =
  if ms <= 0 then Sched.finish ctx (Abi.R_int 0)
  else Sched.finish_after ctx ~delay_ns:(Sim.Engine.ms ms) (Abi.R_int 0)

let sys_nice ctx inc =
  let task = ctx.Sched.task in
  task.Task.nice <- max (-20) (min 19 inc);
  Sched.charge ctx Kcost.sched_pick;
  Sched.finish ctx (Abi.R_int task.Task.nice)

let sys_uptime ctx t =
  let ms = Int64.to_int (Int64.div (Hw.Board.now t.sched.Sched.board) 1_000_000L) in
  Sched.finish ctx (Abi.R_int ms)
