(** The self-hosted debug monitor (§5.1).

    The real VOS programs ARMv8 debug registers (DBGBCR/DBGWCR) for
    breakpoints, watchpoints and single-stepping. The simulation's program
    counter is the shadow-stack label stream ({!Abi.Frame_mark}), so:

    - a {e breakpoint} stops a task when it enters a named frame;
    - a {e syscall watchpoint} stops a task when it issues a named syscall
      (the moral equivalent of a watchpoint on kernel entry);
    - {e single-step} stops at each of the next N frame entries.

    A stopped task is parked on its debug channel; [inspect] renders its
    state and [resume] lets it run. *)

type stop_reason = Breakpoint of string | Watchpoint of string | Step

type t = {
  sched : Sched.t;
  mutable breakpoints : string list;
  mutable sys_watchpoints : string list;
  mutable stepping : (int * int) list;  (** pid, remaining steps *)
  mutable stopped : (int * stop_reason) list;  (** pid -> why *)
  mutable hits : int;
  reader : Ktrace.reader;
      (** consuming cursor into the trace rings, same mechanism as the
          /proc/ktrace trace-pipe — the monitor no longer snapshots the
          whole ring with [Ktrace.dump] *)
  mutable recent : Ktrace.entry list;  (** newest first, bounded *)
}

let recent_cap = 64

(* Pull everything the rings have accumulated since the last look into
   the bounded recent-events window. Events the cursor lost to ring
   overwrite are counted by the reader itself. *)
let drain t =
  let rec loop () =
    match Ktrace.read_reader t.reader ~max:256 with
    | [] -> ()
    | es ->
        t.recent <- List.rev_append es t.recent;
        loop ()
  in
  loop ();
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  t.recent <- take recent_cap t.recent

let set_breakpoint t label =
  if not (List.mem label t.breakpoints) then
    t.breakpoints <- label :: t.breakpoints

let watch_syscall t name =
  if not (List.mem name t.sys_watchpoints) then
    t.sys_watchpoints <- name :: t.sys_watchpoints

let unwatch_syscall t name =
  t.sys_watchpoints <-
    List.filter (fun n -> not (String.equal n name)) t.sys_watchpoints

let step t ~pid ~count =
  t.stepping <- (pid, count) :: List.remove_assoc pid t.stepping

(* Called by the scheduler at every frame entry; true = stop the task. *)
let check_frame t task label =
  let pid = task.Task.pid in
  let hit_bp = List.mem label t.breakpoints in
  let hit_step =
    match List.assoc_opt pid t.stepping with
    | Some n when n > 0 ->
        let n = n - 1 in
        t.stepping <- (pid, n) :: List.remove_assoc pid t.stepping;
        true
    | Some _ | None -> false
  in
  if hit_bp || hit_step then begin
    t.hits <- t.hits + 1;
    t.stopped <-
      (pid, if hit_bp then Breakpoint label else Step)
      :: List.remove_assoc pid t.stopped;
    true
  end
  else false

(* Called by the dispatcher at syscall entry; true = stop. *)
let check_syscall t task name =
  if List.mem name t.sys_watchpoints then begin
    t.hits <- t.hits + 1;
    t.stopped <- (task.Task.pid, Watchpoint name) :: List.remove_assoc task.Task.pid t.stopped;
    true
  end
  else false

let create sched =
  let t =
    {
      sched;
      breakpoints = [];
      sys_watchpoints = [];
      stepping = [];
      stopped = [];
      hits = 0;
      reader = Ktrace.new_reader sched.Sched.trace;
      recent = [];
    }
  in
  sched.Sched.frame_hook <- Some (fun task label -> check_frame t task label);
  sched.Sched.syscall_hook <- Some (fun task name -> check_syscall t task name);
  t

let stopped_tasks t = List.map fst t.stopped

let inspect t pid =
  match Sched.task_by_pid t.sched pid with
  | None -> Printf.sprintf "debugmon: no task %d" pid
  | Some task ->
      let why =
        match List.assoc_opt pid t.stopped with
        | Some (Breakpoint l) -> "breakpoint " ^ l
        | Some (Watchpoint s) -> "watchpoint sys_" ^ s
        | Some Step -> "single-step"
        | None -> "running"
      in
      drain t;
      let trace_tail =
        match t.recent with
        | [] -> ""
        | es ->
            let shown =
              let rec take n = function
                | [] -> []
                | _ when n = 0 -> []
                | x :: tl -> x :: take (n - 1) tl
              in
              List.rev (take 8 es)
            in
            let lost = Ktrace.reader_lost t.reader in
            Printf.sprintf "\nrecent trace%s:\n%s"
              (if lost > 0 then Printf.sprintf " (%d lost)" lost else "")
              (String.concat "\n" (List.map Ktrace.format_entry shown))
      in
      Printf.sprintf "pid %d (%s) state=%s stop=%s cpu=%.2fms\n%s%s" pid
        task.Task.name (Task.state_name task) why
        (Int64.to_float task.Task.cpu_ns /. 1e6)
        (Unwind.render_task task)
        trace_tail

let resume t pid =
  t.stopped <- List.remove_assoc pid t.stopped;
  Sched.wake_all t.sched (Task.Debug_stop pid)

let hits t = t.hits
