(** Kernel semaphores (Prototype 5, §4.5).

    The primitive behind the threading syscalls: user-level mutexes and
    condition variables are built on these in the user library, exactly as
    the paper describes.

    Reference counts track every pid holding the semaphore open: fork
    duplicates the parent's holds (so a child's sem_close no longer frees
    the parent's semaphore out from under it), task exit drops whatever
    the task still held. CLONE_VM threads share the process's holds the
    way they share the fd table. *)

type sem = {
  sem_id : int;
  mutable value : int; [@locked_by "semlock"]
  mutable refs : int; [@locked_by "semlock"]
  chan : Task.chan;
}

(** What a process holds open, shared by its CLONE_VM threads the way the
    fd table is (a thread's sem_close closes for all; the last sharer's
    exit releases the holds). *)
type holds = {
  mutable ids : int list; [@locked_by "semlock"]
  mutable sharers : int; [@locked_by "semlock"]
}

(* [semlock] is a discipline-only leaf lock (no [~kcheck], no trace
   events) over values, refcounts and hold lists; windows never enclose
   the wake paths, which resume blocked waiters synchronously. *)
type t = {
  sched : Sched.t;
  sems : (int, sem) Hashtbl.t;
  held : (int, holds) Hashtbl.t;  (** pid -> held sem ids, multiplicity *)
  mutable next_id : int;
  semlock : Spinlock.t;
}

let create sched =
  {
    sched;
    sems = Hashtbl.create 16;
    held = Hashtbl.create 16;
    next_id = 1;
    semlock = Spinlock.create ~trace:sched.Sched.trace "semlock";
  }

let holds_of t pid =
  match Hashtbl.find_opt t.held pid with
  | Some h -> h
  | None ->
      let h = { ids = []; sharers = 1 } in
      Hashtbl.replace t.held pid h;
      h

(* Remove one instance of [id] from [pid]'s holds. *)
let drop_hold t ~pid id =
  match Hashtbl.find_opt t.held pid with
  | None -> ()
  | Some h ->
      let rec remove_first = function
        | [] -> []
        | x :: rest when x = id -> rest
        | x :: rest -> x :: remove_first rest
      in
      Spinlock.protect t.semlock (fun () -> h.ids <- remove_first h.ids)

let sem_open t ~pid ~value =
  if value < 0 then Error Errno.einval
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.sems id
      { sem_id = id; value; refs = 1; chan = Task.Sem_count id };
    let h = holds_of t pid in
    Spinlock.protect t.semlock (fun () -> h.ids <- id :: h.ids);
    Ok id
  end

let find t id = Hashtbl.find_opt t.sems id

let post ctx t id =
  Sched.charge ctx Kcost.sem_op;
  match find t id with
  | None -> Sched.finish ctx (Abi.R_int (-Errno.einval))
  | Some sem ->
      Spinlock.protect t.semlock (fun () -> sem.value <- sem.value + 1);
      Sched.charge ctx Kcost.wakeup;
      let woken = Sched.wake_one t.sched sem.chan in
      Sched.trace_emit_task t.sched ctx.Sched.task
        (Ktrace.Sem_wake (Option.value ~default:(-1) woken, id));
      Sched.finish ctx (Abi.R_int 0)

let wait ctx t id =
  Sched.charge ctx Kcost.sem_op;
  (* re-resolve the id on every wakeup, not just at entry: the semaphore
     can be closed while we sleep, and holding on to the stale [sem]
     would park us forever on a channel nothing will post to again *)
  let rec attempt () =
    match find t id with
    | None -> Sched.finish ctx (Abi.R_int (-Errno.einval))
    | Some sem ->
        if sem.value > 0 then begin
          Spinlock.protect t.semlock (fun () -> sem.value <- sem.value - 1);
          Sched.finish ctx (Abi.R_int 0)
        end
        else begin
          Sched.trace_emit_task t.sched ctx.Sched.task
            (Ktrace.Sem_block (ctx.Sched.task.Task.pid, id));
          Sched.block ctx ~chan:sem.chan ~retry:attempt
        end
  in
  attempt ()

let release t sem =
  let remaining =
    Spinlock.protect t.semlock (fun () ->
        sem.refs <- sem.refs - 1;
        sem.refs)
  in
  if remaining <= 0 then begin
    Hashtbl.remove t.sems sem.sem_id;
    (* the id is dead: waiters must rescan and fail with EINVAL instead
       of sleeping on the orphaned channel *)
    Sched.wake_all t.sched sem.chan
  end

let close ctx t id =
  match find t id with
  | None -> Sched.finish ctx (Abi.R_int (-Errno.einval))
  | Some sem ->
      drop_hold t ~pid:ctx.Sched.task.Task.pid id;
      release t sem;
      Sched.finish ctx (Abi.R_int 0)

(* fork: the child gets its own copy of the parent's holds, each hold a
   new reference — the lifetime fix: before this, a fork'd child's
   sem_close dropped the parent's only reference. *)
let fork t ~parent ~child =
  match Hashtbl.find_opt t.held parent with
  | None -> ()
  | Some h ->
      let live =
        Spinlock.protect t.semlock (fun () ->
            List.filter_map
              (fun id ->
                match find t id with
                | Some sem ->
                    sem.refs <- sem.refs + 1;
                    Some id
                | None -> None)
              h.ids)
      in
      Hashtbl.replace t.held child { ids = live; sharers = 1 }

(* clone(CLONE_VM): threads share the process's holds. *)
let share t ~parent ~child =
  let h = holds_of t parent in
  Spinlock.protect t.semlock (fun () -> h.sharers <- h.sharers + 1);
  Hashtbl.replace t.held child h

(* Task exit: the last sharer releases everything still held. The holds
   are detached inside the window; the releases (which can wake waiters)
   run after it. *)
let task_exit t ~pid =
  match Hashtbl.find_opt t.held pid with
  | None -> ()
  | Some h ->
      let to_release =
        Spinlock.protect t.semlock (fun () ->
            h.sharers <- h.sharers - 1;
            if h.sharers > 0 then []
            else begin
              let ids = h.ids in
              h.ids <- [];
              ids
            end)
      in
      List.iter
        (fun id ->
          match find t id with Some sem -> release t sem | None -> ())
        to_release;
      Hashtbl.remove t.held pid

(* ---- kcheck support ---- *)

(* The pids with [id] open: the candidate wakers of its channel for the
   blocked-task deadlock walk (only an opener plausibly posts it). *)
let holders t id =
  Hashtbl.fold
    (fun pid h acc -> if List.mem id h.ids then pid :: acc else acc)
    t.held []

(* Re-derive every semaphore's refcount from the holds table. CLONE_VM
   threads share one holds struct, so each distinct struct contributes
   its hold multiplicity once — which is exactly the sharing the PR-3
   lifetime fixes established. *)
let audit t =
  let structs =
    Hashtbl.fold
      (fun _ h acc -> if List.memq h acc then acc else h :: acc)
      t.held []
  in
  Hashtbl.fold
    (fun id sem problems ->
      let derived =
        List.fold_left
          (fun n h ->
            n + List.length (List.filter (fun i -> i = id) h.ids))
          0 structs
      in
      if derived <> sem.refs then
        Printf.sprintf "sem %d: refs=%d but %d held across tasks" id sem.refs
          derived
        :: problems
      else problems)
    t.sems []
