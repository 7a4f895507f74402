(** The scheduling policy: which task runs next, for how long, and which
    task a steal or the balance pass moves where. It is pure over the
    queues; {!Sched}, the mechanism, dispatches, charges and traces.

    The policy is data: a {!sched_class} lists one quantum per priority
    level and says whether nice scales it, and each core's runqueue
    holds one FIFO per level. {!Kconfig.sched_policy} picks the paper's
    round-robin (default — keeps every paper number bit-identical),
    which is the one-level case (a fixed quantum, nice ignored), or a
    four-level MLFQ with nice-scaled quanta, demotion on quantum expiry,
    a sleeper boost and periodic anti-starvation boosts. These run on
    every wakeup, dispatch and tick, so they build no closures and no
    options beyond what [Queue] itself returns. *)

(** A scheduling class: one quantum per priority level (ticks, level 0
    first) and whether nice scales it. A task's level is its
    [Task.mlfq_level]; smaller runs first. *)
type sched_class = {
  sc_name : string;
  sc_quanta : int array;
  sc_nice : bool;
}

(* The paper's round-robin is MLFQ with one level: demotion and the
   boosts have nowhere to move a task, so its one FIFO keeps arrival
   order. *)
let rr_class =
  { sc_name = "rr"; sc_quanta = [| Task.default_quantum |]; sc_nice = false }

(* Interactive levels run short; batch work sinks to the long slices. *)
let mlfq_class =
  { sc_name = "mlfq"; sc_quanta = [| 2; 4; 8; 16 |]; sc_nice = true }
let boost_ticks = 100  (* periodic anti-starvation boost, per core *)

let class_of_policy = function
  | Kconfig.Sched_rr -> rr_class
  | Kconfig.Sched_mlfq -> mlfq_class

(** One core's runqueue: one FIFO per level; index 0 runs first. *)
type t = Task.t Queue.t array

let create cls : t = Array.map (fun _ -> Queue.create ()) cls.sc_quanta

let length (rq : t) =
  let n = ref 0 in
  for l = 0 to Array.length rq - 1 do
    n := !n + Queue.length rq.(l)
  done;
  !n

(* Wakeup, arrival or preemption: the back of the task's own level. A
   level is always in range: it is only ever reset to 0 or demoted by
   [demote], which stops at the last level, and every core of a kernel
   shares one class. *)
let add (rq : t) task = Queue.add task rq.(task.Task.mlfq_level)

(* The first non-empty level from [l] on, walking by [step]; -1 if none. *)
let rec find (rq : t) l step =
  if l < 0 || l >= Array.length rq then -1
  else if Queue.is_empty rq.(l) then find rq (l + step) step
  else l

(* The most urgent queued level, or -1 when the queue is empty. *)
let best rq = find rq 0 1

let pick (rq : t) =
  match best rq with -1 -> None | l -> Queue.take_opt rq.(l)

(* The victim side of stealing and balancing takes batch work first:
   interactive tasks stay cache-hot. *)
let steal (rq : t) =
  match find rq (Array.length rq - 1) (-1) with
  | -1 -> None
  | l -> Queue.take_opt rq.(l)

(* Ticks until preemption. Nice scaling: -20 doubles the slice, +19
   shrinks it to a tick. *)
let quantum cls task =
  let base = cls.sc_quanta.(task.Task.mlfq_level) in
  if cls.sc_nice then max 1 (base * (20 - task.Task.nice) / 20) else base

(* Demotion: a task that used its whole slice drops a level. *)
let demote (rq : t) task =
  task.Task.mlfq_level <- min (task.Task.mlfq_level + 1) (Array.length rq - 1)

(* Anti-starvation: every queued task goes back to level 0, behind the
   tasks already there, each level keeping its order. *)
let boost (rq : t) =
  for l = 1 to Array.length rq - 1 do
    Queue.iter (fun task -> task.Task.mlfq_level <- 0) rq.(l);
    Queue.transfer rq.(l) rq.(0)
  done

(* The queue a pick-time steal by core [thief] takes from: the first of
   the longest other queues among the [active] first, or -1 when every
   other queue is empty. *)
let steal_victim (rqs : t array) ~active ~thief =
  let victim = ref (-1) and longest = ref 0 in
  for i = 0 to active - 1 do
    let n = length rqs.(i) in
    if i <> thief && n > !longest then begin
      victim := i;
      longest := n
    end
  done;
  !victim

(* The balance pass over the [active] first queues: while the deepest
   (the first such) is more than one deeper than the shallowest (the
   first such), steal a task from it, add it to the shallowest and tell
   [moved] the destination's index and the task. *)
let rec balance (rqs : t array) ~active moved =
  let busiest = ref 0 and idlest = ref 0 in
  for i = 1 to active - 1 do
    let n = length rqs.(i) in
    if n > length rqs.(!busiest) then busiest := i;
    if n < length rqs.(!idlest) then idlest := i
  done;
  if length rqs.(!busiest) > length rqs.(!idlest) + 1 then
    match steal rqs.(!busiest) with
    | Some task ->
        add rqs.(!idlest) task;
        moved !idlest task;
        balance rqs ~active moved
    | None -> ()
