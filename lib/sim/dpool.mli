(** Pool of worker domains for parallel event batches.

    Workers are spawned once and parked between batches; {!run} submits a
    closed batch of tasks, claims tasks from the batch's shared index
    alongside the workers, and returns when every task has executed.
    Tasks must not submit further tasks, and the pool must be driven from
    one thread at a time (the simulation thread). *)

type t

val global : t
(** The process-wide pool shared by every engine. Batches are submitted
    one at a time from the simulation thread, so engines never contend. *)

val ensure_workers : t -> int -> unit
(** Grow the pool to at least [n] worker domains. Never shrinks. *)

val run : t -> (unit -> unit) array -> unit
(** Execute every task exactly once and return once all have finished.
    With zero workers the tasks run inline on the caller. If a task
    raises, the first exception is re-raised here after every other task
    has run. *)
