(** Effect-based coroutines over {!Engine}.

    A fiber turns a self-rescheduling chain of heap closures into
    straight-line code: it performs {!sleep} and is suspended into a
    one-shot continuation resumed by an engine event. Each suspension
    costs exactly one engine event with the same delay the closure chain
    would have scheduled, so fiberising a service loop keeps the
    (time, seq) trace byte-identical.

    Fibers run on the simulation thread only; they are about structure,
    not host parallelism (that is {!Engine.schedule_par}). *)

exception Cancelled
(** Raised inside a fiber that is resumed after {!cancel}. *)

type handle

val run : Engine.t -> (unit -> unit) -> handle
(** Start a fiber inline: the body runs now, up to its first suspension.
    Equivalent to calling the body directly in closure-chain style. *)

val spawn : Engine.t -> ?after:int64 -> (unit -> unit) -> handle
(** Start a fiber via an engine event [after] ns from now (default 0). *)

val cancel : Engine.t -> handle -> unit
(** Cooperatively cancel: a parked fiber's wakeup event is tombstoned and
    the fiber never resumes; a running fiber dies with {!Cancelled} at
    its next resume point. No-op on finished fibers. *)

val finished : handle -> bool

(** Inside a fiber: *)

val sleep : int64 -> unit
(** Park for [delta] virtual ns; [sleep 0L] parks for one event at the
    same instant, behind every event already scheduled there. *)
