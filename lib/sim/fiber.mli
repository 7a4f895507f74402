(** Effect-based coroutines over {!Engine}.

    A fiber turns a self-rescheduling chain of heap closures into
    straight-line code: it performs {!sleep} / {!yield} / {!await} and is
    suspended into a one-shot continuation resumed by an engine event.
    Each suspension costs exactly one engine event with the same delay the
    closure chain would have scheduled, so fiberising a service loop keeps
    the (time, seq) trace byte-identical.

    Fibers run on the simulation thread only; they are about structure,
    not host parallelism (that is {!Engine.schedule_par}). *)

type _ Effect.t +=
  | Yield : unit Effect.t  (** reschedule at the current instant *)
  | Sleep : int64 -> unit Effect.t  (** park for a virtual duration *)

exception Cancelled
(** Raised inside a fiber that is resumed after {!cancel}. *)

type handle

(** Write-once cell for fiber rendezvous. *)
module Ivar : sig
  type 'a t

  val create : Engine.t -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Set the value and wake every awaiting fiber via zero-delay engine
      events, FIFO. Raises [Invalid_argument] if already filled. *)

  val peek : 'a t -> 'a option
  val is_full : 'a t -> bool
end

type _ Effect.t += Await : 'a Ivar.t -> 'a Effect.t

val run : Engine.t -> (unit -> unit) -> handle
(** Start a fiber inline: the body runs now, up to its first suspension.
    Equivalent to calling the body directly in closure-chain style. *)

val spawn : Engine.t -> ?after:int64 -> (unit -> unit) -> handle
(** Start a fiber via an engine event [after] ns from now (default 0). *)

val cancel : Engine.t -> handle -> unit
(** Cooperatively cancel: a parked fiber's wakeup event is tombstoned and
    the fiber never resumes; a fiber awaiting an ivar dies with
    {!Cancelled} if the ivar is ever filled. No-op on finished fibers. *)

val finished : handle -> bool

(** Inside a fiber: *)

val yield : unit -> unit
val sleep : int64 -> unit
val await : 'a Ivar.t -> 'a
