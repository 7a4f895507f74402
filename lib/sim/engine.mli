(** The discrete-event simulation core.

    The engine owns the virtual clock (nanoseconds) and an event queue.
    Everything in the machine model — timer interrupts, DMA completions, SD
    transfers, scheduler decisions — is an event: a callback that fires at a
    virtual instant. Running the engine pops events in time order and
    invokes them; callbacks may schedule further events.

    Nothing in the simulation reads wall-clock time; the virtual clock is the
    only notion of time, which makes every experiment reproducible. *)

type t

type event_id
(** Handle for cancelling a scheduled event. *)

val create : unit -> t
(** A fresh engine with the clock at 0 and an empty queue. *)

val now : t -> int64
(** Current virtual time in nanoseconds. *)

val schedule_at : t -> int64 -> (unit -> unit) -> event_id
(** [schedule_at t time f] fires [f] when the clock reaches [time]. [time]
    must not be in the past. Events at equal instants fire in scheduling
    order. *)

val schedule_after : t -> int64 -> (unit -> unit) -> event_id
(** [schedule_after t delta f] fires [f] [delta] nanoseconds from now. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event. Cancelling an already-fired or already-cancelled
    event is a no-op: the [pending] count only drops when a live event is
    actually tombstoned. *)

val pending : t -> int
(** Number of live (non-cancelled) events in the queue. *)

(** {1 Host-parallel execution}

    Events scheduled with {!schedule_par} carry a pure [compute] — a
    function only of values captured at scheduling time, forbidden from
    touching simulation state — which returns a [commit] closure that
    applies the result. With [set_domains] > 1, whenever such an event
    surfaces the engine batches every pending compute in the heap and runs
    them across the process-wide domain pool ({!Dpool}), each compute
    claimed by whichever domain is free. Commits always fire on the
    simulation thread in (time, seq) order, so the virtual-time trace is
    identical to the sequential engine. *)

val set_domains : t -> int -> unit
(** Number of domains for parallel event batches, clamped to ≥ 1. The
    default 1 runs computes inline at fire time — bit-for-bit the
    sequential engine. Values > 1 lazily spawn [n - 1] pool workers. *)

val schedule_par : t -> int64 -> (unit -> unit -> unit) -> event_id
(** [schedule_par t time compute] schedules a parallelizable
    event: [compute ()] may run on any domain any time between scheduling
    and [time]; the closure it returns runs on the simulation thread when
    the clock reaches [time], in scheduling order among equal instants. *)

val events_fired : t -> int
(** Total events fired since [create] — the numerator for events/sec. *)

val par_stats : t -> int * int
(** [(batches, computes)]: parallel batches dispatched and total computes
    executed inside them. [computes / batches] is the mean batch width. *)

val step : t -> bool
(** Fire the next event. Returns [false] if the queue was empty. *)

val run : t -> ?until:int64 -> unit -> unit
(** Fire events until the queue is empty or the clock would pass [until].
    When stopping at [until], the clock is advanced exactly to [until]. *)

val advance_to : t -> int64 -> unit
(** Force the clock forward to [time] without firing events; used by device
    models for intra-event latency accounting. Raises [Invalid_argument] if
    [time] is in the past or would skip over a pending event. *)

(** {1 Time unit helpers} *)

val us : int -> int64
val ms : int -> int64
val sec : int -> int64
val to_us : int64 -> float
val to_ms : int64 -> float
val to_sec : int64 -> float
