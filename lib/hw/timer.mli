(** Hardware timers: the SoC system timer and per-core ARM generic timers.

    The system timer is a free-running 1 MHz counter (no compare channel
    is modelled). Each core additionally has a generic timer programmed with a countdown value;
    when it expires it raises that core's private interrupt line — this is
    what drives scheduler ticks on every core in Prototype 5. *)

type t

val create : Sim.Engine.t -> Intc.t -> cores:int -> t

val counter_us : t -> int64
(** Free-running system-timer count (microseconds since power-on). *)

val arm_core_timer : t -> core:int -> delta_ns:int64 -> unit
(** One-shot countdown for [core]'s generic timer; raises
    [Irq.Core_timer core] when it expires. Re-arming replaces the pending
    shot (writing CNTP_TVAL). The expiry action and its line value are
    built once per core by [create], so a shot allocates only its engine
    event: the scheduler re-arms every core's timer on every tick. *)

val disarm_core_timer : t -> core:int -> unit

val core_timer_armed : t -> core:int -> bool
