(** Deterministic pseudo-random number generation for the simulator.

    Every stochastic workload input (fuzz scenarios, crash-cut points,
    benchmark offsets, synthetic survey respondents) draws from this
    generator, so a workload is reproducible bit-for-bit from its seed.
    The machine itself takes no seed. The
    implementation is splitmix64, which has a full 64-bit period per stream
    and cheap stream splitting. *)

type t
(** A generator stream. Mutable; not shared between unrelated subsystems —
    use {!split} to derive independent streams. *)

val create : int64 -> t
(** [create seed] makes a fresh stream from [seed]. *)

val split : t -> t
(** [split t] derives an independent stream; [t] advances. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)
