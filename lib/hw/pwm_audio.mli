(** PWM audio output (the 3.5 mm jack).

    The device consumes signed 16-bit mono samples from its hardware FIFO at
    the configured sample rate, draining in fixed-size chunks for simulation
    efficiency. If the FIFO runs dry mid-chunk the output glitches — the
    audible stutter the paper uses to motivate the producer-consumer
    pipeline (§4.4) — and the underrun counter increments.

    The DMA engine refills the FIFO; [push_samples] is the completion action
    a DMA transfer invokes. A rolling tail of emitted samples is retained so
    tests can assert on the waveform actually played. *)

type t

val create : Sim.Engine.t -> rate:int -> t

val rate : t -> int

val start : t -> unit
(** Begin consuming. Idempotent. *)

val fifo_capacity : int
val fifo_space : t -> int

val push_samples : t -> int array -> int
(** Append samples (clipped to capacity); returns how many were accepted. *)

val underruns : t -> int
(** Chunks that found too few samples. *)

val samples_played : t -> int

val recent_output : t -> int array
(** Up to the last 65536 samples emitted, oldest first; silence inserted
    during underruns appears as zeros. *)

val set_drain_listener : t -> (unit -> unit) -> unit
(** Called after each chunk drain — the "need more data" signal the audio
    driver uses to pump the pipeline (in real hardware this is the DMA DREQ
    pacing). *)
