(** Binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order, which keeps the whole simulation
    deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:int64 -> seq:int -> 'a -> unit

(** The minimum element, read and removed by three calls that build no
    option or tuple: the engine's fire path runs them once per event.
    Each raises [Invalid_argument] on an empty heap. *)

val top_time : 'a t -> int64
(** The minimum element's time — O(1), no sifting. *)

val top : 'a t -> 'a
(** The minimum element's payload — O(1), no sifting. *)

val drop : 'a t -> unit
(** Remove the minimum element. *)

val iter : 'a t -> (int64 -> int -> 'a -> unit) -> unit
(** Visit every element in arbitrary (heap-internal) order. The callback
    must not push or pop. *)
