(** Binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order, which keeps the whole simulation
    deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> time:int64 -> seq:int -> 'a -> unit

val pop : 'a t -> (int64 * int * 'a) option
(** Remove and return the minimum element. *)

val peek : 'a t -> (int64 * int * 'a) option
(** The minimum element without removing it — O(1), no sifting. *)

val iter : 'a t -> (int64 -> int -> 'a -> unit) -> unit
(** Visit every element in arbitrary (heap-internal) order. The callback
    must not push or pop. *)
