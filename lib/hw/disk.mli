(** A sparse storage medium: the backing store of the SD card and the
    USB stick.

    The medium is a table of 4 KiB chunks. A chunk no write has touched
    holds no bytes of its own and reads as zeros; the first write to it
    allocates it. A freshly created 64 MiB card therefore costs a table
    of pointers, not 64 MiB of zeroed host memory, and what each sector
    reads back is exactly what a zero-filled image would give.

    Pure storage: no cost model, no faults, no power rail. Callers check
    their own ranges and report errors their own way; an out-of-range
    access here is a programming error and raises [Invalid_argument]. *)

type t

val sector_bytes : int
(** 512: the sector size of every medium, and of the SD card, the USB
    stick and every block device above them. *)

val create : sectors:int -> t
(** An all-zero medium of [sectors] 512-byte sectors. *)

val sectors : t -> int

val read : t -> lba:int -> count:int -> Bytes.t
(** [count] sectors starting at [lba], as fresh bytes. *)

val write : t -> lba:int -> count:int -> Bytes.t -> unit
(** Store the first [count] sectors of the buffer at [lba]. A
    power-torn write passes the granted prefix; [count = 0] stores
    nothing and allocates nothing. *)
