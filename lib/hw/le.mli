(** Little-endian integers, the byte order of every VOS disk and wire
    format: the MBR, FAT32, xv6fs, VELF, the codecs' containers and the
    [/dev/events], [/dev/surface] and [/dev/sb] records. Callers read and
    write 16-bit fields and write 32-bit ones with the stdlib's
    [Bytes.{get,set}_{uint16,int16,int32}_le]; the stdlib has no unsigned
    32-bit read, so it is here. *)

val get_uint32 : Bytes.t -> int -> int
(** The unsigned 32-bit integer at the offset, in [0, 2^32). Raises
    [Invalid_argument] when the four bytes do not fit, as the stdlib
    accessors do. *)
