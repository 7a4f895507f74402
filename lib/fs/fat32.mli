(** FAT32, the commodity filesystem of Prototype 5 (§4.5).

    A real FAT32 implementation in the spirit of Chan's FatFS: BPB parsing
    and formatting, two mirrored FATs, cluster-chain files, 8.3 short names
    with VFAT long-file-name entries, create/write/extend/unlink/mkdir, and
    — the paper's key performance point — {e range} reads that fetch whole
    contiguous cluster runs in one block-device command instead of going
    block by block.

    Like {!Xv6fs}, all device access goes through an {!io} record. The
    [read] callback's [count] tells the kernel adapter whether this is a
    single-sector access (which VOS routes through the buffer cache) or a
    multi-sector range (which VOS sends straight to the SD driver, §5.2). *)

type io = {
  read : lba:int -> count:int -> Bytes.t;
  write : lba:int -> data:Bytes.t -> unit;
}

val io_of_blockdev : Blockdev.t -> io
(** Direct accessor for tools and tests; raises [Invalid_argument] on device
    errors. *)

type t

type stat = {
  st_dir : bool;
  st_size : int;
  st_cluster : int;  (** first cluster; stable identity while the file lives *)
}

val mkfs : io -> total_sectors:int -> unit
(** Format: writes BPB, FSInfo, both FATs and an empty root directory. *)

val mount : io -> (t, Error.t) result

val cluster_bytes : t -> int

val free_clusters : t -> int

(** {1 Lookup} *)

val stat : t -> string -> (stat, Error.t) result
(** Resolve an absolute path ("/" is the root directory). Long and short
    names both match, case-insensitively. *)

val readdir : t -> string -> ((string * stat) list, Error.t) result
(** Directory listing with long names restored. *)

(** {1 Reading} *)

val read_file : t -> string -> off:int -> len:int -> (Bytes.t, Error.t) result
(** Read with range optimization: contiguous cluster runs become single
    multi-sector [read] calls. Short reads at EOF. *)

(** {1 Writing} *)

val create : t -> string -> (unit, Error.t) result
(** Create an empty file; parent directory must exist. *)

val mkdir : t -> string -> (unit, Error.t) result

val write_file : t -> string -> off:int -> data:Bytes.t -> (int, Error.t) result
(** Write in place, extending the cluster chain and directory entry size as
    needed. The file must exist. *)

val truncate : t -> string -> (unit, Error.t) result
(** Free the chain, set size to 0. *)

val unlink : t -> string -> (unit, Error.t) result
(** Remove a file or an empty directory. *)
