(** Block devices.

    Filesystems are written against this interface so the same code runs on
    the ramdisk (Prototype 4) and on SD-card partitions (Prototype 5). Time
    is charged by the IO implementation itself — the kernel wraps devices in
    accessors that burn simulated cycles in the calling task's context —
    so filesystem code stays cost-agnostic.

    Sectors are 512 bytes, as on {!Hw.Disk}. *)

type t = {
  name : string;
  total_sectors : int;
  read_sectors : lba:int -> count:int -> (Bytes.t, string) result;
  write_sectors : lba:int -> data:Bytes.t -> (unit, string) result;
}

val sector_bytes : int

val ramdisk : name:string -> sectors:int -> t * Bytes.t
(** An in-memory device plus its backing store (for stamping images). *)

val of_image : name:string -> Bytes.t -> t
(** Wrap an existing buffer (must be sector-aligned in length). *)

val of_disk : name:string -> Hw.Disk.t -> t
(** A cost-free view of a whole sparse medium (for formatting a USB stick
    before it is plugged in). *)

val of_sd : Hw.Sd.t -> name:string -> first_lba:int -> sectors:int -> t
(** A cost-free window onto an SD card starting at [first_lba] (for
    partitioning and formatting at boot; the kernel charges SD time
    through [Bufcache]). *)

val sub : t -> name:string -> first_lba:int -> sectors:int -> t
(** A sub-range view (a partition) of an existing device. *)
