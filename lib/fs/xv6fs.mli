(** The xv6-style filesystem ("xv6fs"), VOS's root filesystem on ramdisk.

    Faithful to the original layout with two opt-in extensions beyond the
    paper's baseline (which excludes crash consistency, §5.4):

    - a {e write-ahead journal}: an on-disk log area (header + data
      slots) between the bitmap and the data area. Mutating operations
      run inside transactions; the absorbed home blocks stay pinned in
      the buffer cache until {!commit} copies them to the log, writes a
      checksummed commit record, installs them home, and clears the
      record — each phase separated by an ordered-write barrier.
      {!mount} replays any committed-but-uninstalled transaction, so a
      power cut at any instant leaves either the old or the new state.
    - an {e extent (doubly-indirect) block map}: 11 direct + 1 single +
      1 double indirect, lifting the ~270 KB file cap to ~64 MB.

    Both are format flags chosen at {!mkfs}; at the defaults (no log, no
    extents) images are byte-identical to the paper's layout.

    Disk layout in 1 KB blocks:
    [ 0: boot | 1: superblock | inodes | free bitmap | (log) | data... ]

    All block IO goes through an {!io} record; the kernel supplies an
    implementation backed by its buffer cache (charging simulated time),
    tests supply a raw in-memory one. *)

val block_bytes : int
(** 1024. *)

val ndirect : int
val nindirect : int

val max_file_bytes : int
(** Legacy-layout cap: [(ndirect + nindirect) * block_bytes] = 274432. *)

val max_file_bytes_ext : int
(** Extent-layout cap: [(11 + 256 + 256*256) * block_bytes] ≈ 64 MB. *)

val max_name : int
(** Direntry name capacity: 14 bytes. *)

type io = {
  bread : int -> Bytes.t;  (** read fs block [n]; must return 1 KB *)
  bwrite : int -> Bytes.t -> unit;
  bsync : unit -> unit;
      (** ordered-write barrier: every [bwrite] issued before [bsync]
          must be on the medium before any issued after it returns *)
  bpin : int -> pin:bool -> unit;
      (** pin/unpin block [n] in the cache: a pinned dirty block must
          not be written to the medium (journal write-ahead rule) *)
}

val io_of_image : Bytes.t -> io
(** Zero-cost accessor over a raw image (for mkfs and tests); [bsync]
    and [bpin] are no-ops — the image itself is the medium. *)

type ftype = Dir | Reg | Dev

type stat = { st_inum : int; st_type : ftype; st_nlink : int; st_size : int }

type t
(** A mounted filesystem instance. *)

type inode
(** An in-core inode handle. *)

(** {1 Formatting and mounting} *)

val mkfs :
  ?nlog:int -> ?ext:bool -> total_blocks:int -> ninodes:int -> unit -> Bytes.t
(** Create a fresh image with an empty root directory. [nlog] > 0
    reserves a journal area of one header block plus [nlog] data slots;
    [ext] selects the doubly-indirect block map. The defaults produce an
    image byte-identical to the journal-free layout. *)

val mount : io -> (t, Error.t) result
(** Validate the superblock and return a handle. If the image has a
    journal, replay any committed transaction first (see {!log_replayed})
    and cap open transactions at 64 blocks (clamped to the on-disk log
    size). *)

val free_data_blocks : t -> int
(** Unallocated data blocks, from the bitmap (for /proc and tests). *)

val max_bytes : t -> int
(** File-size cap of this instance's layout ({!max_file_bytes} or
    {!max_file_bytes_ext}). *)

(** {1 The journal} *)

val journaled : t -> bool

val commit : t -> int
(** Group-commit the open transaction: log, commit record, install,
    clear — four barrier-separated phases. Returns the number of blocks
    committed; 0 when the transaction is empty, the image has no
    journal, or an operation is mid-flight (the buffer-cache flush
    daemon calls this opportunistically, so it refuses rather than
    committing a half-finished operation). *)

val set_on_commit : t -> (int -> unit) -> unit
(** Install an observability hook fired after every successful journal
    commit with the number of blocks written. Host-side bookkeeping only
    (vprobe's journal:commit point); charges no virtual cycles. *)

val log_commits : t -> int
(** Transactions committed since mount. *)

val log_replayed : t -> int
(** Blocks installed by recovery at mount (0 after a clean shutdown). *)

val log_absorbed : t -> int
(** Writes absorbed into an already-queued block (write absorption). *)

val log_pending : t -> int
(** Blocks in the open, not-yet-committed transaction. *)

(** {1 Inodes and paths} *)

val root : t -> inode
val lookup : t -> string -> (inode, Error.t) result
(** Resolve an absolute path. *)

val stat_of : t -> inode -> stat
val inum : inode -> int

(** {1 Files} *)

val create : t -> string -> ftype -> (inode, Error.t) result
(** Create a file/dir/device node; parent must exist; fails if the name
    exists. Directories get "." and ".." entries. *)

val readi : t -> inode -> off:int -> len:int -> (Bytes.t, Error.t) result
(** Read up to [len] bytes at [off]; short reads at EOF. *)

val writei : t -> inode -> off:int -> data:Bytes.t -> (int, Error.t) result
(** Write at [off], growing the file as needed; fails with
    {!Error.Too_big} past {!max_bytes}. Returns bytes written. On a
    journaled instance a large write is chunked into several
    transactions, each leaving a consistent prefix of the write (size
    advances with the data). *)

val truncate : t -> inode -> unit
(** Free all data blocks and set the size to 0. *)

val unlink : t -> string -> (unit, Error.t) result
(** Remove a directory entry; frees the inode when the link count drops to
    zero. Refuses non-empty directories. *)

val readdir : t -> inode -> ((string * int) list, Error.t) result
(** Entries of a directory (name, inum), excluding "." and "..". *)

val set_dev : t -> inode -> major:int -> minor:int -> unit
(** Stamp device numbers on a [Dev] inode. *)

val dev_of : t -> inode -> int * int

(** {1 fsck} *)

type fsck_report = {
  fsck_clean : bool;
  fsck_errors : string list;  (** findings, capped at 64 *)
  fsck_files : int;
  fsck_dirs : int;
  fsck_data_blocks : int;  (** data + indirect blocks in use *)
}

val fsck : t -> fsck_report
(** Read-only full-image consistency check: superblock geometry, the
    directory tree from the root, block maps vs. file sizes, double
    allocation, bitmap agreement in both directions, link counts and
    orphans. Corruption becomes a finding, never an exception. *)
