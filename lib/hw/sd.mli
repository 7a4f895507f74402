(** SD card controller and card.

    Mirrors the paper's deliberately simple driver contract (§4.5): the
    driver initializes the card, then issues synchronous single-block or
    block-range reads/writes, polling for completion — no DMA. The model
    therefore returns a polling cost with each operation; range operations
    pay the command overhead once, which is exactly why the paper's
    buffer-cache bypass wins 2–3x on multi-block FAT32 access.

    Sectors are 512 bytes, stored in a sparse {!Disk.t}: a sector nothing
    has written reads as zeros and costs no host memory. *)

type t

val create : Sim.Engine.t -> size_mib:int -> t

val sectors : t -> int

val init_cost_ns : int64
(** Card identification + clock-up sequence at power-on. *)

val read : t -> lba:int -> count:int -> (Bytes.t * int64, string) result
(** [read t ~lba ~count] returns [count * 512] bytes and the polling cost.
    Fails on out-of-range access. *)

val write : t -> lba:int -> data:Bytes.t -> (int64, string) result
(** Write [data] (a whole number of sectors) starting at [lba]; returns the
    polling cost. *)

(** {1 Request queue}

    Pending writes queued by the kernel's write-back flush path. The queue
    is drained in a single ascending-LBA elevator sweep; with [coalesce]
    (the default) exactly-adjacent transfers merge into one command, so a
    run of contiguous blocks pays [cmd_overhead_ns] once. *)

val enqueue_write : t -> lba:int -> data:Bytes.t -> (unit, string) result
(** Queue a whole-sector write without issuing it. Bounds-checked now;
    no cost until [flush_queue]. *)

val queued : t -> int
(** Number of pending queued requests. *)

val flush_queue : ?coalesce:bool -> t -> (int64 * int, string) result
(** Issue all queued writes in elevator order; returns the total polling
    cost and the number of device commands actually issued. *)

val merged_count : t -> int
(** Cumulative requests absorbed into a neighbour's command. *)

val barrier : coalesce:bool -> t -> (int64 * int, string) result
(** Ordered-write barrier: drain the request queue so every write issued
    before the barrier is on the medium before any issued after it. Free
    (zero cost, zero commands) when the queue is already empty. Returns
    (cost, commands) like {!flush_queue}. *)

val barrier_count : t -> int
(** Barriers issued (host-side bookkeeping; charges nothing). *)

val inject_read_faults : t -> count:int -> unit
(** Arm [count] transient read faults: each of the next [count] read
    commands fails with a CRC-style error (the data on the medium is
    untouched, so a retrying driver succeeds once the burst is spent).
    The fuzz harness's stand-in for a marginal card or connector. *)

val pending_read_faults : t -> int
(** Armed faults not yet consumed. *)

val set_supply : t -> Power.supply -> unit
(** Attach the board's power rail: every media write is budgeted through
    {!Power.media_budget}, so a scheduled power cut drops — or tears at a
    sector boundary — writes that race the cut. *)

val read_count : t -> int
(** Number of read commands issued (not sectors). *)

val write_count : t -> int

val cost_ns : count:int -> int64
(** Cost model: one command overhead plus per-sector wire time. *)
