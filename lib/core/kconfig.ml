(** Kernel configuration.

    Each prototype stage of VOS is this same kernel at a different
    [stage] number. Table 1 fixes what a stage contains, so the kernel
    asks the stage through four predicates named after the paper's
    prototypes ({!multitasking}, {!user_kernel}, {!files} and
    {!desktop}); a syscall the stage lacks returns ENOSYS. The other
    fields are the knobs that experiments set apart from their stage
    default: [multicore], the §5.2 fast paths, and the beyond-paper
    machinery (write-back, the scheduler and pipe ladders, the
    sanitizer, observability, the journal). [prototype k] is stage
    [k]'s defaults; [full] is Prototype 5. *)

(** Which scheduling class the per-core runqueues run. Both are the same
    multi-level feedback queue, given as data ({!Sched.sched_class}).
    [Sched_rr] is the paper's round-robin: the one-level case, with one
    fixed quantum for everyone and nice ignored. [Sched_mlfq] has four
    levels, nice-scaled quanta, demotion and a sleeper boost. *)
type sched_policy = Sched_rr | Sched_mlfq

(** How an idle core learns that a wakeup was queued for it.
    [Wake_direct] is the seed's idealization: the remote runqueue insert
    schedules the idle core instantly, for free — it keeps all paper
    numbers bit-identical. [Wake_tick] models WFI honestly: an idle core
    notices new work only at its next local timer tick. [Wake_ipi] adds
    the reschedule IPI: the waking core writes the target's mailbox and
    the target responds in IPI latency rather than tick latency. *)
type wake_model = Wake_direct | Wake_tick | Wake_ipi

type t = {
  stage : int;  (** prototype number, 1–5; read through the predicates below *)
  multicore : bool;  (** P5: all four cores *)
  range_io_bypass : bool;  (** P5 + §5.2: FAT32 range reads skip the cache *)
  simd_pixel_ops : bool;  (** §5.2: NEON YUV conversion in the user lib *)
  writeback : bool;
      (** block cache defers writes: dirty blocks flushed by a daemon,
          on fsync, on eviction, and at shutdown (off = the paper's
          write-through xv6-style cache) *)
  readahead_blocks : int;
      (** sequential read-ahead: blocks prefetched in one device command
          when the cache detects a streaming miss pattern; 0 = off *)
  sd_coalescing : bool;
      (** the SD request queue merges adjacent pending writes into one
          command (elevator order); off = one command per block *)
  sched_policy : sched_policy;
      (** scheduling class for the per-core runqueues; [Sched_rr] keeps
          the paper's behavior *)
  wake_model : wake_model;
      (** cross-core wakeup mechanism; [Wake_direct] keeps the seed's
          instant (cost-free) remote scheduling *)
  wake_affinity : bool;
      (** wake placement prefers the task's last-run core (cache
          affinity); migrations then charge {!Kcost.sched_migrate} *)
  load_balance_ms : int;
      (** period of the load-balance pass that equalizes runqueue depth
          across cores; 0 = off (idle cores steal at pick time instead,
          as in the seed) *)
  pipe_ring : bool;
      (** the pipe charge model: a transfer costs {!Kcost.copy_cycles}
          (memmove speed) instead of {!Kcost.pipe_per_byte} per byte, the
          paper's xv6 copy loop. Every pipe is the same ring either way *)
  pipe_buffer_bytes : int;
      (** capacity of every pipe's ring, rounded up to a power of two;
          512 = xv6's buffer *)
  pipe_wake_edge : bool;
      (** edge-triggered pipe wakeups: wake readers only on
          empty→non-empty and writers only on full→not-full, instead of
          on every operation *)
  kcheck : bool;
      (** the runtime sanitizer ({!Kcheck}): lockdep order checking,
          blocked-task deadlock scans, sleep-in-atomic detection and
          refcount audits at fork/clone/exit. Host-side instrumentation
          only — charges zero virtual cycles, so every paper number is
          unchanged. Off in the stock kernel, on under the test harness. *)
  profile_hz : int;
      (** sampling profiler rate: every [1000 / profile_hz] ms the timer
          tick attributes the core to (pid, syscall | irq | user | idle)
          for /proc/profile; 0 = off. Zero virtual cycles *)
  sim_domains : int;
      (** host domains for the engine's parallel event batches
          ([Sim.Engine.set_domains]). 1 = the sequential engine,
          bit-for-bit; > 1 runs offloaded computes across the
          process-wide domain pool. Pure host-side parallelism: the virtual-time trace
          is identical at any value. [VOS_SIM_DOMAINS] overrides at
          boot. *)
  journal : bool;
      (** crash-consistent rootfs: mkfs reserves a write-ahead log area
          and the extent (doubly-indirect) block map, mutations run in
          transactions group-committed by the flush daemon and fsync,
          and mount replays committed transactions (off = the paper's
          journal-free xv6fs, bit-identical images) *)
}

(** Period of the flush daemon that every write-back cache runs. *)
let flush_interval_ms = 8

let full =
  {
    stage = 5;
    multicore = true;
    range_io_bypass = true;
    simd_pixel_ops = true;
    (* the write-back fast path ships off by default so the stock
       configuration still reproduces the paper's §5.2 numbers; iobench
       and the ablations switch it on *)
    writeback = false;
    readahead_blocks = 0;
    sd_coalescing = true;
    (* like write-back, the rebuilt scheduler ships in its paper
       configuration (round-robin, instant wakeups, no affinity or
       balancing) so the stock numbers don't move; schedbench and the
       ablations turn the new machinery on *)
    sched_policy = Sched_rr;
    wake_model = Wake_direct;
    wake_affinity = false;
    load_balance_ms = 0;
    (* the IPC rebuild follows the same rule: xv6 pipes with wake-on-
       every-op stay the default so Figure 8/11 numbers are untouched;
       ipcbench walks the ring/edge/poll ladder explicitly *)
    pipe_ring = false;
    pipe_buffer_bytes = 512;
    pipe_wake_edge = false;
    (* pure host-side checking, but the stock kernel stays exactly the
       artifact the paper describes; the harness flips it on *)
    kcheck = false;
    (* kperf follows the same convention: the observability machinery is
       free in virtual time, but the stock kernel runs no sampling
       profiler; tracebench and the tests arm it *)
    profile_hz = 0;
    sim_domains = 1;
    (* crash consistency is explicitly out of the paper's scope (§5.4),
       so the journal ships off and the stock rootfs image stays
       byte-identical; the crash harness and journal tests arm it *)
    journal = false;
  }

let rec prototype = function
  | 1 ->
      {
        stage = 1;
        multicore = false;
        range_io_bypass = false;
        simd_pixel_ops = false;
        writeback = false;
        readahead_blocks = 0;
        sd_coalescing = false;
        sched_policy = Sched_rr;
        wake_model = Wake_direct;
        wake_affinity = false;
        load_balance_ms = 0;
        pipe_ring = false;
        pipe_buffer_bytes = 512;
        pipe_wake_edge = false;
        kcheck = false;
        profile_hz = 0;
        sim_domains = 1;
        journal = false;
      }
  | (2 | 3) as k -> { (prototype 1) with stage = k }
  | 4 ->
      {
        full with
        stage = 4;
        multicore = false;
        range_io_bypass = false;
        simd_pixel_ops = false;
      }
  | 5 -> full
  | k -> Kpanic.panicf "Kconfig.prototype: no prototype %d" k

(* Table 1 as four predicates, one per prototype the paper names. Every
   stage-gated path in the kernel reads exactly one of them. *)

(** P2+: the scheduler runs many tasks (sleep, nice). *)
let multitasking c = c.stage >= 2

(** P3+: EL0/EL1 split and virtual memory; the task syscalls
    (fork/wait/kill/sbrk), mmap of the framebuffer, write to the UART. *)
let user_kernel c = c.stage >= 3

(** P4+: the file table and exec, devfs and procfs, the USB keyboard,
    PWM sound. *)
let files c = c.stage >= 4

(** P5: threads and semaphores, FAT32 on the SD card, the window
    manager, O_NONBLOCK and poll. *)
let desktop c = c.stage >= 5
