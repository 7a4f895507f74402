(** Cycle-cost calibration for kernel paths.

    Each constant is a cycle count on the 1 GHz Cortex-A53 and carries the
    paper number it is calibrated against. These are {e inputs} to the
    simulation: the evaluation's latencies and throughputs are measured
    outcomes of many such charges composing (e.g. the 21 µs IPC figure is
    never written down anywhere — it emerges from syscall entry + copy +
    wakeup + context switch + scheduling delay). *)

(* Trap entry + register save + dispatch + restore + eret. Figure 8 puts a
   full getpid round-trip at ~3 us. *)
let syscall_entry = 1_400
let syscall_exit = 1_300
let syscall_dispatch = 250

(* Context switch: save/restore EL1 state, switch ttbr0, scheduler pick.
   A component of the 21 us one-way IPC (Figure 8). *)
let ctx_switch = 10_200
let sched_pick = 2_600

(* Interrupt entry/exit around the handler body. *)
let irq_entry = 800
let irq_exit = 600
let timer_tick_work = 1_200

(* Copies: bytes per cycle for kernel memmove (the hand-written ARMv8
   assembly of §5.2 moves ~8 B/cycle). *)
let copy_cycles ~bytes = max 64 (bytes / 8)

(* Task lifecycle. fork's dominant term is the eager page copy: VOS lacks
   lazy page-table replication (§6.2), so cost scales with resident pages. *)
let fork_base = 9_000
let fork_per_page = 950 (* copy 4 KB + map: ~1 us per page *)
let exec_base = 14_000
let exec_per_page = 700
let exit_teardown = 6_000
let wait_reap = 2_500
let clone_base = 7_500 (* shares the mm: no page copies *)

(* Memory. *)
let sbrk_per_page = 600
let cache_flush_per_row = 140 (* DC CVAC over one framebuffer row *)

(* Files. *)
let fd_lookup = 180
let vfs_dispatch = 320
let bufcache_hit = 700
let bufcache_miss_extra = 900 (* bookkeeping on top of the device time *)

(* Write-back cache paths. The dirty mark and LRU relink are O(1) pointer
   ops; the flush walk sorts the dirty set and stages each block into a
   batch for the SD request queue; the read-ahead setup is the streaming
   detector plus one prefetch command's argument marshalling. *)
let bufcache_dirty_mark = 300
let bufcache_flush_setup = 900
let bufcache_flush_block = 250
let readahead_setup = 500
let pseudo_inode = 450 (* FAT path interposition (§4.5) *)

(* Pipes: the xv6 charge model, one byte-copy loop iteration per byte
   (the ring model charges {!copy_cycles} instead). The paper's Figure 11
   calls pipe a bottleneck even for 10-byte events. *)
let pipe_setup = 2_200
let pipe_per_byte = 28

(* poll: per-fd readiness probe (fd lookup + one vtable call); charged on
   every scan, including the recheck after each wakeup. *)
let poll_fd_check = 180

(* Wakeups and semaphores. *)
let wakeup = 2_900
let sem_op = 650

(* Cross-core scheduling. An IPI is the sender's local-mailbox write plus
   the interconnect + GICD propagation until the target's vector entry
   (~2 us on the A53, vs the up-to-1 ms tick-polling a WFI'd core pays
   without it); the handler body is the reschedule check. A migrated task
   refills L1/L2 on its new core — charged up front at its first dispatch
   there when the affinity model is on. The balance pass walks four queue
   depths and requeues the surplus. *)
let ipi_send = 150
let ipi_latency = 1_800
let ipi_handler = 900
let sched_migrate = 4_500
let load_balance_pass = 2_000

(* Window manager compositing: per-pixel blend cost and per-window
   bookkeeping (the ~800 SLoC WM of §4.5). *)
let wm_per_pixel_opaque = 1 (* NEON copy path: ~1 cycle/pixel *)
let wm_per_pixel_alpha = 4
let wm_per_window = 2_000

(* Input path: copying one event out of a driver's ring buffer. *)
let event_copy = 400

(* Audio path: per-sample copy into the driver ring buffer. *)
let audio_per_sample = 6

(* UART console: per-character polling loop overhead on top of the wire
   time the device model charges. *)
let uart_poll_loop = 150
