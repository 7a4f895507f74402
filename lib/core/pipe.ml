(** Pipes: xv6's pipe as one power-of-two ring.

    Every pipe is a ring of {!Kconfig.pipe_buffer_bytes} (rounded up to
    a power of two; 512 in the stock kernel, xv6's size). A transfer
    moves its bytes with at most two [Bytes.blit]s, split at the wrap
    boundary, inside one [plock] window, just as xv6's pipewrite and
    piperead hold the pipe lock across their whole copy loop. Two knobs
    pick what a transfer costs and whom it wakes, never how it moves:

    - {!Kconfig.pipe_ring} is the charge model. Off is the xv6 port the
      paper measures, {!Kcost.pipe_per_byte} per byte copied; Figure 11
      shows it becoming the latency bottleneck even for 10-byte keyboard
      events in mario-proc. On is memmove speed, {!Kcost.copy_cycles}.
    - {!Kconfig.pipe_wake_edge} is the wake model. Off is xv6's wakeup on
      every operation; on wakes readers only on empty→non-empty and
      writers only on full→not-full, and tallies the ops whose wakeup
      was suppressed.

    Both knobs ship off so the paper numbers are untouched; ipcbench
    walks the ladder. Every configuration has the POSIX fixes: a write
    with no readers left returns [-EPIPE], a blocked write whose readers
    vanish mid-transfer returns the bytes already sent, and O_NONBLOCK
    reaches both directions. Pipe ids and pipe counters are per kernel,
    in {!params}. *)

(** Per-kernel pipe state, made once at boot: the behavior derived from
    [Kconfig], the kernel's pipe-id stream, and the pipe counters, taken
    from the kernel's kperf registry (so pipes are not coupled to the
    whole Vfs, and [/proc/ipc] and [/proc/metrics] read the same cells).
    The wakeup counters are the observable for the edge-triggered
    ablation: under the xv6 model every pipe op issues a wakeup; under
    [pipe_wake_edge] only the empty→non-empty and full→not-full
    transitions do, and the ops that would have woken someone are
    tallied as suppressed. *)
type params = {
  ring : bool;  (** charge model: memmove speed instead of xv6's per byte *)
  edge : bool;
  buffer_bytes : int;
  mutable next_id : int;  (** last pipe id this kernel handed out *)
  pipe_writes : Kperf.cell;
  pipe_reads : Kperf.cell;
  pipe_bytes : Kperf.cell;  (** bytes moved through pipes, both ways *)
  wakeups_issued : Kperf.cell;
  wakeups_suppressed : Kperf.cell;
}

let params_of_config (cfg : Kconfig.t) kperf =
  let c = Kperf.counter kperf in
  let pipe_writes = c "vos_pipe_writes_total" in
  let pipe_reads = c "vos_pipe_reads_total" in
  let pipe_bytes = c "vos_pipe_bytes_total" in
  let wakeups_issued = c "vos_wakeups_issued_total" in
  let wakeups_suppressed = c "vos_wakeups_suppressed_total" in
  {
    ring = cfg.Kconfig.pipe_ring;
    edge = cfg.Kconfig.pipe_wake_edge;
    buffer_bytes = cfg.Kconfig.pipe_buffer_bytes;
    next_id = 0;
    pipe_writes;
    pipe_reads;
    pipe_bytes;
    wakeups_issued;
    wakeups_suppressed;
  }

type t = {
  pipe_id : int;
  p : params;
  cap : int;  (** power of two, so positions are masked *)
  data : Bytes.t;
  mutable rpos : int; [@locked_by "plock"]
  mutable wpos : int; [@locked_by "plock"]
      (** count of bytes ever read/written; w-r = fill *)
  mutable readers : int; [@locked_by "plock"]
  mutable writers : int; [@locked_by "plock"]
  rchan : Task.chan;
  wchan : Task.chan;
  plock : Spinlock.t;
      (** discipline-only leaf lock (no [~kcheck], no trace events) for the
          ring positions and end counts; vrace R101 checks the windows,
          R103 that nothing inside them can block *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create p ~trace =
  p.next_id <- p.next_id + 1;
  let id = p.next_id in
  let cap = pow2_at_least p.buffer_bytes 64 in
  {
    pipe_id = id;
    p;
    cap;
    data = Bytes.create cap;
    rpos = 0;
    wpos = 0;
    readers = 1;
    writers = 1;
    rchan = Task.Pipe_readable id;
    wchan = Task.Pipe_writable id;
    plock = Spinlock.create ~trace "plock";
  }

let fill t = t.wpos - t.rpos
let space t = t.cap - fill t
let mask t pos = pos land (t.cap - 1)

(* The one copy path: [n] bytes in or out of the ring in one [plock]
   window, with at most two blits (one split at the wrap boundary). *)
let blit_in t src srcoff n =
  Spinlock.protect t.plock (fun () ->
      let w = mask t t.wpos in
      let first = min n (t.cap - w) in
      Bytes.blit src srcoff t.data w first;
      if n > first then Bytes.blit src (srcoff + first) t.data 0 (n - first);
      t.wpos <- t.wpos + n)

let blit_out t n =
  let out = Bytes.create n in
  Spinlock.protect t.plock (fun () ->
      let r = mask t t.rpos in
      let first = min n (t.cap - r) in
      Bytes.blit t.data r out 0 first;
      if n > first then Bytes.blit t.data 0 out first (n - first);
      t.rpos <- t.rpos + n);
  out

let copy_charge t n =
  if t.p.ring then Kcost.copy_cycles ~bytes:n else Kcost.pipe_per_byte * n

(* One wakeup on [chan]: charged, counted, every sleeper woken. *)
let wake ctx t chan =
  Sched.charge ctx Kcost.wakeup;
  t.p.wakeups_issued.Kperf.n <- t.p.wakeups_issued.Kperf.n + 1;
  Sched.wake_all ctx.Sched.sched chan

(* Edge mode: wake only when the op crossed the edge, else tally the
   wakeup the level model would have issued as suppressed. *)
let wake_on_edge ctx t chan crossed =
  if crossed then wake ctx t chan
  else
    t.p.wakeups_suppressed.Kperf.n <- t.p.wakeups_suppressed.Kperf.n + 1

(* Readiness probes for poll(2). A read fd is ready when data is buffered
   or EOF is observable; a write fd when space exists or the write would
   fail immediately with EPIPE. *)
let read_ready t = fill t > 0 || t.writers = 0
let write_ready t = space t > 0 || t.readers = 0

(* Write all of [data]; blocks while the buffer is full, like xv6's
   pipewrite. A readerless pipe yields -EPIPE, or the partial count if
   the readers vanished after some bytes were already transferred. Like
   xv6, the level model wakes readers before blocking on a full ring
   (uncharged) and once at the end of the write (charged). *)
let write ctx t data ~nonblock =
  let sched = ctx.Sched.sched in
  let len = Bytes.length data in
  let sent = ref 0 in
  t.p.pipe_writes.Kperf.n <- t.p.pipe_writes.Kperf.n + 1;
  if Ktrace.probing sched.Sched.trace then
    Sched.trace_emit_task sched ctx.Sched.task
      (Ktrace.Probe (Ktrace.Pipe_write (ctx.Sched.task.Task.pid, len)));
  let rec step () =
    if t.readers = 0 then
      Sched.finish ctx
        (Abi.R_int (if !sent > 0 then !sent else -Errno.epipe))
    else if !sent >= len then begin
      if not t.p.edge then wake ctx t t.rchan;
      Sched.finish ctx (Abi.R_int len)
    end
    else if space t = 0 then
      if nonblock then
        Sched.finish ctx
          (Abi.R_int (if !sent > 0 then !sent else -Errno.eagain))
      else begin
        (* edge mode woke readers at the empty→non-empty edge; the level
           model wakes them here to drain *)
        if not t.p.edge then Sched.wake_all sched t.rchan;
        Sched.block ctx ~chan:t.wchan ~retry:step
      end
    else begin
      let n = min (len - !sent) (space t) in
      let was_empty = fill t = 0 in
      blit_in t data !sent n;
      Sched.charge ctx (copy_charge t n);
      sent := !sent + n;
      t.p.pipe_bytes.Kperf.n <- t.p.pipe_bytes.Kperf.n + n;
      if t.p.edge then wake_on_edge ctx t t.rchan was_empty;
      Sched.poll_wake sched;
      step ()
    end
  in
  step ()

(* Read up to [len] bytes; blocks while empty and writers remain. *)
let read ctx t ~len ~nonblock =
  let sched = ctx.Sched.sched in
  t.p.pipe_reads.Kperf.n <- t.p.pipe_reads.Kperf.n + 1;
  let entered_ns = Sched.now sched in
  let rec step () =
    if fill t > 0 then begin
      (* how long this read waited for data (0 when it was already
         buffered) — kperf bookkeeping only, no cycles charged *)
      Kperf.Hist.record sched.Sched.h_pipe_wait
        (Int64.sub (Sched.now sched) entered_ns);
      let n = min len (fill t) in
      let was_full = space t = 0 in
      let out = blit_out t n in
      t.p.pipe_bytes.Kperf.n <- t.p.pipe_bytes.Kperf.n + n;
      Sched.charge ctx (copy_charge t n);
      if t.p.edge then wake_on_edge ctx t t.wchan (was_full && space t > 0)
      else wake ctx t t.wchan;
      Sched.poll_wake sched;
      if Ktrace.probing sched.Sched.trace then
        Sched.trace_emit_task sched ctx.Sched.task
          (Ktrace.Probe
             (Ktrace.Pipe_read
                ( ctx.Sched.task.Task.pid,
                  n,
                  Int64.to_int (Int64.sub (Sched.now sched) entered_ns) )));
      Sched.finish ctx (Abi.R_bytes out)
    end
    else if t.writers = 0 then Sched.finish ctx (Abi.R_bytes Bytes.empty)
    else if nonblock then Sched.finish ctx (Abi.R_int (-Errno.eagain))
    else Sched.block ctx ~chan:t.rchan ~retry:step
  in
  step ()

(* The wakeups run after the window closes: waking can synchronously
   resume a blocked reader/writer that re-enters the pipe. *)
let close_read sched t =
  let remaining =
    Spinlock.protect t.plock (fun () ->
        t.readers <- t.readers - 1;
        t.readers)
  in
  if remaining = 0 then begin
    Sched.wake_all sched t.wchan;
    Sched.poll_wake sched
  end

let close_write sched t =
  let remaining =
    Spinlock.protect t.plock (fun () ->
        t.writers <- t.writers - 1;
        t.writers)
  in
  if remaining = 0 then begin
    Sched.wake_all sched t.rchan;
    Sched.poll_wake sched
  end

