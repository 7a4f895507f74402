(** The scheduler and trap machinery — the center of the kernel.

    Tasks are OCaml computations running under an effect handler. When a
    task performs {!Abi.Sys} the handler captures the one-shot continuation
    and runs the syscall dispatcher; when it performs {!Abi.Burn} the task
    occupies its core for that many cycles of simulated time, preemptible
    by the per-core timer tick. All kernel work is accounted in cycles and
    applied as simulated delays, so every latency the benchmarks observe is
    the composition of these charges plus genuine queueing.

    Structure per the paper: a single run queue suffices up to Prototype 4
    (one core); Prototype 5 gives each core its own queue (§4.5), with idle
    cores stealing work so a multiprogrammed load scales (Figure 10). IRQs
    from devices are routed to core 0; each core receives its own generic
    timer tick.

    Beyond the paper, the scheduler is split into policy and mechanism:

    - the policy is data: a {!sched_class} lists one quantum per
      priority level and says whether nice scales it, and each core's
      runqueue holds one FIFO per level. {!Kconfig.sched_policy} picks the
      paper's round-robin (default — keeps every paper number
      bit-identical), which is the one-level case (a fixed quantum, nice
      ignored), or a four-level MLFQ with nice-scaled quanta, demotion on
      quantum expiry, a sleeper boost and periodic anti-starvation boosts.
      One dispatch path serves both: with one level, demotion and the
      boosts have nowhere to move a task;
    - wake placement can prefer the task's last-run core (cache affinity,
      {!Kconfig.wake_affinity}); a task dispatched on a different core
      then pays the modeled {!Kcost.sched_migrate} cache-refill penalty;
    - cross-core wakeups follow {!Kconfig.wake_model}: the seed's instant
      (free) remote scheduling, honest WFI-until-tick polling, or
      reschedule IPIs through {!Hw.Intc.send_ipi} with a modeled
      mailbox-to-vector latency — also used by [force_kill] so a victim
      spinning on a remote core dies at IPI latency, not burn completion;
    - an optional periodic load-balance pass equalizes runqueue depth
      across cores ({!Kconfig.load_balance_ms}), replacing pick-time
      stealing when enabled;
    - per-core counters (switches, migrations, steals, balance moves,
      IPIs) and a run-delay histogram live in the kperf registry, labelled
      by core; /proc/sched, /proc/metrics and the schedbench ladder all
      read them there. *)

type ctx = {
  sched : t;
  task : Task.t;
  call : Abi.syscall;
  mutable charge_cycles : int;
  mutable charge_io : int64;  (** device time in ns, added on top of CPU *)
  kont : (Abi.ret, unit) Effect.Deep.continuation;
  mutable done_ : bool;
  entry_ns : int64;  (** trap time: syscall service = exit - entry *)
  span : int;  (** kperf span id bracketing this syscall *)
}

and core_state = {
  core_id : int;
  timer_name : string;  (** this core's timer line, as {!Hw.Irq.describe} *)
  timer_span : string;  (** the span name of that line's IRQ dispatch *)
  rq : Task.t Queue.t array;
      (** one FIFO per priority level; index 0 runs first *)
  stats : core_stats;
  mutable current : Task.t option;
  mutable last_pid : int;  (** pid last dispatched here, for Ctx_switch *)
  mutable ipi_pending : bool;  (** a reschedule IPI is in flight to us *)
  mutable in_irq : string option;
      (** IRQ line being dispatched here, for profiler attribution *)
  mutable ticks : int;
  mutable burn_started : int64;
  mutable burn_until : int64;
  mutable burn_event : Sim.Engine.event_id option;
  mutable burn_after : (unit -> unit) option;
  mutable busy_ns : int64;
  mutable io_busy_ns : int64;
}

(* This core's handles into the kperf registry, taken once at boot. *)
and core_stats = {
  switches : Kperf.cell;  (** tasks dispatched here *)
  migrations : Kperf.cell;
      (** dispatches of a task that last ran on another core *)
  steals : Kperf.cell;  (** tasks this core stole at pick time *)
  balance_moves : Kperf.cell;  (** tasks the balancer moved onto this core *)
  ipis_to : Kperf.cell;  (** reschedule IPIs sent to this core *)
  ipis_recv : Kperf.cell;  (** reschedule IPIs actually taken *)
  delay_hist : Kperf.Hist.t;
      (** run-delay (runnable → running) distribution: its count, sum
          and max are the /proc/sched run-delay lines *)
}

and t = {
  board : Hw.Board.t;
  config : Kconfig.t;
  trace : Ktrace.t;
  kperf : Kperf.t;  (** histograms, counters, profiler (host-side only) *)
  h_syscall : Kperf.Hist.t;  (** syscall service time, trap to return *)
  h_poll_wait : Kperf.Hist.t;  (** poll(2) entry to wake (vfs records) *)
  h_pipe_wait : Kperf.Hist.t;  (** blocked pipe read round-trip (pipe.ml) *)
  h_sd_req : Kperf.Hist.t;  (** SD request latency (bufcache records) *)
  vprobe : Vprobe.t;  (** the dynamic-probe registry, fed by [trace] *)
  cls : sched_class;
  cores : core_state array;
  active_cores : int;
  tasks : (int, Task.t) Hashtbl.t;
  mutable next_pid : int;  (** last pid this kernel handed out *)
  mutable dispatch : ctx -> unit;
  mutable irq_drivers : (Hw.Irq.line * (unit -> unit)) list;
  wait_chans : (Task.chan, (Task.t * (unit -> unit)) Queue.t) Hashtbl.t;
  frame_counts : (int, int) Hashtbl.t;
      (** frames presented per pid; survives trace-ring wraparound *)
  mutable on_task_exit : (Task.t -> unit) list;
  mutable on_panic : (int -> unit) option;  (** core id of the FIQ *)
  mutable flight_recorder : (string -> unit) option;
      (** run with the message of a {!Kpanic.Panic} leaving kernel code;
          {!Panic.install} arms it *)
  mutable frame_hook : (Task.t -> string -> bool) option;
      (** debug monitor: stop on frame entry? *)
  mutable syscall_hook : (Task.t -> string -> bool) option;
      (** debug monitor: stop on syscall entry? *)
  mutable tick_interval_ms : int;
  mutable started : bool;
  mutable kcheck : Kcheck.t option;
      (** the runtime sanitizer; [None] when {!Kconfig.kcheck} is off *)
  mutable ptable : Spinlock.t option;
      (** the xv6 process-table lock discipline: held across the
          wait-channel/state mutations in block/wake, feeding /proc/locks
          and the lockdep order graph *)
}

(** A scheduling class: one quantum per priority level (ticks, level 0
    first) and whether nice scales it. A task's level is its
    [Task.mlfq_level]; smaller runs first. *)
and sched_class = {
  sc_name : string;
  sc_quanta : int array;
  sc_nice : bool;
}

(* The paper's round-robin is MLFQ with one level: demotion and the
   boosts have nowhere to move a task, so its one FIFO keeps arrival
   order. *)
let rr_class =
  { sc_name = "rr"; sc_quanta = [| Task.default_quantum |]; sc_nice = false }

(* Interactive levels run short; batch work sinks to the long slices. *)
let mlfq_class =
  { sc_name = "mlfq"; sc_quanta = [| 2; 4; 8; 16 |]; sc_nice = true }
let mlfq_boost_ticks = 100  (* periodic anti-starvation boost, per core *)

let class_of_policy = function
  | Kconfig.Sched_rr -> rr_class
  | Kconfig.Sched_mlfq -> mlfq_class

(* ---- the runqueue: one FIFO per level ----

   These run on every wakeup, dispatch and tick, so they build no
   closures and no options beyond what [Queue] itself returns. *)

let rq_len rq =
  let n = ref 0 in
  for l = 0 to Array.length rq - 1 do
    n := !n + Queue.length rq.(l)
  done;
  !n

(* Wakeup, arrival or preemption: the back of the task's own level. A
   level is always in range: it is only ever reset to 0 or demoted by
   the tick, which stops at the last level, and every core of a kernel
   shares one class. *)
let rq_add rq task = Queue.add task rq.(task.Task.mlfq_level)

(* The first non-empty level from [l] on, walking by [step]; -1 if none. *)
let rec rq_find rq l step =
  if l < 0 || l >= Array.length rq then -1
  else if Queue.is_empty rq.(l) then rq_find rq (l + step) step
  else l

(* The most urgent queued level, or -1 when the queue is empty. *)
let rq_best rq = rq_find rq 0 1

let rq_pick rq =
  match rq_best rq with -1 -> None | l -> Queue.take_opt rq.(l)

(* The victim side of stealing and balancing takes batch work first:
   interactive tasks stay cache-hot. *)
let rq_steal rq =
  match rq_find rq (Array.length rq - 1) (-1) with
  | -1 -> None
  | l -> Queue.take_opt rq.(l)

(* Ticks until preemption. Nice scaling: -20 doubles the slice, +19
   shrinks it to a tick. *)
let quantum cls task =
  let base = cls.sc_quanta.(task.Task.mlfq_level) in
  if cls.sc_nice then max 1 (base * (20 - task.Task.nice) / 20) else base

let engine t = t.board.Hw.Board.engine
let now t = Sim.Engine.now (engine t)
let cyc t n = Hw.Board.cycles_to_ns t.board n

(* Per-core series share a name across cores and differ by a core label;
   the names follow the /proc/sched keys. *)
let core_stats kperf core_id =
  let label = ("core", string_of_int core_id) in
  let c = Kperf.counter kperf ~label in
  let switches = c "vos_ctx_switches_total" in
  let migrations = c "vos_sched_migrations_total" in
  let steals = c "vos_sched_steals_total" in
  let balance_moves = c "vos_sched_balance_moves_total" in
  let ipis_to = c "vos_sched_ipis_sent_to_total" in
  let ipis_recv = c "vos_sched_ipis_taken_total" in
  { switches; migrations; steals; balance_moves; ipis_to; ipis_recv;
    delay_hist = Kperf.hist kperf ~label "vos_sched_run_delay_ns" }

let create board config =
  let active =
    if config.Kconfig.multicore then board.Hw.Board.platform.Hw.Board.num_cores
    else 1
  in
  let cls = class_of_policy config.Kconfig.sched_policy in
  let kperf = Kperf.create () in
  kperf.Kperf.profile_hz <- config.Kconfig.profile_hz;
  let trace = Ktrace.create () in
  let t =
    {
      board;
      config;
      trace;
      kperf;
      h_syscall = Kperf.hist kperf "vos_syscall_service_ns";
      h_poll_wait = Kperf.hist kperf "vos_poll_wait_ns";
      h_pipe_wait = Kperf.hist kperf "vos_pipe_read_wait_ns";
      h_sd_req = Kperf.hist kperf "vos_sd_request_ns";
      vprobe = Vprobe.create trace;
      cls;
      cores =
        Array.init board.Hw.Board.platform.Hw.Board.num_cores (fun core_id ->
            let timer_name = Hw.Irq.describe (Hw.Irq.Core_timer core_id) in
            {
              core_id;
              timer_name;
              timer_span = "irq:" ^ timer_name;
              rq = Array.map (fun _ -> Queue.create ()) cls.sc_quanta;
              stats = core_stats kperf core_id;
              current = None;
              last_pid = 0;
              ipi_pending = false;
              in_irq = None;
              ticks = 0;
              burn_started = 0L;
              burn_until = 0L;
              burn_event = None;
              burn_after = None;
              busy_ns = 0L;
              io_busy_ns = 0L;
            });
      active_cores = active;
      tasks = Hashtbl.create 64;
      next_pid = 0;
      dispatch = (fun _ -> Kpanic.panicf "sched: no syscall dispatcher installed");
      irq_drivers = [];
      wait_chans = Hashtbl.create 32;
      frame_counts = Hashtbl.create 16;
      on_task_exit = [];
      on_panic = None;
      flight_recorder = None;
      frame_hook = None;
      syscall_hook = None;
      tick_interval_ms = 1;
      started = false;
      kcheck = None;
      ptable = None;
    }
  in
  Kperf.register_counter kperf "vos_trace_events_total" (fun () ->
      t.trace.Ktrace.head);
  Kperf.register_counter kperf "vos_profile_samples_total" (fun () ->
      kperf.Kperf.profile_samples);
  t

(* One more frame presented by [pid], for {!frames_presented}. Counted
   at the two present sites whether or not the trace records the event,
   so a wrapped or filtered ring does not lose frames. *)
let count_frame t pid =
  Hashtbl.replace t.frame_counts pid
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.frame_counts pid))

(* Events with no task context (device IRQs routed to core 0, kernel
   daemons): attributed to core 0. Task-attributed events go through
   [trace_emit_task], which stamps the core the task occupies. *)
let trace_emit t ev = Ktrace.emit t.trace ~ts_ns:(now t) ~core:0 ev

let trace_emit_core t ~core ev = Ktrace.emit t.trace ~ts_ns:(now t) ~core ev

(* The core [task] occupies, or else the one it last ran on. *)
let task_core task =
  match task.Task.state with
  | Task.Running c -> c
  | Task.Runnable | Task.Blocked _ | Task.Zombie -> max 0 task.Task.last_core

let trace_emit_task t task ev =
  Ktrace.emit t.trace ~ts_ns:(now t) ~core:(task_core task) ev

(* ---- delay accounting ---- *)

let state_code = function
  | Task.Runnable -> 0
  | Task.Running _ -> 1
  | Task.Blocked _ -> 2
  | Task.Zombie -> 3

(* Close the open delay segment: bucket [now - d_state_since] by the
   state being left. Zombie time accrues to sleep (zombies are parked
   waiting for a reaper); /proc/delays lists live tasks only. *)
let delay_fold task ~now_ns =
  let dt = Int64.sub now_ns task.Task.d_state_since in
  let dt = if Int64.compare dt 0L > 0 then dt else 0L in
  (match task.Task.state with
  | Task.Runnable ->
      task.Task.d_runnable_ns <- Int64.add task.Task.d_runnable_ns dt
  | Task.Running _ ->
      task.Task.d_oncpu_ns <- Int64.add task.Task.d_oncpu_ns dt
  | Task.Blocked chan -> (
      match chan with
      | Task.Pipe_readable _ | Task.Pipe_writable _ ->
          task.Task.d_blk_pipe_ns <- Int64.add task.Task.d_blk_pipe_ns dt
      | Task.Sem_count _ ->
          task.Task.d_blk_lock_ns <- Int64.add task.Task.d_blk_lock_ns dt
      | Task.Wm_events _ | Task.Kbd_events | Task.Uart_input | Task.Audio_space ->
          task.Task.d_blk_io_ns <- Int64.add task.Task.d_blk_io_ns dt
      | Task.Exit_of _ | Task.Children_of _ | Task.Debug_stop _
      | Task.Poll_waiters | Task.Sleeping ->
          task.Task.d_sleep_ns <- Int64.add task.Task.d_sleep_ns dt)
  | Task.Zombie -> task.Task.d_sleep_ns <- Int64.add task.Task.d_sleep_ns dt);
  task.Task.d_state_since <- now_ns

(* The single gateway for task-state transitions: every assignment of
   [Task.state] in this file goes through here so delay accounting can
   never miss an edge. Pure host-side bookkeeping — nothing is charged —
   and the optional Task_state event is gated by the tracer's dstate
   toggle so armed traces stay byte-identical. *)
let set_state t task new_state =
  delay_fold task ~now_ns:(now t);
  if t.trace.Ktrace.dstate then
    Ktrace.emit t.trace ~ts_ns:(now t)
      ~core:(max 0 task.Task.last_core)
      (Ktrace.Task_state (task.Task.pid, state_code new_state));
  task.Task.state <- new_state

(* Runnable-queue depth after a queue change, for the Perfetto counter
   track. Same dstate gate as Task_state. *)
let emit_runq_depth t core =
  if t.trace.Ktrace.dstate then
    Ktrace.emit t.trace ~ts_ns:(now t) ~core:core.core_id
      (Ktrace.Runq_depth (core.core_id, rq_len core.rq))

(* ---- kcheck / ptable plumbing ---- *)

(* The ptable lock brackets only the state/queue mutations themselves
   (never the enqueue paths, which can synchronously run other tasks), so
   holds are leaf-scoped and acquisition can never recurse. *)
let ptable_acquire t ~core =
  match t.ptable with
  | Some l -> Spinlock.acquire l ~core ~now_ns:(now t)
  | None -> ()

let ptable_release t ~core =
  match t.ptable with
  | Some l -> Spinlock.release l ~core ~now_ns:(now t)
  | None -> ()

let kcheck_blocked t ~pid ~core =
  match t.kcheck with
  | Some kc -> Kcheck.task_blocked kc ~pid ~core
  | None -> ()

let kcheck_audit t ~reason =
  match t.kcheck with Some kc -> Kcheck.audit kc ~reason | None -> ()

let is_zombie task = task.Task.state = Task.Zombie

(* ---- busy accounting ---- *)

let add_busy core ns =
  core.busy_ns <- Int64.add core.busy_ns ns

let add_io_busy core ns = core.io_busy_ns <- Int64.add core.io_busy_ns ns

(* ---- per-core scheduler statistics ---- *)

let record_run_delay core delay_ns =
  if Int64.compare delay_ns 0L >= 0 then
    Kperf.Hist.record core.stats.delay_hist delay_ns

let stats t core_id = t.cores.(core_id).stats
let runq_len core = rq_len core.rq
let class_name t = t.cls.sc_name

(* ---- reschedule IPIs ---- *)

(* Kick [core]: write its local mailbox. The modeled latency spans the
   sender's mailbox write through interconnect propagation to the target's
   vector entry; duplicate kicks while one is in flight coalesce, like the
   level-triggered mailbox bit they model. *)
let send_ipi t core =
  if not core.ipi_pending then begin
    core.ipi_pending <- true;
    core.stats.ipis_to.Kperf.n <- core.stats.ipis_to.Kperf.n + 1;
    trace_emit_core t ~core:core.core_id (Ktrace.Ipi_send core.core_id);
    ignore
      (Sim.Engine.schedule_after (engine t)
         (cyc t (Kcost.ipi_send + Kcost.ipi_latency))
         (fun () ->
           Hw.Intc.send_ipi t.board.Hw.Board.intc ~target:core.core_id))
  end

(* ---- burns: occupying a core for simulated time ---- *)

let core_of_task t task =
  match task.Task.state with
  | Task.Running c -> t.cores.(c)
  | Task.Runnable | Task.Blocked _ | Task.Zombie ->
      Kpanic.panicf "sched: task %d (%s) not running" task.Task.pid
        (Task.state_name task)

(* ---- work stealing ---- *)

(* The core a pick-time steal would take from: the first of the longest
   other queues, or -1 when every other queue is empty. Pick-time stealing
   is the seed's mechanism; it yields to the balance pass when that is
   on. *)
let steal_victim t thief =
  if t.active_cores = 1 || t.config.Kconfig.load_balance_ms > 0 then -1
  else begin
    let victim = ref (-1) and longest = ref 0 in
    for i = 0 to t.active_cores - 1 do
      let n = rq_len t.cores.(i).rq in
      if i <> thief.core_id && n > !longest then begin
        victim := i;
        longest := n
      end
    done;
    !victim
  end

(* Run [after] once [task] has burned [ns] of CPU on its current core. *)
let rec start_burn t task ns after =
  let core = core_of_task t task in
  if Int64.compare ns 1L < 0 then after ()
  else begin
    assert (core.burn_event = None);
    let start = now t in
    core.burn_started <- start;
    core.burn_until <- Int64.add start ns;
    core.burn_after <- Some after;
    schedule_burn_end t core task after
  end

(* Schedule the end of [core]'s burn at [burn_until]: charge the time
   burned since [burn_started] to the core and [task], then run
   [after]. *)
and schedule_burn_end t core task after =
  core.burn_event <-
    Some
      (Sim.Engine.schedule_at (engine t) core.burn_until (fun () ->
           core.burn_event <- None;
           core.burn_after <- None;
           let elapsed = Int64.sub (now t) core.burn_started in
           add_busy core elapsed;
           task.Task.cpu_ns <- Int64.add task.Task.cpu_ns elapsed;
           if task.Task.killed then raise_exit t task (-1) else after ()))

(* Interrupt handlers steal cycles from whatever burn is in flight. *)
and steal_cycles t core ns =
  match core.burn_event with
  | None -> add_busy core ns
  | Some id ->
      Sim.Engine.cancel (engine t) id;
      core.burn_until <- Int64.add core.burn_until ns;
      schedule_burn_end t core (Option.get core.current)
        (Option.get core.burn_after)

(* ---- run queues ---- *)

and pick_target_core t task =
  if t.active_cores = 1 then t.cores.(0)
  else begin
    (* prefer an idle core, else the shortest queue *)
    let best = ref t.cores.(0) in
    let score c =
      (match c.current with None -> 0 | Some _ -> 1000) + rq_len c.rq
    in
    for i = 1 to t.active_cores - 1 do
      if score t.cores.(i) < score !best then best := t.cores.(i)
    done;
    if
      t.config.Kconfig.wake_affinity
      && task.Task.last_core >= 0
      && task.Task.last_core < t.active_cores
    then begin
      (* cache affinity: stay on the last-run core unless it is
         meaningfully busier than the best candidate (one slot of slack) *)
      let home = t.cores.(task.Task.last_core) in
      if score home <= score !best + 1 then home else !best
    end
    else !best
  end

and enqueue_task t task =
  assert (task.Task.state = Task.Runnable);
  assert (task.Task.resume <> None);
  let core = pick_target_core t task in
  task.Task.runnable_since <- now t;
  rq_add core.rq task;
  trace_emit_core t ~core:core.core_id (Ktrace.Sched_wakeup task.Task.pid);
  emit_runq_depth t core;
  kick_core t core task

(* The woken core learns about the new arrival per the wake model: the
   seed's instant scheduling, nothing (its next tick polls the queue), or
   a reschedule IPI — also sent when the arrival should preempt what the
   core currently runs (MLFQ priority). *)
and kick_core t core task =
  let idle = core.current = None && core.burn_event = None in
  match t.config.Kconfig.wake_model with
  | Kconfig.Wake_direct -> if idle then schedule_core t core
  | Kconfig.Wake_tick -> ()
  | Kconfig.Wake_ipi ->
      if idle then send_ipi t core
      else begin
        match core.current with
        | Some cur when task.Task.mlfq_level < cur.Task.mlfq_level ->
            send_ipi t core
        | Some _ | None -> ()
      end

(* Steal a task from the longest other queue. *)
and try_steal t thief =
  match steal_victim t thief with
  | -1 -> None
  | v ->
      let stolen = rq_steal t.cores.(v).rq in
      (match stolen with
      | Some _ ->
          let c = thief.stats.steals in
          c.Kperf.n <- c.Kperf.n + 1
      | None -> ());
      stolen

and schedule_core t core =
  if core.current = None && core.burn_event = None then begin
    let next =
      match rq_pick core.rq with
      | Some task -> Some task
      | None -> try_steal t core
    in
    match next with
    | None -> () (* WFI idle *)
    | Some task ->
        if is_zombie task || task.Task.resume = None then schedule_core t core
        else begin
          core.current <- Some task;
          core.stats.switches.Kperf.n <- core.stats.switches.Kperf.n + 1;
          let migrated =
            task.Task.last_core >= 0 && task.Task.last_core <> core.core_id
          in
          if migrated then begin
            let c = core.stats.migrations in
            c.Kperf.n <- c.Kperf.n + 1;
            trace_emit_core t ~core:core.core_id
              (Ktrace.Sched_migrate
                 (task.Task.pid, task.Task.last_core, core.core_id));
          end;
          (if Int64.compare task.Task.runnable_since 0L >= 0 then begin
             record_run_delay core
               (Int64.sub (now t) task.Task.runnable_since);
             task.Task.runnable_since <- (-1L)
           end);
          task.Task.last_core <- core.core_id;
          set_state t task (Task.Running core.core_id);
          task.Task.quantum_left <- quantum t.cls task;
          let resume = Option.get task.Task.resume in
          task.Task.resume <- None;
          trace_emit_core t ~core:core.core_id
            (Ktrace.Ctx_switch (core.last_pid, task.Task.pid));
          emit_runq_depth t core;
          core.last_pid <- task.Task.pid;
          (* the context-switch cost precedes the task's first instruction;
             a migrated task also refills its caches when the affinity
             model is on *)
          let switch_cycles =
            Kcost.ctx_switch + Kcost.sched_pick
            + if migrated && t.config.Kconfig.wake_affinity then
                Kcost.sched_migrate
              else 0
          in
          let switch_ns = cyc t switch_cycles in
          add_busy core switch_ns;
          let span = Ktrace.new_span t.trace in
          trace_emit_core t ~core:core.core_id
            (Ktrace.Span_begin (span, task.Task.pid, "switch"));
          ignore
            (Sim.Engine.schedule_after (engine t) switch_ns (fun () ->
                 trace_emit_core t ~core:core.core_id (Ktrace.Span_end span);
                 if task.Task.killed && task.Task.kind = Task.User then
                   raise_exit t task (-1)
                 else resume ()))
        end
  end

(* Release the core a task occupies (it blocked or exited). *)
and release_core t task =
  match task.Task.state with
  | Task.Running c ->
      let core = t.cores.(c) in
      (match core.burn_event with
      | Some id ->
          (* should not happen: blocking always occurs between burns *)
          Sim.Engine.cancel (engine t) id;
          core.burn_event <- None;
          core.burn_after <- None
      | None -> ());
      core.current <- None;
      schedule_core t core
  | Task.Runnable | Task.Blocked _ | Task.Zombie -> ()

(* ---- task exit ---- *)

and raise_exit t task code =
  (* Terminate from within the task's execution context: run teardown and
     hand the core over. The task's continuation is abandoned. *)
  do_exit t task code

and do_exit t task code =
  if not (is_zombie task) then begin
    task.Task.exit_code <- code;
    task.Task.cur_syscall <- None;
    let was_running = match task.Task.state with Task.Running _ -> true | Task.Runnable | Task.Blocked _ | Task.Zombie -> false in
    List.iter (fun hook -> hook task) t.on_task_exit;
    kcheck_audit t ~reason:(fun () ->
        Printf.sprintf "exit of task %d" task.Task.pid);
    (match task.Task.vm with
    | Some vm ->
        Vm.destroy vm;
        task.Task.vm <- None
    | None -> ());
    (* reparent children to init (pid 1) *)
    List.iter
      (fun child_pid ->
        match Hashtbl.find_opt t.tasks child_pid with
        | Some child -> child.Task.parent <- 1
        | None -> ())
      task.Task.children;
    let charge = cyc t Kcost.exit_teardown in
    let finish_exit () =
      if was_running then begin
        (match task.Task.state with
        | Task.Running c ->
            t.cores.(c).current <- None;
            set_state t task Task.Zombie;
            wake_all t (Task.Exit_of task.Task.pid);
            wake_all t (Task.Children_of task.Task.parent);
            schedule_core t t.cores.(c)
        | Task.Runnable | Task.Blocked _ | Task.Zombie -> ())
      end
      else begin
        set_state t task Task.Zombie;
        wake_all t (Task.Exit_of task.Task.pid);
        wake_all t (Task.Children_of task.Task.parent)
      end
    in
    match task.Task.state with
    | Task.Running _ when Int64.compare charge 0L > 0 ->
        ignore (Sim.Engine.schedule_after (engine t) charge finish_exit)
    | Task.Running _ | Task.Runnable | Task.Blocked _ | Task.Zombie ->
        finish_exit ()
  end

(* ---- wait channels ---- *)

(* Make a blocked waiter runnable; [retry] re-enters its syscall. The
   sleeper boost: a task that blocked voluntarily is interactive, so it
   goes back to level 0. *)
and wake_waiter t (task, retry) =
  ptable_acquire t ~core:0;
  set_state t task Task.Runnable;
  task.Task.resume <- Some retry;
  ptable_release t ~core:0;
  task.Task.mlfq_level <- 0;
  enqueue_task t task

and wake_all t chan =
  match Hashtbl.find_opt t.wait_chans chan with
  | None -> ()
  | Some q when Queue.is_empty q -> ()
  | Some q ->
      let entries = Queue.to_seq q |> List.of_seq in
      Queue.clear q;
      List.iter
        (fun ((task, _) as w) -> if not (is_zombie task) then wake_waiter t w)
        entries

(* Wake at most one waiter; the woken pid feeds the Sem_wake trace
   event. *)
let wake_one t chan =
  match Hashtbl.find_opt t.wait_chans chan with
  | None -> None
  | Some q -> (
      match Queue.take_opt q with
      | Some ((task, _) as w) when not (is_zombie task) ->
          wake_waiter t w;
          Some task.Task.pid
      | Some _ | None -> None)

(* All pollers park on one shared channel: a task can only block on one
   chan, so poll cannot sleep on each fd's own channel. Producers (pipes,
   keyboard, UART, WM event queues) call [poll_wake] at every readiness
   transition; each woken poller rescans its own fd set and re-blocks if
   still idle. Free when nobody is polling, so the paper paths that never
   poll are untouched. *)
let poll_wake t = wake_all t Task.Poll_waiters

(* ---- the syscall context API (used by the dispatcher in Syscall) ---- *)

let charge ctx cycles = ctx.charge_cycles <- ctx.charge_cycles + cycles

let charge_io ctx ns = ctx.charge_io <- Int64.add ctx.charge_io ns

let finish ctx ret =
  assert (not ctx.done_);
  ctx.done_ <- true;
  let t = ctx.sched in
  let task = ctx.task in
  let cpu_cycles =
    ctx.charge_cycles
    + if task.Task.kind = Task.User then Kcost.syscall_exit else 0
  in
  let total = Int64.add (cyc t cpu_cycles) ctx.charge_io in
  (match task.Task.state with
  | Task.Running c ->
      if Int64.compare ctx.charge_io 0L > 0 then
        add_io_busy t.cores.(c) ctx.charge_io
  | Task.Runnable | Task.Blocked _ | Task.Zombie -> ());
  start_burn t task total (fun () ->
      task.Task.cur_syscall <- None;
      Kperf.Hist.record t.h_syscall (Int64.sub (now t) ctx.entry_ns);
      trace_emit_task t task
        (Ktrace.Syscall_exit (task.Task.pid, Abi.syscall_name ctx.call));
      trace_emit_task t task (Ktrace.Span_end ctx.span);
      if Ktrace.probing t.trace then begin
        let errno =
          match ret with
          | Abi.R_int v when v < 0 -> -v
          | Abi.R_int _ | Abi.R_bytes _ | Abi.R_pair _ | Abi.R_stat _
          | Abi.R_mmap _ ->
              0
        in
        trace_emit_task t task
          (Ktrace.Probe
             (Ktrace.Sys_result
                ( Abi.syscall_index ctx.call,
                  task.Task.pid,
                  Option.value ~default:(-1) (Abi.syscall_fd ctx.call),
                  Abi.syscall_arg0 ctx.call,
                  errno,
                  Int64.to_int (Int64.sub (now t) ctx.entry_ns) )))
      end;
      Effect.Deep.continue ctx.kont ret)

(* Take [task] off [core] and park it on [chan], xv6's sleep: [resume]
   runs once the channel is woken. *)
let park t task ~core chan resume =
  let q =
    match Hashtbl.find_opt t.wait_chans chan with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.wait_chans chan q;
        q
  in
  release_core t task;
  ptable_acquire t ~core;
  set_state t task (Task.Blocked chan);
  Queue.add (task, resume) q;
  ptable_release t ~core;
  kcheck_blocked t ~pid:task.Task.pid ~core

(* Block the calling task on [chan]; [retry] re-enters the syscall path
   when the channel is woken. *)
let block ctx ~chan ~retry =
  match ctx.task.Task.state with
  | Task.Running core -> park ctx.sched ctx.task ~core chan retry
  | Task.Runnable | Task.Blocked _ | Task.Zombie ->
      Kpanic.panicf "sched: blocking a task that is not running"

(* Park the task and deliver [ret] after [delay_ns] (sleep, timed IO). *)
let finish_after ctx ~delay_ns ret =
  let t = ctx.sched in
  let task = ctx.task in
  let core = task_core task in
  release_core t task;
  set_state t task (Task.Blocked Task.Sleeping);
  kcheck_blocked t ~pid:task.Task.pid ~core;
  ignore
    (Sim.Engine.schedule_after (engine t) delay_ns (fun () ->
         if not (is_zombie task) then begin
           set_state t task Task.Runnable;
           task.Task.resume <- Some (fun () -> finish ctx ret);
           task.Task.mlfq_level <- 0;
           enqueue_task t task
         end))

(* ---- running tasks under the effect handler ---- *)

(* Debug monitor stop: park the running task on its debug channel;
   Debugmon.resume wakes it. *)
let park_for_debug t task thunk =
  park t task ~core:(task_core task) (Task.Debug_stop task.Task.pid) thunk

(* A panic leaves kernel code in one of two places: out of the event loop
   ({!recording_panics}) or out of a task, into [run_computation]'s exception
   handler. Each runs the flight recorder once, and the recorder must
   never turn a panic into a different failure, so anything it raises is
   swallowed. *)
let record_panic t msg =
  match t.flight_recorder with
  | Some f -> ( try f msg with _ -> ())
  | None -> ()

let rec run_computation t task main () =
  let open Effect.Deep in
  match_with
    (fun () ->
      let code = main () in
      code)
    ()
    {
      retc = (fun code -> do_exit t task code);
      exnc =
        (fun exn ->
          (match exn with Kpanic.Panic msg -> record_panic t msg | _ -> ());
          trace_emit_task t task
            (Ktrace.Custom
               (Printf.sprintf "task %d (%s) uncaught exception: %s"
                  task.Task.pid task.Task.name (Printexc.to_string exn)));
          do_exit t task (-2));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Abi.Sys call ->
              Some
                (fun (k : (a, unit) continuation) ->
                  handle_trap t task call
                    (k : (Abi.ret, unit) continuation))
          | Abi.Burn cycles ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let ns = cyc t (max 1 cycles) in
                  start_burn t task ns (fun () -> continue k ()))
          | Abi.Offload (cycles, fn) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* Virtual cost is a plain burn; the host-side work is a
                     Par event. The Par is scheduled before the burn-end
                     event at the same instant, so its commit (smaller
                     seq) has filled the cell by the time the burn
                     delivers the result — preemption can only move the
                     burn end later. A ≥ 1 ns floor keeps the burn
                     asynchronous even for cycle counts that round to
                     zero. *)
                  (match task.Task.state with
                  | Task.Running _ -> ()
                  | Task.Runnable | Task.Blocked _ | Task.Zombie ->
                      Kpanic.panicf "sched: offload from task %d (%s), not running"
                        task.Task.pid (Task.state_name task));
                  let ns = Int64.max 1L (cyc t (max 1 cycles)) in
                  let cell = ref None in
                  ignore
                    (Sim.Engine.schedule_par (engine t)
                       (Int64.add (now t) ns)
                       (fun () ->
                         let r = fn () in
                         fun () -> cell := Some r));
                  start_burn t task ns (fun () ->
                      match !cell with
                      | Some r -> continue k r
                      | None ->
                          Kpanic.panicf
                            "sched: offload result missing for task %d"
                            task.Task.pid))
          | Abi.Frame_mark label ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if String.equal label "" then begin
                    (match task.Task.shadow_stack with
                    | [] -> ()
                    | _ :: rest -> task.Task.shadow_stack <- rest);
                    continue k ()
                  end
                  else begin
                    task.Task.shadow_stack <- label :: task.Task.shadow_stack;
                    match t.frame_hook with
                    | Some hook when hook task label ->
                        park_for_debug t task (fun () -> continue k ())
                    | Some _ | None -> continue k ()
                  end)
          | _ -> None);
    }

and handle_trap t task call k =
  task.Task.syscall_count <- task.Task.syscall_count + 1;
  let name = Abi.syscall_name call in
  task.Task.cur_syscall <- Some name;
  trace_emit_task t task (Ktrace.Syscall_enter (task.Task.pid, name));
  if Ktrace.probing t.trace then
    trace_emit_task t task
      (Ktrace.Probe
         (Ktrace.Sys_args
            ( Abi.syscall_index call,
              task.Task.pid,
              Option.value ~default:(-1) (Abi.syscall_fd call),
              Abi.syscall_arg0 call )));
  let span = Ktrace.new_span t.trace in
  trace_emit_task t task (Ktrace.Span_begin (span, task.Task.pid, "sys:" ^ name));
  let entry_cycles =
    if task.Task.kind = Task.User then
      Kcost.syscall_entry + Kcost.syscall_dispatch
    else 300 (* kernel threads call in directly *)
  in
  let ctx =
    {
      sched = t;
      task;
      call;
      charge_cycles = entry_cycles;
      charge_io = 0L;
      kont = k;
      done_ = false;
      entry_ns = now t;
      span;
    }
  in
  match t.syscall_hook with
  | Some hook when hook task (Abi.syscall_name call) ->
      park_for_debug t task (fun () -> t.dispatch ctx)
  | Some _ | None -> t.dispatch ctx

(* ---- spawning ---- *)

let spawn t ~name ~kind ?vm ?(parent = 0) main =
  t.next_pid <- t.next_pid + 1;
  let task = Task.create ~pid:t.next_pid ~name ~kind ?vm ~parent () in
  task.Task.d_spawned_ns <- now t;
  task.Task.d_state_since <- now t;
  Hashtbl.replace t.tasks task.Task.pid task;
  (match Hashtbl.find_opt t.tasks parent with
  | Some p -> p.Task.children <- task.Task.pid :: p.Task.children
  | None -> ());
  task.Task.resume <- Some (run_computation t task main);
  enqueue_task t task;
  task

(* exec(2): burn the accumulated syscall charge, abandon the trapping
   continuation, and restart the task with [main]. *)
let exec_replace ctx main =
  assert (not ctx.done_);
  ctx.done_ <- true;
  let t = ctx.sched in
  let task = ctx.task in
  let total = Int64.add (cyc t ctx.charge_cycles) ctx.charge_io in
  start_burn t task total (fun () ->
      task.Task.cur_syscall <- None;
      Kperf.Hist.record t.h_syscall (Int64.sub (now t) ctx.entry_ns);
      trace_emit_task t task (Ktrace.Span_end ctx.span);
      match task.Task.state with
      | Task.Running c ->
          t.cores.(c).current <- None;
          set_state t task Task.Runnable;
          task.Task.resume <- Some (run_computation t task main);
          task.Task.shadow_stack <- [];
          enqueue_task t task;
          schedule_core t t.cores.(c)
      | Task.Runnable | Task.Blocked _ | Task.Zombie -> ())

(* Kill a task that is not currently on a CPU: pull it out of the one wait
   channel it records in [Task.Blocked chan] and terminate it. Running
   tasks die at their next preemption point via the [killed] flag — under
   the IPI wake model that point is brought forward to IPI latency by
   kicking the victim's core. *)
let force_kill t task =
  task.Task.killed <- true;
  match task.Task.state with
  | Task.Running c ->
      (* dies at the next burn completion — or at the reschedule IPI *)
      if t.config.Kconfig.wake_model = Kconfig.Wake_ipi then
        send_ipi t t.cores.(c)
  | Task.Zombie -> ()
  | Task.Blocked chan ->
      (* a blocked task records its channel: remove it from that one
         queue, O(queue) instead of O(all wait channels). A timed park
         ([Task.Sleeping]) has no channel queue — the engine callback
         checks for zombies. *)
      (match Hashtbl.find_opt t.wait_chans chan with
      | None -> ()
      | Some q ->
          let entries = Queue.to_seq q |> List.of_seq in
          Queue.clear q;
          List.iter
            (fun ((waiting, _) as entry) ->
              if waiting.Task.pid <> task.Task.pid then Queue.add entry q)
            entries);
      do_exit t task (-1)
  | Task.Runnable ->
      (* queued on some core: schedule_core skips it once it is a zombie *)
      do_exit t task (-1)

(* ---- timer ticks and preemption ---- *)

let preempt t core =
  match (core.current, core.burn_event) with
  | Some task, Some id ->
      Sim.Engine.cancel (engine t) id;
      let elapsed = Int64.sub (now t) core.burn_started in
      add_busy core elapsed;
      task.Task.cpu_ns <- Int64.add task.Task.cpu_ns elapsed;
      let remaining = Int64.sub core.burn_until (now t) in
      let after = Option.get core.burn_after in
      core.burn_event <- None;
      core.burn_after <- None;
      core.current <- None;
      set_state t task Task.Runnable;
      task.Task.runnable_since <- now t;
      task.Task.resume <-
        Some (fun () -> start_burn t task remaining after);
      (* go to the back of its own level on this core's queue *)
      rq_add core.rq task;
      emit_runq_depth t core;
      schedule_core t core
  | Some _, None | None, _ -> ()

(* Reschedule IPI taken on [core_id]: run the same checks a tick would,
   at IPI latency — dispatch queued work on an idle core, kill a flagged
   victim, or preempt for a higher-priority arrival. *)
let ipi_recv t core_id =
  let core = t.cores.(core_id) in
  core.ipi_pending <- false;
  core.stats.ipis_recv.Kperf.n <- core.stats.ipis_recv.Kperf.n + 1;
  trace_emit_core t ~core:core_id (Ktrace.Ipi_recv core_id);
  steal_cycles t core (cyc t Kcost.ipi_handler);
  match core.current with
  | None -> schedule_core t core
  | Some task when task.Task.killed -> preempt t core
  | Some cur ->
      let best = rq_best core.rq in
      if best >= 0 && best < cur.Task.mlfq_level then preempt t core

let tick t core_id =
  let core = t.cores.(core_id) in
  core.ticks <- core.ticks + 1;
  steal_cycles t core (cyc t Kcost.timer_tick_work);
  (* the sampling profiler rides the generic timer: attribute what the
     core was doing when the tick fired (host-side only, zero cycles) *)
  (let hz = t.kperf.Kperf.profile_hz in
   if hz > 0 then begin
     let tick_hz = 1000 / max 1 t.tick_interval_ms in
     let period = max 1 (tick_hz / hz) in
     if core.ticks mod period = 0 then begin
       let pid, where_ =
         match core.current with
         | None -> (0, "idle")
         | Some task -> (
             ( task.Task.pid,
               match task.Task.cur_syscall with
               | Some name -> "sys:" ^ name
               | None -> (
                   match core.in_irq with
                   | Some line -> "irq:" ^ line
                   | None -> "user") ))
       in
       Kperf.sample t.kperf ~core:core_id ~pid ~where_
     end
   end);
  (* anti-starvation: periodically boost everything queued here back to
     level 0 so demoted batch work cannot starve *)
  if core.ticks mod mlfq_boost_ticks = 0 then
    for l = 1 to Array.length core.rq - 1 do
      Queue.iter (fun task -> task.Task.mlfq_level <- 0) core.rq.(l);
      Queue.transfer core.rq.(l) core.rq.(0)
    done;
  (match core.current with
  | Some task ->
      task.Task.quantum_left <- task.Task.quantum_left - 1;
      if
        task.Task.quantum_left <= 0
        && (rq_len core.rq > 0 || steal_victim t core >= 0)
      then begin
        (* demotion: a task that used its whole slice drops a level *)
        task.Task.mlfq_level <-
          min (task.Task.mlfq_level + 1) (Array.length core.rq - 1);
        preempt t core
      end
  | None -> schedule_core t core);
  Hw.Timer.arm_core_timer t.board.Hw.Board.timer ~core:core_id
    ~delta_ns:(Sim.Engine.ms t.tick_interval_ms)

(* ---- periodic load balancing ---- *)

(* Equalize runqueue depth: repeatedly move one task from the deepest to
   the shallowest queue until they are within one of each other. Replaces
   pick-time stealing (see [try_steal]) when enabled. The pass runs as a
   kernel daemon billed to core 0, like the tick's bookkeeping. *)
let balance_pass t =
  steal_cycles t t.cores.(0) (cyc t Kcost.load_balance_pass);
  let moved = ref true in
  while !moved do
    moved := false;
    let busiest = ref t.cores.(0) and idlest = ref t.cores.(0) in
    for i = 1 to t.active_cores - 1 do
      let c = t.cores.(i) in
      if rq_len c.rq > rq_len !busiest.rq then busiest := c;
      if rq_len c.rq < rq_len !idlest.rq then idlest := c
    done;
    if rq_len !busiest.rq > rq_len !idlest.rq + 1 then begin
      match rq_steal !busiest.rq with
      | Some task ->
          let dst = !idlest in
          rq_add dst.rq task;
          let c = dst.stats.balance_moves in
          c.Kperf.n <- c.Kperf.n + 1;
          kick_core t dst task;
          moved := true
      | None -> ()
    end
  done

(* ---- interrupts ---- *)

let register_irq t line handler =
  t.irq_drivers <- (line, handler) :: t.irq_drivers;
  Hw.Intc.route t.board.Hw.Board.intc line ~core:0

(* A core's timer line fires every tick, so its two names come from the
   core record, built once; the rarer device lines build theirs here.
   (The pair is bound straight from the match, so it allocates no
   tuple.) *)
let on_irq t core_id line =
  let core = t.cores.(core_id) in
  let desc, span_name =
    match line with
    | Hw.Irq.Core_timer c -> (t.cores.(c).timer_name, t.cores.(c).timer_span)
    | Hw.Irq.Ipi _ | Hw.Irq.Uart_rx | Hw.Irq.Usb_hc | Hw.Irq.Dma_channel _
    | Hw.Irq.Gpio_bank | Hw.Irq.Sd_card | Hw.Irq.Fiq_button ->
        let desc = Hw.Irq.describe line in
        (desc, "irq:" ^ desc)
  in
  trace_emit_core t ~core:core_id (Ktrace.Irq_enter desc);
  let span = Ktrace.new_span t.trace in
  trace_emit_core t ~core:core_id (Ktrace.Span_begin (span, 0, span_name));
  steal_cycles t core (cyc t (Kcost.irq_entry + Kcost.irq_exit));
  (* profiler attribution: the timer lines stay unmarked — the tick IS
     the sampler, and it must see the interrupted context, not itself *)
  let mark =
    match line with
    | Hw.Irq.Core_timer _ -> false
    | Hw.Irq.Ipi _ | Hw.Irq.Fiq_button | Hw.Irq.Uart_rx | Hw.Irq.Usb_hc
    | Hw.Irq.Dma_channel _ | Hw.Irq.Gpio_bank | Hw.Irq.Sd_card -> true
  in
  if mark then core.in_irq <- Some desc;
  (match line with
  | Hw.Irq.Core_timer c -> tick t c
  | Hw.Irq.Ipi c -> ipi_recv t c
  | Hw.Irq.Fiq_button -> (
      match t.on_panic with Some f -> f core_id | None -> ())
  | Hw.Irq.Uart_rx | Hw.Irq.Usb_hc | Hw.Irq.Dma_channel _ | Hw.Irq.Gpio_bank
  | Hw.Irq.Sd_card -> (
      match
        List.find_opt (fun (l, _) -> Hw.Irq.equal l line) t.irq_drivers
      with
      | Some (_, handler) -> handler ()
      | None ->
          trace_emit_core t ~core:core_id
            (Ktrace.Custom ("spurious irq " ^ desc))));
  if mark then core.in_irq <- None;
  trace_emit_core t ~core:core_id (Ktrace.Span_end span);
  trace_emit_core t ~core:core_id (Ktrace.Irq_exit desc)

(* Install interrupt entry points and start ticking. *)
let start t =
  if not t.started then begin
    t.started <- true;
    for c = 0 to Array.length t.cores - 1 do
      Hw.Intc.set_handler t.board.Hw.Board.intc ~core:c (fun line ->
          on_irq t c line)
    done;
    for c = 0 to t.active_cores - 1 do
      Hw.Timer.arm_core_timer t.board.Hw.Board.timer ~core:c
        ~delta_ns:(Sim.Engine.ms t.tick_interval_ms)
    done;
    if t.active_cores > 1 && t.config.Kconfig.load_balance_ms > 0 then begin
      let period = Sim.Engine.ms t.config.Kconfig.load_balance_ms in
      let rec pass () =
        balance_pass t;
        ignore (Sim.Engine.schedule_after (engine t) period pass)
      in
      ignore (Sim.Engine.schedule_after (engine t) period pass)
    end
  end

(* ---- inspection ---- *)

let task_by_pid t pid = Hashtbl.find_opt t.tasks pid

let all_tasks t =
  Hashtbl.fold (fun _ task acc -> task :: acc) t.tasks []
  |> List.sort (fun a b -> compare a.Task.pid b.Task.pid)

let reap t task =
  assert (is_zombie task);
  Hashtbl.remove t.tasks task.Task.pid;
  (match Hashtbl.find_opt t.tasks task.Task.parent with
  | Some p ->
      p.Task.children <-
        List.filter (fun pid -> pid <> task.Task.pid) p.Task.children
  | None -> ())

let frames_presented t ~pid =
  Option.value ~default:0 (Hashtbl.find_opt t.frame_counts pid)

(* ---- /proc/delays ---- *)

(* One row per live task, the open segment folded in as of [now], so the
   six buckets sum to (now - spawned) exactly. Folding mutates the task
   record (cheap, idempotent per instant), which also keeps the panic
   flight recorder's view current without a separate snapshot type. *)
type delay_row = {
  dr_pid : int;
  dr_name : string;
  dr_state : string;
  dr_oncpu : int64;
  dr_runnable : int64;
  dr_sleep : int64;
  dr_blk_io : int64;
  dr_blk_lock : int64;
  dr_blk_pipe : int64;
  dr_lifetime : int64;
}

let delay_rows t =
  let now_ns = now t in
  all_tasks t
  |> List.filter (fun task -> not (is_zombie task))
  |> List.map (fun task ->
         delay_fold task ~now_ns;
         {
           dr_pid = task.Task.pid;
           dr_name = task.Task.name;
           dr_state = Task.state_name task;
           dr_oncpu = task.Task.d_oncpu_ns;
           dr_runnable = task.Task.d_runnable_ns;
           dr_sleep = task.Task.d_sleep_ns;
           dr_blk_io = task.Task.d_blk_io_ns;
           dr_blk_lock = task.Task.d_blk_lock_ns;
           dr_blk_pipe = task.Task.d_blk_pipe_ns;
           dr_lifetime = Int64.sub now_ns task.Task.d_spawned_ns;
         })

let render_delays t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-5s %-12s %-14s %12s %12s %12s %12s %12s %12s %12s\n"
       "PID" "NAME" "STATE" "ONCPU" "RUNNABLE" "SLEEP" "BLK_IO" "BLK_LOCK"
       "BLK_PIPE" "LIFETIME");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-5d %-12s %-14s %12Ld %12Ld %12Ld %12Ld %12Ld %12Ld %12Ld\n"
           r.dr_pid r.dr_name r.dr_state r.dr_oncpu r.dr_runnable r.dr_sleep
           r.dr_blk_io r.dr_blk_lock r.dr_blk_pipe r.dr_lifetime))
    (delay_rows t);
  Buffer.contents buf

let core_busy_ns t core_id = t.cores.(core_id).busy_ns
let core_io_ns t core_id = t.cores.(core_id).io_busy_ns

(* Drive the engine with [f] under the event loop's panic exit: a panic
   an event raises is flight-recorded, then re-raised with its
   backtrace. Every driver of a kernel's clock runs under it. *)
let recording_panics t f =
  try f ()
  with Kpanic.Panic msg as e ->
    let bt = Printexc.get_raw_backtrace () in
    record_panic t msg;
    Printexc.raise_with_backtrace e bt

let run_until t time =
  recording_panics t (fun () -> Sim.Engine.run (engine t) ~until:time ())
