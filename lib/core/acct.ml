(** Scheduler accounting: where each core's and each task's time went.
    Each core has its kperf handles, its run-delay histogram and the
    nanoseconds it was busy on the CPU and on devices; each task has its
    CPU time and its delay buckets, rendered at /proc/delays. All of it
    is host-side bookkeeping that {!Sched} feeds; none of it charges a
    cycle. *)

(** One core's accounting. The counters are its handles into the kperf
    registry, taken once at boot; /proc/sched, /proc/metrics and the
    schedbench ladder all read them there. *)
type core_stats = {
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
  mutable busy_ns : int64;  (** burns, switches and IRQ work *)
  mutable io_ns : int64;  (** device time of the syscalls run here *)
}

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
    delay_hist = Kperf.hist kperf ~label "vos_sched_run_delay_ns";
    busy_ns = 0L; io_ns = 0L }

let add_busy s ns = s.busy_ns <- Int64.add s.busy_ns ns
let add_io s ns = s.io_ns <- Int64.add s.io_ns ns

(* A burn segment ran from [since] to [now_ns]: CPU time for the core and
   for the task that burned it. *)
let bank_burn s task ~since ~now_ns =
  let ns = Int64.sub now_ns since in
  add_busy s ns;
  task.Task.cpu_ns <- Int64.add task.Task.cpu_ns ns

(* [task] is dispatched: close its runnable wait into the core's
   run-delay histogram. *)
let run_delay s task ~now_ns =
  if Int64.compare task.Task.runnable_since 0L >= 0 then begin
    Kperf.Hist.record s.delay_hist (Int64.sub now_ns task.Task.runnable_since);
    task.Task.runnable_since <- -1L
  end

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

(* One row per live task, the open segment folded in as of [now_ns], so
   the six buckets sum to (now - spawned) exactly. Folding mutates the
   task record (cheap, idempotent per instant), which also keeps the
   panic flight recorder's view current without a separate snapshot
   type. *)
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

let delay_rows ~now_ns tasks =
  tasks
  |> List.filter (fun task -> task.Task.state <> Task.Zombie)
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

let render_delays ~now_ns tasks =
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
    (delay_rows ~now_ns tasks);
  Buffer.contents buf
