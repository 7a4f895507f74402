(** The scheduler ablation ladder: a mixed interactive/batch load stepped
    from a single-core round-robin kernel to per-core queues, wake
    affinity, reschedule IPIs and the MLFQ class with load balancing.

    The workload is identical in every row: three batch spinners that burn
    2 ms slices back to back, and three interactive tasks that sleep 5 ms,
    run ~0.3 ms and sleep again (the burn length cycles through seven
    deterministic steps so the wake phase drifts against the 1 ms tick
    grid — a constant burn would lock to it and every tick-polled wakeup
    would measure the same latency). Each row boots its own
    kernel; the knobs flow through {!Core.Kconfig} exactly as a rebuilt
    kernel would.

    Two summary numbers gate the ladder: wakeup-to-run latency of the
    interactive tasks (mined from Sched_wakeup -> Ctx_switch pairs in the
    kernel's own trace), comparing tick-polled WFI against reschedule
    IPIs; and the batch throughput speedup of the full four-core
    configuration over the single-core baseline. Results go to stdout as
    a table and to [BENCH_sched.json] for the driver. *)

type config_row = {
  rc_name : string;
  rc_cores : int;
  rc_config : Core.Kconfig.t;
}

(* Every row runs the sanitizer and the sampling profiler: both charge
   zero virtual cycles, so every number below is identical with them
   off — and the bench doubles as a lockdep/deadlock soak test. *)
let base = { Core.Kconfig.full with Core.Kconfig.kcheck = true; profile_hz = 100 }

(* The ladder. Row 1 is the paper's Prototype 4 shape (one core, RR,
   wakeups free). "per-core-queues" models WFI honestly — an idle core
   notices queued work only at its next tick — which is the baseline the
   IPI row is measured against. *)
let ladder =
  let open Core.Kconfig in
  [
    {
      rc_name = "single-core-rr";
      rc_cores = 1;
      rc_config = { base with multicore = false };
    };
    {
      rc_name = "per-core-queues";
      rc_cores = 4;
      rc_config = { base with wake_model = Wake_tick };
    };
    {
      rc_name = "+affinity";
      rc_cores = 4;
      rc_config = { base with wake_model = Wake_tick; wake_affinity = true };
    };
    {
      rc_name = "+ipi-wakeup";
      rc_cores = 4;
      rc_config = { base with wake_model = Wake_ipi; wake_affinity = true };
    };
    {
      rc_name = "+mlfq+balance";
      rc_cores = 4;
      rc_config =
        {
          base with
          sched_policy = Sched_mlfq;
          wake_model = Wake_ipi;
          wake_affinity = true;
          load_balance_ms = 16;
        };
    };
  ]

(* ---- workload ---- *)

let n_batch = 3
let n_interactive = 3
let batch_burn_cycles = 2_000_000 (* 2 ms at 1 GHz *)
let inter_sleep_ms = 5
let inter_burn_cycles = 300_000 (* 0.3 ms: enough to drift the phase *)
let warmup_ns = Sim.Engine.ms 500
let measure_ns = Sim.Engine.sec 2

(* Batch tasks declare themselves greedy and interactive tasks meek in
   every row — under RR the nice value is ignored, so the workload stays
   byte-identical across rows. *)
let spawn_workload kernel =
  let batch_iters = Array.make n_batch 0 in
  let inter_iters = Array.make n_interactive 0 in
  let batch_pids =
    Array.init n_batch (fun i ->
        (Core.Kernel.spawn_user kernel
           ~name:(Printf.sprintf "sb-batch%d" i)
           (fun () ->
             ignore (User.Usys.nice 5);
             while true do
               User.Usys.burn batch_burn_cycles;
               batch_iters.(i) <- batch_iters.(i) + 1
             done;
             0))
          .Core.Task.pid)
  in
  let inter_pids =
    Array.init n_interactive (fun i ->
        (Core.Kernel.spawn_user kernel
           ~name:(Printf.sprintf "sb-inter%d" i)
           (fun () ->
             ignore (User.Usys.nice (-5));
             while true do
               ignore (User.Usys.sleep inter_sleep_ms);
               let jitter = (i + (3 * inter_iters.(i))) mod 7 in
               User.Usys.burn (inter_burn_cycles + (89_000 * jitter));
               inter_iters.(i) <- inter_iters.(i) + 1
             done;
             0))
          .Core.Task.pid)
  in
  (batch_iters, inter_iters, batch_pids, inter_pids)

(* ---- trace mining: wakeup-to-run latency of the interactive tasks ---- *)

(* A wakeup's latency ends at the Ctx_switch that dispatches the woken
   pid. Unmatched wakeups (still queued when the window closes) drop.
   Samples land in a shared log-linear histogram (the same
   {!Core.Kperf.Hist} the kernel's own latency metrics use) instead of a
   private sorted-array percentile. *)
let wakeup_hist trace ~pids ~from_ns ~until_ns =
  let interesting = Array.to_list pids in
  let pending : (int, int64) Hashtbl.t = Hashtbl.create 8 in
  let h = Core.Kperf.Hist.create () in
  List.iter
    (fun e ->
      if
        Int64.compare e.Core.Ktrace.ts_ns from_ns >= 0
        && Int64.compare e.Core.Ktrace.ts_ns until_ns <= 0
      then begin
        match Evsel.kind e.Core.Ktrace.ev with
        | Evsel.Woken pid when List.mem pid interesting ->
            Hashtbl.replace pending pid e.Core.Ktrace.ts_ns
        | Evsel.Switch (_, pid) -> (
            match Hashtbl.find_opt pending pid with
            | Some woke ->
                Hashtbl.remove pending pid;
                Core.Kperf.Hist.record h (Int64.sub e.Core.Ktrace.ts_ns woke)
            | None -> ())
        | _ -> ()
      end)
    (Core.Ktrace.dump trace);
  h

(* ---- per-configuration run ---- *)

type row = {
  r_config : config_row;
  batch_per_s : float;  (** batch iterations/s, all spinners *)
  inter_per_s : float;
  wake_samples : int;
  wake_p50_us : float;
  wake_p95_us : float;
  wake_p99_us : float;
  run_delay_avg_us : float;  (** all dispatches, from the kernel's stats *)
  migrations : int;
  steals : int;
  balance_moves : int;
  ipis : int;
}

type stat_snap = {
  sn_migrations : int;
  sn_steals : int;
  sn_balance : int;
  sn_ipis : int;
  sn_delay_count : int;
  sn_delay_total : int64;
}

let snap_stats kernel cores =
  let acc =
    ref
      {
        sn_migrations = 0;
        sn_steals = 0;
        sn_balance = 0;
        sn_ipis = 0;
        sn_delay_count = 0;
        sn_delay_total = 0L;
      }
  in
  for c = 0 to cores - 1 do
    let s = Core.Sched.stats kernel.Core.Kernel.sched c in
    let n cell = cell.Core.Kperf.n and h = s.Core.Sched.delay_hist in
    acc :=
      {
        sn_migrations = !acc.sn_migrations + n s.Core.Sched.migrations;
        sn_steals = !acc.sn_steals + n s.Core.Sched.steals;
        sn_balance = !acc.sn_balance + n s.Core.Sched.balance_moves;
        sn_ipis = !acc.sn_ipis + n s.Core.Sched.ipis_recv;
        sn_delay_count = !acc.sn_delay_count + Core.Kperf.Hist.count h;
        sn_delay_total = Int64.add !acc.sn_delay_total (Core.Kperf.Hist.sum_ns h);
      }
  done;
  !acc

let run_config rc =
  let kernel =
    Micro.fresh_kernel
      ~platform:(Scale.platform_with_cores rc.rc_cores)
      ~config:rc.rc_config ()
  in
  let batch_iters, inter_iters, _, inter_pids = spawn_workload kernel in
  Core.Kernel.run_for kernel warmup_ns;
  let from_ns = Core.Kernel.now kernel in
  let batch0 = Array.fold_left ( + ) 0 batch_iters in
  let inter0 = Array.fold_left ( + ) 0 inter_iters in
  let snap0 = snap_stats kernel rc.rc_cores in
  Core.Kernel.run_for kernel measure_ns;
  let until_ns = Core.Kernel.now kernel in
  let snap1 = snap_stats kernel rc.rc_cores in
  let lat =
    wakeup_hist kernel.Core.Kernel.sched.Core.Sched.trace ~pids:inter_pids
      ~from_ns ~until_ns
  in
  let secs = Sim.Engine.to_sec (Int64.sub until_ns from_ns) in
  let delay_count = snap1.sn_delay_count - snap0.sn_delay_count in
  let delay_total = Int64.sub snap1.sn_delay_total snap0.sn_delay_total in
  {
    r_config = rc;
    batch_per_s =
      float_of_int (Array.fold_left ( + ) 0 batch_iters - batch0) /. secs;
    inter_per_s =
      float_of_int (Array.fold_left ( + ) 0 inter_iters - inter0) /. secs;
    wake_samples = Core.Kperf.Hist.count lat;
    wake_p50_us = Core.Kperf.Hist.percentile_us lat 0.50;
    wake_p95_us = Core.Kperf.Hist.percentile_us lat 0.95;
    wake_p99_us = Core.Kperf.Hist.percentile_us lat 0.99;
    run_delay_avg_us =
      (if delay_count = 0 then 0.0
       else Int64.to_float delay_total /. float_of_int delay_count /. 1e3);
    migrations = snap1.sn_migrations - snap0.sn_migrations;
    steals = snap1.sn_steals - snap0.sn_steals;
    balance_moves = snap1.sn_balance - snap0.sn_balance;
    ipis = snap1.sn_ipis - snap0.sn_ipis;
  }

let run () = List.map run_config ladder

(* ---- reporting ---- *)

let find rows name =
  List.find (fun r -> String.equal r.r_config.rc_name name) rows

(* Tick-polled WFI vs reschedule IPI, otherwise-identical configs. *)
let wakeup_improvement rows =
  (find rows "+affinity").wake_p50_us /. (find rows "+ipi-wakeup").wake_p50_us

let multicore_speedup rows =
  (find rows "+mlfq+balance").batch_per_s /. (find rows "single-core-rr").batch_per_s

let render rows =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "  %-16s %8s %8s %9s %9s %9s %9s %6s %6s %5s %5s\n"
       "config" "batch/s" "inter/s" "wake p50" "p95 (us)" "p99 (us)"
       "delay avg" "migr" "steal" "bal" "ipi");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-16s %8.1f %8.1f %9.1f %9.1f %9.1f %9.1f %6d %6d %5d %5d\n"
           r.r_config.rc_name r.batch_per_s r.inter_per_s r.wake_p50_us
           r.wake_p95_us r.wake_p99_us r.run_delay_avg_us r.migrations
           r.steals r.balance_moves r.ipis))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "  remote wakeup p50, tick-polling vs IPI: %.1fx lower; multicore \
        batch speedup: %.2fx\n"
       (wakeup_improvement rows) (multicore_speedup rows));
  Buffer.contents b

let report rows =
  let config r =
    let c = r.r_config.rc_config in
    let policy =
      (Core.Sched.class_of_policy c.Core.Kconfig.sched_policy).Core.Sched.sc_name
    and wake =
      match c.Core.Kconfig.wake_model with
      | Core.Kconfig.Wake_direct -> "direct"
      | Core.Kconfig.Wake_tick -> "tick"
      | Core.Kconfig.Wake_ipi -> "ipi"
    in
    Report.(
      Obj
        [
          ("name", String r.r_config.rc_name);
          ("cores", Int r.r_config.rc_cores); ("policy", String policy);
          ("wake_model", String wake);
          ("wake_affinity", Bool c.Core.Kconfig.wake_affinity);
          ("load_balance_ms", Int c.Core.Kconfig.load_balance_ms);
          ("batch_iters_per_s", Fixed (2, r.batch_per_s));
          ("interactive_iters_per_s", Fixed (2, r.inter_per_s));
          ("wakeup_samples", Int r.wake_samples);
          ("wakeup_p50_us", Fixed (2, r.wake_p50_us));
          ("wakeup_p95_us", Fixed (2, r.wake_p95_us));
          ("wakeup_p99_us", Fixed (2, r.wake_p99_us));
          ("run_delay_avg_us", Fixed (2, r.run_delay_avg_us));
          ("migrations", Int r.migrations); ("steals", Int r.steals);
          ("balance_moves", Int r.balance_moves); ("ipis", Int r.ipis);
        ])
  in
  Report.
    ( [
        ("benchmark", String "schedbench"); ("batch_tasks", Int n_batch);
        ("interactive_tasks", Int n_interactive);
        ("batch_burn_cycles", Int batch_burn_cycles);
        ("interactive_sleep_ms", Int inter_sleep_ms);
        ("interactive_burn_cycles", Int inter_burn_cycles);
        ("measure_s", Fixed (1, Sim.Engine.to_sec measure_ns));
        ("configs", List (List.map config rows));
        ("remote_wakeup_improvement", Fixed (3, wakeup_improvement rows));
        ("multicore_speedup", Fixed (3, multicore_speedup rows));
      ],
      [] )
