(** simbench — the host-parallel simulation engine benchmarking itself.

    Two questions, answered in [BENCH_sim.json]:

    - {b what does the sequential hot path cost?} Part 1 times the
      engine's pop+fire cycle — plain, and with half the events
      cancelled, which leaves tombstones for the pop to skip.

    - {b what does [sim_domains] buy?} Part 2 runs three heavyweight
      scenarios (the miner farm saturating four simulated cores with
      offloaded SHA-256 batches, a launcher desktop session under key
      presses, and schedbench's multicore batch spinners) at
      [sim_domains] ∈ {1, 2, 4}. Each run's per-event host cost is
      sampled slice by slice into a {!Core.Kperf.Hist}; the report gives
      events/sec, Par batch counts, and wall-clock speedup against the
      sequential row. Every row also hashes its merged ktrace machine
      dump — the hashes must agree across the ladder, the bench's
      restatement of the determinism proof in [test/test_par.ml].

    The miner is the row that parallelizes: each 64-nonce batch is one
    {!Sim.Engine.schedule_par} compute (~100 µs of host double-SHA-256),
    and with four cores mining there are four such computes in flight at
    any instant, one pool task each. The desktop and schedbatch rows
    schedule no Par events at all; they are the honest ≈1.0x floor
    showing the pool costs nothing when no batch is handed to it. *)

(* ---- part 1: sequential pop cost ---- *)

let pop_window = 4096
let pop_windows = 100

let pop_cost ~cancel_half =
  let hist = Core.Kperf.Hist.create () in
  for _ = 1 to pop_windows do
    let e = Sim.Engine.create () in
    let sink = ref 0 in
    let ids =
      Array.init pop_window (fun i ->
          Sim.Engine.schedule_at e (Int64.of_int (i + 1)) (fun () -> incr sink))
    in
    if cancel_half then
      Array.iteri (fun i id -> if i land 1 = 0 then Sim.Engine.cancel e id) ids;
    let (), dt = Report.timed (fun () -> Sim.Engine.run e ()) in
    let fired = if cancel_half then pop_window / 2 else pop_window in
    Core.Kperf.Hist.record hist
      (Int64.of_float (dt *. 1e9 /. float_of_int fired))
  done;
  hist

(* ---- part 2: heavyweight scenarios across the domains ladder ---- *)

let domains_ladder = [ 1; 2; 4 ]
let slices = 40

type scenario = {
  sc_name : string;
  sc_setup : domains:int -> Proto.Stage.t;  (** boot + start the workload *)
  sc_tick : Proto.Stage.t -> int -> unit;  (** input injection per slice *)
  sc_virtual : int64;  (** total virtual run, divided into [slices] *)
}

let no_tick _ _ = ()

let boot_traced ~domains =
  Proto.Stage.boot ~prototype:5
    ~config_tweak:(fun c -> { c with Core.Kconfig.sim_domains = domains })
    ()

(* Four miner threads, difficulty 34: no block is ever found inside the
   window, so all four cores hash flat out for the whole run — the same
   never-finishing setup scale.ml uses for Figure 10's throughput. *)
let miner =
  {
    sc_name = "miner";
    sc_setup =
      (fun ~domains ->
        let stage = boot_traced ~domains in
        ignore
          (Proto.Stage.start stage "blockchain"
             [ "blockchain"; "4"; "34"; "99" ]);
        stage);
    sc_tick = no_tick;
    sc_virtual = Sim.Engine.ms 1200;
  }

(* The desktop session: launcher with a key press every fourth slice —
   interrupt-driven and host-light, so the expected speedup is ≈ 1. *)
let desktop =
  {
    sc_name = "desktop";
    sc_setup =
      (fun ~domains ->
        let stage = boot_traced ~domains in
        ignore (Proto.Stage.start stage "launcher" [ "launcher"; "600" ]);
        stage);
    sc_tick =
      (fun stage i ->
        let usb =
          stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.usb
        in
        if i mod 4 = 0 then Hw.Usb.key_down usb 0x51 (* down arrow *)
        else if i mod 4 = 2 then Hw.Usb.key_up usb 0x51);
    sc_virtual = Sim.Engine.sec 2;
  }

(* schedbench's multicore batch: greedy spinners burning pure virtual
   cycles on every core — lots of events, zero Par computes. *)
let schedbatch =
  {
    sc_name = "schedbatch";
    sc_setup =
      (fun ~domains ->
        let stage = boot_traced ~domains in
        let kernel = stage.Proto.Stage.kernel in
        for i = 0 to 5 do
          ignore
            (Core.Kernel.spawn_user kernel
               ~name:(Printf.sprintf "simb-batch%d" i)
               (fun () ->
                 while true do
                   User.Usys.burn 2_000_000
                 done;
                 0))
        done;
        stage);
    sc_tick = no_tick;
    sc_virtual = Sim.Engine.sec 2;
  }

let scenarios = [ miner; desktop; schedbatch ]

type row = {
  r_scenario : string;
  r_domains : int;
  r_wall_s : float;
  r_events : int;
  r_event_ns_mean : float;  (** per-event host cost, Hist mean *)
  r_event_ns_p90 : float;
  r_events_per_s : float;
  r_batches : int;
  r_computes : int;
  r_speedup : float;  (** sequential row wall / this wall *)
  r_trace_md5 : string;
  r_deterministic : bool;  (** trace hash equals the sequential row's *)
}

let trace_dump stage =
  let sched = stage.Proto.Stage.kernel.Core.Kernel.sched in
  let b = Buffer.create 65536 in
  Core.Ktrace.add_machine_dump b (Core.Ktrace.dump sched.Core.Sched.trace);
  Buffer.contents b

(* Per-event host cost from a row's slice histogram: mean, p90, events/s. *)
let event_cost hist =
  let mean = Core.Kperf.Hist.mean_ns hist in
  ( mean,
    Core.Kperf.Hist.percentile_ns hist 0.90,
    if mean > 0.0 then 1e9 /. mean else 0.0 )

let run_row sc domains =
  let stage, setup_s = Report.timed (fun () -> sc.sc_setup ~domains) in
  let engine =
    stage.Proto.Stage.kernel.Core.Kernel.board.Hw.Board.engine
  in
  let hist = Core.Kperf.Hist.create () in
  let wall = ref setup_s in
  let slice = Int64.div sc.sc_virtual (Int64.of_int slices) in
  for i = 0 to slices - 1 do
    sc.sc_tick stage i;
    let e0 = Sim.Engine.events_fired engine in
    let (), ds = Report.timed (fun () -> Proto.Stage.run_for stage slice) in
    wall := !wall +. ds;
    let de = Sim.Engine.events_fired engine - e0 in
    if de > 0 then
      Core.Kperf.Hist.record hist
        (Int64.of_float (ds *. 1e9 /. float_of_int de))
  done;
  let batches, computes = Sim.Engine.par_stats engine in
  let mean, p90, per_s = event_cost hist in
  {
    r_scenario = sc.sc_name;
    r_domains = domains;
    r_wall_s = !wall;
    r_events = Sim.Engine.events_fired engine;
    r_event_ns_mean = mean;
    r_event_ns_p90 = p90;
    r_events_per_s = per_s;
    r_batches = batches;
    r_computes = computes;
    r_speedup = 1.0 (* filled in against the sequential row *);
    r_trace_md5 = Digest.to_hex (Digest.string (trace_dump stage));
    r_deterministic = true (* ditto *);
  }

let run_scenario sc =
  let rows = List.map (run_row sc) domains_ladder in
  match rows with
  | base :: _ ->
      List.map
        (fun r ->
          {
            r with
            r_speedup = base.r_wall_s /. r.r_wall_s;
            r_deterministic = String.equal r.r_trace_md5 base.r_trace_md5;
          })
        rows
  | [] -> []

type result = {
  pop_plain : Core.Kperf.Hist.t;
  pop_cancelled : Core.Kperf.Hist.t;
  rows : row list;
}

let run () =
  {
    pop_plain = pop_cost ~cancel_half:false;
    pop_cancelled = pop_cost ~cancel_half:true;
    rows = List.concat_map run_scenario scenarios;
  }

(* ---- reporting ---- *)

(* Speedup only materializes when the host can actually run the worker
   domains; record the CPU count next to the numbers so a 1-CPU reading
   is not mistaken for a machinery failure. *)
let host_cpus () = Domain.recommended_domain_count ()

let render r =
  let b = Buffer.create 2048 in
  let plain = Core.Kperf.Hist.mean_ns r.pop_plain in
  let cance = Core.Kperf.Hist.mean_ns r.pop_cancelled in
  Buffer.add_string b
    (Printf.sprintf "  host CPUs available to domains: %d%s\n" (host_cpus ())
       (if host_cpus () > 1 then ""
        else " (single-CPU host: parallel rows measure overhead, not speedup)"));
  Buffer.add_string b
    (Printf.sprintf
       "  pop+fire cost (%d x %d events): plain %.0f ns/event, \
        50%%-cancelled %.0f ns/event\n"
       pop_windows pop_window plain cance);
  Buffer.add_string b
    (Printf.sprintf "  %-10s %7s %9s %10s %11s %8s %9s %8s %5s\n" "scenario"
       "domains" "wall_s" "events" "events/s" "batches" "computes" "speedup"
       "det");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-10s %7d %9.2f %10d %11.0f %8d %9d %7.2fx %5s\n" r.r_scenario
           r.r_domains r.r_wall_s r.r_events r.r_events_per_s r.r_batches
           r.r_computes r.r_speedup
           (if r.r_deterministic then "ok" else "FAIL")))
    r.rows;
  Buffer.contents b

let report r =
  let row x fields =
    Report.(
      Obj
        (("scenario", String x.r_scenario) :: ("domains", Int x.r_domains)
        :: fields))
  in
  let det x =
    Report.(
      row x
        [
          ("events", Int x.r_events); ("par_batches", Int x.r_batches);
          ("par_computes", Int x.r_computes);
          ("trace_md5", String x.r_trace_md5);
          ("deterministic", Bool x.r_deterministic);
        ])
  and host x =
    Report.(
      row x
        [
          ("wall_s", Fixed (3, x.r_wall_s));
          ("event_ns_mean", Fixed (1, x.r_event_ns_mean));
          ("event_ns_p90", Fixed (1, x.r_event_ns_p90));
          ("events_per_s", Fixed (0, x.r_events_per_s));
          ("speedup", Fixed (3, x.r_speedup));
        ])
  in
  let mean h = Report.Fixed (1, Core.Kperf.Hist.mean_ns h)
  and line h = Report.String (Core.Kperf.Hist.render_line h) in
  Report.
    ( [
        ( "pop_cost",
          Obj
            [ ("window_events", Int pop_window); ("windows", Int pop_windows) ]
        );
        ("scenarios", List (List.map det r.rows));
      ],
      [
        ("host_cpus", Int (host_cpus ()));
        ( "pop_cost",
          Obj
            [
              ("tombstone_plain_ns", mean r.pop_plain);
              ("tombstone_cancelled_ns", mean r.pop_cancelled);
              ("plain_hist", line r.pop_plain);
              ("cancelled_hist", line r.pop_cancelled);
            ] );
        ("scenarios", List (List.map host r.rows));
      ] )
