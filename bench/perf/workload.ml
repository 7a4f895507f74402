(** The four workloads and one timed run of each.

    Every sim workload boots prototype 5 with the stock
    [Kconfig.prototype 5] (board seed 42, four simulated cores,
    [sim_domains = 1]), starts its apps, warms up, then simulates a
    fixed stretch of virtual time in 1/60 s frame windows. Inputs are
    scripted in virtual time (an open loop in virtual time), so the work
    of a run is fixed by its length and seed and only host time varies.

    [--seed] drives only inputs that leave the amount of work alone: a
    sub-millisecond offset on each app spawn (which moves every later
    event against the 1 ms scheduler tick) and the key-script timing on
    desktop. Fuzz replays its committed corpus whatever the seed. *)

open Core

type sim = {
  warmup_s : float;  (** virtual seconds simulated before timing *)
  vs_per_s : float;
      (** timed virtual seconds per [--seconds]: sized so a run takes
          about [--seconds] host seconds on the reference host *)
  apps : (float * string list) list;
      (** spawn time into the warm-up (virtual s), argv (argv0 = program) *)
  keys : bool;  (** drive the desktop key script *)
}

type kind = Sim of sim | Fuzz
type t = { name : string; kind : kind }
type length = Full of int  (** [--seconds] *) | Smoke

let length_key = function Full s -> Printf.sprintf "%ds" s | Smoke -> "smoke"

let miner =
  {
    name = "miner";
    kind =
      Sim
        {
          warmup_s = 0.5;
          vs_per_s = 0.6;
          (* difficulty 34 never finds a block: four offloaded SHA-256
             streams hash flat out for the whole run *)
          apps = [ (0., [ "blockchain"; "4"; "34"; "99" ]) ];
          keys = false;
        };
  }

let media =
  {
    name = "media";
    kind =
      Sim
        {
          warmup_s = 1.0;
          vs_per_s = 1.25;
          apps = [ (0., [ "video"; "/d/videos/clip480.mv1"; "0" ]) ];
          keys = false;
        };
  }

let desktop =
  {
    name = "desktop";
    kind =
      Sim
        {
          warmup_s = 2.0;
          vs_per_s = 5.5;
          apps =
            [
              (0., [ "mario"; "sdl"; "0" ]);
              (0.5, [ "launcher"; "0" ]);
              (1.0, [ "sysmon"; "0" ]);
            ];
          keys = true;
        };
  }

let fuzz = { name = "fuzz"; kind = Fuzz }

let sim_domains w =
  match w.kind with
  | Sim _ -> (Kconfig.prototype 5).Kconfig.sim_domains
  | Fuzz -> (Fuzz.Session.config_of_variant 0).Kconfig.sim_domains

let all = [ miner; media; desktop; fuzz ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* fuzz sizing: sessions per [--seconds], sessions at smoke length, and
   the corpus entries run untimed as warm-up *)
let fuzz_sessions_per_s = 20
let fuzz_smoke_sessions = 5
let fuzz_warmup = [ 0; 1; 2 ]

(** Virtual seconds (sim) or sessions (fuzz) in the timed phase. *)
let timed_work w length =
  match (w.kind, length) with
  | Sim s, Full n -> s.vs_per_s *. float_of_int n
  | Sim _, Smoke -> 0.2
  | Fuzz, Full n -> float_of_int (fuzz_sessions_per_s * n)
  | Fuzz, Smoke -> float_of_int fuzz_smoke_sessions

(* ---- metrics ---- *)

(** Every per-layer metric, with its unit. Each traced run reports all
    of them; a metric a workload cannot observe reads 0 (fuzz runs
    inside [Fuzz.Session.run], which exposes only the trace, the UART
    and the clock, and never runs a wrapped [prog_main]). *)
let layer_metrics =
  [
    ("setup.assets_s", "s"); ("setup.boot_s", "s"); ("setup.warmup_s", "s");
    ("core.boot_vms", "ms");
    ("user.self_s", "s"); ("user.share", "ratio"); ("user.offload_s", "s");
    ("user.offload_n", "count"); ("user.traps", "count");
    ("kernel.self_s", "s"); ("kernel.syscalls", "count");
  ]
  @ List.map (fun n -> ("kernel.sys." ^ n, "count")) Abi.syscall_names
  @ [
      ("core.ctx_switches", "count"); ("core.migrations", "count");
      ("core.trace_events", "count"); ("core.pipe_bytes", "bytes");
      ("core.polls", "count"); ("core.bufcache_hits", "count");
      ("core.bufcache_misses", "count"); ("core.bufcache_hit_ratio", "ratio");
      ("core.journal_commits", "count"); ("core.kcheck_violations", "count");
      ("core.wm_composites", "count"); ("core.wm_skipped_rounds", "count");
      ("hw.sd_requests", "count"); ("hw.fb_frames", "count");
      ("apps.frames", "count");
      ("sim.events", "count"); ("sim.ns_per_event", "ns");
      ("sim.frame_ms_p50", "ms"); ("sim.frame_ms_p99", "ms");
      ("sim.frame_samples", "count");
      ("gc.minor_collections", "count"); ("gc.major_collections", "count");
      ("gc.promoted_mwords", "Mwords"); ("gc.pause_s", "s");
      ("fuzz.sessions_per_s", "1/s"); ("fuzz.session_ms_p50", "ms");
      ("fuzz.session_ms_p95", "ms"); ("fuzz.boot_ms_p50", "ms");
      ("fuzz.boot_share", "ratio");
    ]
  @ List.map
      (fun v -> ("fuzz.variant_ms." ^ v, "ms"))
      (Array.to_list Fuzz.Session.variant_names)

type result = {
  setup_s : float;  (** process start to the timed phase, reference-host s *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  digest : string;
  checks : (string * bool) list;
}

(* The timed phase is measured in chunks, each scaled to reference-host
   seconds by the probe run just before it (see probe.ml). A chunk is
   one fuzz session, or as many frame windows as take [chunk_s] of host
   time: short enough that the host seldom changes speed inside one,
   long enough that the probe adds little. *)
type chunk = { v : float;  (** virtual s *) wall : float; cpu : float; scale : float }

let chunk_s = 0.02

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [timed_chunk f] probes, then runs [f] (which returns the virtual
   seconds it simulated) under the wall and CPU clocks. *)
let timed_chunk f =
  let scale = Probe.scale (Probe.run ()) in
  let wall0 = Span.now () and cpu0 = cpu_now () in
  let v = f () in
  { v; wall = Span.now () -. wall0; cpu = cpu_now () -. cpu0; scale }

(* The end-to-end metrics of a timed phase, plus the layer metrics
   (given by name, completed from {!layer_metrics}) when traced. *)
let report ~traced ~chunks ~gc0 ~gc1 layer =
  let sum f = Array.fold_left (fun acc c -> acc +. f c) 0. chunks in
  let e2e =
    [
      ("vrate", sum (fun c -> c.v) /. sum (fun c -> c.wall *. c.scale), "vs/s");
      ("cpu_s", sum (fun c -> c.cpu *. c.scale), "s");
      ("minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6, "Mwords");
      ("peak_heap_mb", float_of_int gc1.Gc.top_heap_words *. 8. /. 1048576., "MiB");
    ]
  in
  let gc =
    [
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
    ]
  in
  if not traced then e2e
  else
    e2e
    @ List.map
        (fun (name, unit_) ->
          (name, Option.value ~default:0. (List.assoc_opt name (layer @ gc)), unit_))
        layer_metrics

let syscall_counts counts =
  ( "kernel.syscalls",
    float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 counts) )
  :: List.map (fun (name, n) -> ("kernel.sys." ^ name, float_of_int n)) counts

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let md5 parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Set-up time from process start, in reference-host seconds: the probes
   taken between set-up phases give the host's speed meanwhile. *)
let setup_seconds probes =
  Span.now () *. Probe.scale (percentile (sorted (Array.of_list probes)) 0.5)

(* GC pause time of the simulation thread, read from the runtime's event
   ring: minor collections and major slices, counted once when nested.
   The ring is a file the runtime maps; it is unlinked as soon as the
   cursor has mapped it too, so no run leaves it behind. *)
module Pause = struct
  let total = ref 0.
  let depth = ref 0
  let since = ref 0L

  let counted = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts phase ->
        if ring = 0 && counted phase then begin
          if !depth = 0 then since := Runtime_events.Timestamp.to_int64 ts;
          incr depth
        end)
      ~runtime_end:(fun ring ts phase ->
        if ring = 0 && counted phase && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total :=
              !total
              +. Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !since)
                 /. 1e9
        end)
      ()

  let cursor =
    lazy
      (Runtime_events.start ();
       let c = Runtime_events.create_cursor None in
       let dir =
         Option.value ~default:(Sys.getcwd ()) (Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR")
       in
       (try Sys.remove (Filename.concat dir (Printf.sprintf "%d.events" (Unix.getpid ())))
        with Sys_error _ -> ());
       c)

  let start () =
    total := 0.;
    depth := 0;
    if Lazy.is_val cursor then Runtime_events.resume () else ignore (Lazy.force cursor)

  let poll () =
    if Lazy.is_val cursor then
      ignore (Runtime_events.read_poll (Lazy.force cursor) callbacks None)

  let stop () =
    poll ();
    Runtime_events.pause ()
end

(* ---- sim workloads ---- *)

let vns s = Int64.of_float (s *. 1e9)

let boot ~wrap ~ram ~fat =
  let env = User.Uenv.create () in
  let config = Kconfig.prototype 5 in
  env.User.Uenv.e_simd <- config.Kconfig.simd_pixel_ops;
  let programs =
    List.map
      (fun p -> { p with Kernel.prog_main = wrap p.Kernel.prog_main })
      (Proto.Stage.programs_for_prototype env 5)
  in
  let kernel =
    Kernel.boot
      {
        Kernel.default_spec with
        Kernel.sp_config = config;
        sp_programs = programs;
        sp_files = ram;
        sp_fat_files = fat;
      }
  in
  env.User.Uenv.e_fb <- kernel.Kernel.fb;
  kernel

let spawn kernel argv =
  let name = List.hd argv in
  match
    List.find_opt
      (fun p -> String.equal p.Kernel.prog_name name)
      kernel.Kernel.spec.Kernel.sp_programs
  with
  | None -> invalid_arg ("no program " ^ name)
  | Some p -> Kernel.spawn_user kernel ~name (fun () -> p.Kernel.prog_main argv)

type booted = {
  kernel : Kernel.t;
  pids : int list;  (** the apps' main tasks *)
  crashed : int ref;  (** tasks that exited -2: an uncaught exception *)
  phases : (string * float) list;  (** host seconds per set-up phase *)
  setup_s : float;
}

(* The smoke compresses the warm-up, and the spawn times in it, to a
   quarter. *)
let stretch = function Smoke -> 0.25 | Full _ -> 1.0
let warmup_s sim length = sim.warmup_s *. stretch length

(* Set-up: assets, boot, app spawns and warm-up, each a child span of
   "setup" followed by a probe. The seed's first draws are the spawn
   offsets. *)
let setup_sim sim ~length ~rng ~wrap =
  let probes = ref [ Probe.run () ] in
  let phase ~parent name f =
    let r = Span.within ~parent name f in
    probes := Probe.run () :: !probes;
    r
  in
  let b, _ =
    Span.within "setup" (fun setup ->
        let (ram, fat), assets =
          phase ~parent:setup "assets" (fun _ ->
              (Proto.Stage.ramdisk_files 5, Proto.Stage.fat_files 5))
        in
        let kernel, boot_s = phase ~parent:setup "boot" (fun _ -> boot ~wrap ~ram ~fat) in
        let crashed = ref 0 in
        let sched = kernel.Kernel.sched in
        sched.Sched.on_task_exit <-
          sched.Sched.on_task_exit
          @ [ (fun task -> if task.Task.exit_code = -2 then incr crashed) ];
        let ready = Kernel.now kernel in
        let pids, warmup =
          phase ~parent:setup "warmup" (fun _ ->
              let pids =
                List.map
                  (fun (at, argv) ->
                    let jitter = Sim.Engine.us (Sim.Rng.int rng 1000) in
                    Kernel.run_until kernel
                      (Int64.add ready (Int64.add (vns (at *. stretch length)) jitter));
                    (spawn kernel argv).Task.pid)
                  sim.apps
              in
              Kernel.run_until kernel (Int64.add ready (vns (warmup_s sim length)));
              pids)
        in
        {
          kernel;
          pids;
          crashed;
          phases =
            [
              ("setup.assets_s", assets);
              ("setup.boot_s", boot_s);
              ("setup.warmup_s", warmup);
              ("core.boot_vms", Int64.to_float ready /. 1e6);
            ];
          setup_s = 0.;
        })
  in
  { b with setup_s = setup_seconds !probes }

(* The desktop key script, one round per virtual second (60 windows):
   right arrow held, a space tap, then ctrl+tab to rotate focus. The
   seed moves each press by up to 5 windows. *)
let key_script rng kernel windows =
  let usb = kernel.Kernel.board.Hw.Board.usb in
  let script = Array.make windows [] in
  let at w f = if w < windows then script.(w) <- script.(w) @ [ f ] in
  for s = 0 to (windows / 60) - 1 do
    let right = (s * 60) + Sim.Rng.int rng 6 in
    let space = (s * 60) + 24 + Sim.Rng.int rng 6 in
    let tab = (s * 60) + 42 + Sim.Rng.int rng 6 in
    at right (fun () -> Hw.Usb.key_down usb 0x4f);
    at (right + 12) (fun () -> Hw.Usb.key_up usb 0x4f);
    at space (fun () -> Hw.Usb.key_down usb 0x2c);
    at (space + 6) (fun () -> Hw.Usb.key_up usb 0x2c);
    at tab (fun () -> Hw.Usb.key_down usb ~modifiers:0x01 0x2b);
    at (tab + 3) (fun () -> Hw.Usb.key_up usb 0x2b)
  done;
  script

let kperf_counter kernel name =
  List.fold_left
    (fun acc c ->
      if String.equal c.Kperf.c_name name then acc + c.Kperf.c_read () else acc)
    0 kernel.Kernel.sched.Sched.kperf.Kperf.counters

(* The kernel's counters, read before the timed phase (for the progress
   checks) and after the run (for the layer metrics, which cover set-up
   too: media reads its clip during the warm-up). *)
let snapshot b =
  let kernel = b.kernel in
  let sched = kernel.Kernel.sched in
  let wm f = match kernel.Kernel.wm with Some wm -> f wm | None -> 0 in
  let fb f = match kernel.Kernel.fb with Some fb -> f fb | None -> 0 in
  List.map
    (fun (name, c) -> (name, kperf_counter kernel c))
    [
      ("core.ctx_switches", "vos_ctx_switches_total");
      ("core.migrations", "vos_sched_migrations_total");
      ("core.trace_events", "vos_trace_events_total");
      ("core.pipe_bytes", "vos_pipe_bytes_total");
      ("core.polls", "vos_polls_total");
      ("core.bufcache_hits", "vos_bufcache_hits_total");
      ("core.bufcache_misses", "vos_bufcache_misses_total");
      ("core.journal_commits", "vos_journal_commits_total");
      ("core.kcheck_violations", "vos_kcheck_violations_total");
    ]
  @ [
      ("core.wm_composites", wm Wm.composites);
      ("core.wm_skipped_rounds", wm Wm.skipped_rounds);
      ("hw.sd_requests", Kperf.Hist.count sched.Sched.h_sd_req);
      ("hw.fb_frames", fb Hw.Framebuffer.frames_presented);
      ( "apps.frames",
        List.fold_left (fun acc pid -> acc + Sched.frames_presented sched ~pid) 0 b.pids );
      ("sim.events", Sim.Engine.events_fired kernel.Kernel.board.Hw.Board.engine);
    ]

let run_sim w sim ~seed ~length ~traced =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let b = setup_sim sim ~length ~rng ~wrap:(if traced then Interpose.wrap else Fun.id) in
  let kernel = b.kernel in
  let sched = kernel.Kernel.sched in
  let engine = kernel.Kernel.board.Hw.Board.engine in
  let vsec = timed_work w length in
  let windows = int_of_float (Float.round (vsec *. 60.)) in
  let script = if sim.keys then key_script rng kernel windows else Array.make windows [] in
  let frame_ms = Array.make windows 0. in
  let before = snapshot b in
  let busy0 = List.map (Sched.core_busy_ns sched) [ 0; 1; 2; 3 ] in
  let t0v = Sim.Engine.now engine in
  (* window [i] ends exactly i/60 s after the timed phase starts *)
  let window run i =
    List.iter (fun f -> f ()) script.(i - 1);
    let target = Int64.add t0v (Int64.div (Int64.mul (Int64.of_int i) 1_000_000_000L) 60L) in
    if not traced then Kernel.run_until kernel target
    else begin
      let (), dt =
        Span.within ~parent:run "frame" (fun id ->
            Interpose.window := id;
            Kernel.run_until kernel target)
      in
      frame_ms.(i - 1) <- dt *. 1e3;
      Pause.poll ()
    end
  in
  Interpose.reset ();
  if traced then Pause.start ();
  let gc0 = Gc.quick_stat () in
  let chunks, wall =
    Span.within "timed" (fun run ->
        let next = ref 1 and chunks = ref [] in
        while !next <= windows do
          let chunk =
            timed_chunk (fun () ->
                let first = !next and t0 = Span.now () in
                while !next <= windows && (!next = first || Span.now () -. t0 < chunk_s) do
                  window run !next;
                  incr next
                done;
                float_of_int (!next - first) /. 60.)
          in
          chunks := chunk :: !chunks
        done;
        Array.of_list (List.rev !chunks))
  in
  let gc1 = Gc.quick_stat () in
  if traced then Pause.stop ();
  let after = snapshot b in
  let delta name = float_of_int (List.assoc name after - List.assoc name before) in
  let virtual_ns = Int64.sub (Sim.Engine.now engine) t0v in
  let progress =
    match w.name with
    | "miner" ->
        (* four streams hashing flat out keep every core busy *)
        List.for_all2
          (fun c b0 ->
            Int64.to_float (Int64.sub (Sched.core_busy_ns sched c) b0)
            >= 0.9 *. Int64.to_float virtual_ns)
          [ 0; 1; 2; 3 ] busy0
    | "media" -> delta "hw.fb_frames" >= 10. *. vsec
    | _ ->
        delta "core.wm_composites" > 0.
        && List.for_all (fun pid -> Sched.frames_presented sched ~pid > 0) b.pids
  in
  let checks =
    [
      ("timed_virtual_time", Int64.equal virtual_ns (vns vsec));
      ("no_uncaught_exceptions", !(b.crashed) = 0);
      ("kcheck_clean", List.assoc "core.kcheck_violations" after = 0);
      ("progress", progress);
    ]
  in
  let digest =
    md5
      [
        String.concat "\n" (List.map Ktrace.machine_line (Ktrace.dump sched.Sched.trace));
        Kernel.uart_output kernel;
        Int64.to_string (Kernel.now kernel);
        string_of_int (List.assoc "apps.frames" after);
        string_of_int (List.assoc "hw.fb_frames" after);
      ]
  in
  let layer () =
    let user = !Interpose.user_s in
    let offload = float_of_int (Atomic.get Interpose.offload_ns) /. 1e9 in
    let frames = sorted frame_ms in
    let events = delta "sim.events" in
    let total name = float_of_int (List.assoc name after) in
    let hits = total "core.bufcache_hits" and misses = total "core.bufcache_misses" in
    b.phases
    @ List.map (fun (name, _) -> (name, if name = "sim.events" then events else total name)) after
    @ syscall_counts (Hashtbl.fold (fun name n acc -> (name, !n) :: acc) Interpose.syscalls [])
    @ [
        ("user.self_s", user);
        ("user.share", user /. wall);
        ("user.offload_s", offload);
        ("user.offload_n", float_of_int (Atomic.get Interpose.offload_n));
        ("user.traps", float_of_int !Interpose.traps);
        ("kernel.self_s", wall -. user -. offload);
        ("core.bufcache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        ("sim.ns_per_event", if events > 0. then wall *. 1e9 /. events else 0.);
        ("sim.frame_ms_p50", percentile frames 0.50);
        ("sim.frame_ms_p99", percentile frames 0.99);
        ("sim.frame_samples", float_of_int windows);
        ("gc.pause_s", !Pause.total);
      ]
  in
  {
    setup_s = b.setup_s;
    metrics = report ~traced ~chunks ~gc0 ~gc1 (if traced then layer () else []);
    digest;
    checks;
  }

(* ---- fuzz ---- *)

let setup_fuzz inputs =
  let probes = ref [ Probe.run () ] in
  let corpus, _ =
    Span.within "setup" (fun setup ->
        let corpus, _ =
          Span.within ~parent:setup "corpus" (fun _ ->
              match Fuzz.Corpus.load inputs with
              | Error e -> failwith (Printf.sprintf "%s: %s" inputs e)
              | Ok entries -> Array.of_list (List.map Fuzz.Corpus.scenario_of_entry entries))
        in
        probes := Probe.run () :: !probes;
        ignore
          (Span.within ~parent:setup "warmup" (fun _ ->
               List.iter (fun i -> ignore (Fuzz.Session.run corpus.(i))) fuzz_warmup));
        probes := Probe.run () :: !probes;
        corpus)
  in
  (corpus, setup_seconds !probes)

(* What the session's ktrace dump shows of the kernel layers; the dump
   holds the whole session (far below the ring's capacity). *)
let tally_trace tally r =
  let bump k = Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)) in
  List.iter
    (fun e ->
      bump "core.trace_events";
      match e.Ktrace.ev with
      | Ktrace.Syscall_enter (_, name) -> bump ("sys:" ^ name)
      | Ktrace.Ctx_switch _ -> bump "core.ctx_switches"
      | Ktrace.Sched_migrate _ -> bump "core.migrations"
      | Ktrace.Poll_return _ -> bump "core.polls"
      | Ktrace.Wm_composite -> bump "core.wm_composites"
      | Ktrace.Frame_present _ -> bump "apps.frames"
      | _ -> ())
    r.Fuzz.Session.r_trace

(* Each session boots its own kernel inside [Fuzz.Session.run] and is
   one timed chunk. The sessions run in corpus order whatever the seed:
   shuffling them moved the peak heap by up to 8% (whether the GC had
   reclaimed a finished session's 16 MiB SD image before the next
   boot). Traced, a session span holds a boot-only replay of the same
   spec followed by the session itself; only the latter counts toward
   the rates. *)
let run_fuzz ~inputs ~length ~traced =
  let corpus, setup_s = setup_fuzz inputs in
  let n = int_of_float (timed_work fuzz length) in
  let order = Array.init n (fun i -> i mod Array.length corpus) in
  let digests = ref [] and outcomes = ref [] in
  let session_ms = ref [] and boot_ms = ref [] in
  let variant_ms = Array.make (Array.length Fuzz.Session.variant_names) [] in
  let tally = Hashtbl.create 64 in
  (* one session; returns its result and the host seconds it counts for *)
  let session run entry =
    let scen = corpus.(entry) in
    if not traced then (Fuzz.Session.run scen, 0.)
    else
      fst
        (Span.within ~parent:run "session" (fun session ->
             let (), boot =
               Span.within ~parent:session "boot" (fun _ ->
                   ignore (Kernel.boot (Fuzz.Session.spec_of_scenario scen)))
             in
             let r, dt = Span.within ~parent:session "run" (fun _ -> Fuzz.Session.run scen) in
             boot_ms := (boot *. 1e3) :: !boot_ms;
             session_ms := (dt *. 1e3) :: !session_ms;
             let v = scen.Fuzz.Gen.sc_variant mod Array.length variant_ms in
             variant_ms.(v) <- (dt *. 1e3) :: variant_ms.(v);
             tally_trace tally r;
             Pause.poll ();
             (r, dt)))
  in
  if traced then Pause.start ();
  let gc0 = Gc.quick_stat () in
  let chunks, _ =
    Span.within "timed" (fun run ->
        Array.map
          (fun entry ->
            let counted = ref 0. in
            let c =
              timed_chunk (fun () ->
                  let r, dt = session run entry in
                  counted := dt;
                  outcomes := (entry, r.Fuzz.Session.r_outcome = Fuzz.Session.Pass) :: !outcomes;
                  digests := r.Fuzz.Session.r_digest :: !digests;
                  Int64.to_float r.Fuzz.Session.r_vtime_ns /. 1e9)
            in
            (* traced runs also replay boots: rate only the sessions *)
            if traced then { c with wall = !counted } else c)
          order)
  in
  let gc1 = Gc.quick_stat () in
  if traced then Pause.stop ();
  let layer () =
    let count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally k)) in
    let sessions = sorted (Array.of_list !session_ms) in
    let boots = sorted (Array.of_list !boot_ms) in
    let sum = Array.fold_left ( +. ) 0. in
    [
      ("fuzz.sessions_per_s", float_of_int (Array.length sessions) /. (sum sessions /. 1e3));
      ("fuzz.session_ms_p50", percentile sessions 0.50);
      ("fuzz.session_ms_p95", percentile sessions 0.95);
      ("fuzz.boot_ms_p50", percentile boots 0.50);
      ("fuzz.boot_share", sum boots /. sum sessions);
      ("kernel.self_s", sum sessions /. 1e3);
      ("gc.pause_s", !Pause.total);
    ]
    @ Array.to_list
        (Array.mapi
           (fun v ms ->
             ( "fuzz.variant_ms." ^ Fuzz.Session.variant_names.(v),
               match ms with
               | [] -> 0.
               | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) ))
           variant_ms)
    @ syscall_counts
        (List.map (fun name -> (name, int_of_float (count ("sys:" ^ name)))) Abi.syscall_names)
    @ List.map
        (fun k -> (k, count k))
        [
          "core.trace_events"; "core.ctx_switches"; "core.migrations";
          "core.polls"; "core.wm_composites"; "apps.frames";
        ]
  in
  {
    setup_s;
    metrics = report ~traced ~chunks ~gc0 ~gc1 (if traced then layer () else []);
    digest = md5 (List.rev !digests);
    checks = List.rev_map (fun (e, ok) -> (Printf.sprintf "session %d" e, ok)) !outcomes;
  }

(** [setup_only] pays exactly the set-up of a run and stops there;
    returns the set-up time in reference-host seconds. *)
let setup_only w ~inputs ~seed ~length =
  match w.kind with
  | Sim sim ->
      (setup_sim sim ~length ~rng:(Sim.Rng.create (Int64.of_int seed)) ~wrap:Fun.id).setup_s
  | Fuzz -> snd (setup_fuzz inputs)

let run w ~inputs ~seed ~length ~traced =
  if traced then Span.enable ();
  match w.kind with
  | Sim sim -> run_sim w sim ~seed ~length ~traced
  | Fuzz -> run_fuzz ~inputs ~length ~traced
