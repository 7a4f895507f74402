(** obsbench — the observability stack measuring its own cost and
    checking its own contract, in [BENCH_obs.json]:

    - {b what does a detached probe point cost the host?} A site that
      feeds a probe-only event guards on {!Core.Ktrace.probing} (one
      option check; a ring event's site has no guard of its own, its
      [Ktrace.emit] makes the same check). Part 1 times ~10M guard
      evaluations detached, and the guarded emit attached (the median
      of 7 loops, with their min and max), in host ns/site. The
      acceptance bar is single-digit ns while detached.

    - {b does arming move any virtual number?} Part 2 runs an identical
      syscall/pipe/file workload in two kernels — one with no probes
      attached, one with a probe ladder attached — and compares the
      final virtual clock and an MD5 of the formatted trace. The armed
      run must be byte-identical to stock: observability charges zero
      cycles. (The probe registry, delay accounting and the flight
      recorder run in every kernel.)

    - {b does delay accounting conserve time?} For every live task in
      the armed kernel the six delay buckets (oncpu, runnable, sleep,
      blocked-io, blocked-lock, blocked-pipe) must sum to its lifetime;
      part 3 reports the max absolute error across tasks, which rounding
      bounds at zero. *)

(* ---- part 1: host cost per probe site ---- *)

let guard_iters = 10_000_000
let fire_iters = 1_000_000
let fire_runs = 7

(* Both loops spell a pipe read's probe site as pipe.ml does: build the
   probe-only event and emit it only while a probe hook is installed.
   Detached, that is the [probing] check and nothing else;
   [Sys.opaque_identity] keeps flambda from hoisting the load out of
   the loop. *)
let detached_ns_per_site () =
  let tr = Core.Ktrace.create () in
  let (), dt =
    Report.timed (fun () ->
        for i = 1 to guard_iters do
          let tr = Sys.opaque_identity tr in
          if Core.Ktrace.probing tr then
            Core.Ktrace.emit tr ~ts_ns:0L ~core:0
              (Core.Ktrace.Probe
                 (Core.Ktrace.Pipe_read (i land 7, 64, i land 0xffff)))
        done)
  in
  assert (tr.Core.Ktrace.head = 0);
  dt *. 1e9 /. float_of_int guard_iters

(* Attached cost: a histogram aggregation with a predicate, the
   expensive end of the ladder. One loop's wall time swings with the
   host's load, so the loop runs [fire_runs] times; the per-loop costs
   come back sorted. *)
let attached_ns_per_fire () =
  let tr = Core.Ktrace.create () in
  (match
     Core.Vprobe.attach (Core.Vprobe.create tr)
       "probe pipe:read / pid>=0 / hist(latency_ns)"
   with
  | Ok _ -> ()
  | Error e -> invalid_arg e);
  let once () =
    let (), dt =
      Report.timed (fun () ->
          for i = 1 to fire_iters do
            if Core.Ktrace.probing tr then
              Core.Ktrace.emit tr ~ts_ns:0L ~core:0
                (Core.Ktrace.Probe
                   (Core.Ktrace.Pipe_read (i land 7, 64, i land 0xffff)))
          done)
    in
    dt *. 1e9 /. float_of_int fire_iters
  in
  List.sort Float.compare (List.init fire_runs (fun _ -> once ()))

(* ---- part 2: armed-vs-stock byte identity ---- *)

(* The ladder exercises both syscall families, a keyed count, a sum and
   a latency histogram — every aggregation kind the grammar offers. *)
let ladder =
  [
    "probe syscall:read / pid>=1 / hist(latency_us)";
    "probe sysenter:write";
    "probe sched:wakeup / * / count by(core)";
    "probe pipe:write / * / sum(arg0)";
    "probe bufcache:miss / * / count";
    "probe journal:commit / * / sum(arg0)";
  ]

(* Both kernels journal (full ships journal-free to keep the stock image
   byte-identical to the paper's) so the fsync in the workload drives the
   journal:commit point; only the attached probes differ. *)
let armed_config = { Core.Kconfig.full with Core.Kconfig.journal = true }

(* Syscall soup: pipes, files, fsync (journal commits), enough fork/wait
   to move the scheduler. Identical in both kernels. *)
let workload () =
  (match (User.Usys.pipe (), User.Usys.pipe ()) with
  | Ok (r1, w1), Ok (r2, w2) ->
      let msg = Bytes.make 64 'o' in
      let child =
        User.Usys.fork (fun () ->
            let live = ref true in
            while !live do
              match User.Usys.read r1 64 with
              | Ok b when Bytes.length b > 0 -> ignore (User.Usys.write w2 b)
              | Ok _ | Error _ -> live := false
            done;
            0)
      in
      for _ = 1 to 300 do
        ignore (User.Usys.write w1 msg);
        ignore (User.Usys.read r2 64)
      done;
      ignore (User.Usys.close w1);
      ignore (User.Usys.close r1);
      ignore (User.Usys.kill child);
      ignore (User.Usys.wait ())
  | _ -> ());
  (match User.Usys.open_ "/obs.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr) with
  | fd when fd >= 0 ->
      let blk = Bytes.make 2048 'x' in
      for _ = 1 to 50 do
        ignore (User.Usys.write fd blk)
      done;
      ignore (User.Usys.fsync fd);
      ignore (User.Usys.lseek fd 0 0);
      for _ = 1 to 50 do
        ignore (User.Usys.read fd 2048)
      done;
      ignore (User.Usys.close fd)
  | _ -> ());
  for _ = 1 to 200 do
    ignore (User.Usys.getpid ())
  done;
  0

type run_sig = {
  rs_end_ns : int64;  (** virtual clock when the workload finished *)
  rs_trace_md5 : string;
  rs_kernel : Core.Kernel.t;
}

let run_one ~arm =
  let kernel = Micro.fresh_kernel ~config:armed_config () in
  if arm then begin
    let vp = kernel.Core.Kernel.sched.Core.Sched.vprobe in
    List.iter
      (fun spec ->
        match Core.Vprobe.attach vp spec with
        | Ok _ -> ()
        | Error e -> invalid_arg ("obsbench: " ^ e))
      ladder
  end;
  (match Measure.run_task kernel ~name:"obs-workload" workload with
  | Ok _ -> ()
  | Error e -> invalid_arg ("obsbench: " ^ e));
  let events =
    Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace
  in
  let text =
    String.concat "\n" (List.map Core.Ktrace.format_entry events)
  in
  {
    rs_end_ns = Core.Kernel.now kernel;
    rs_trace_md5 = Digest.to_hex (Digest.string text);
    rs_kernel = kernel;
  }

(* ---- part 3: delay conservation ---- *)

let delay_max_err_ns kernel =
  let rows = Core.Sched.delay_rows kernel.Core.Kernel.sched in
  List.fold_left
    (fun acc r ->
      let sum =
        List.fold_left Int64.add 0L
          [
            r.Core.Sched.dr_oncpu;
            r.Core.Sched.dr_runnable;
            r.Core.Sched.dr_sleep;
            r.Core.Sched.dr_blk_io;
            r.Core.Sched.dr_blk_lock;
            r.Core.Sched.dr_blk_pipe;
          ]
      in
      let err = Int64.abs (Int64.sub sum r.Core.Sched.dr_lifetime) in
      if Int64.compare err acc > 0 then err else acc)
    0L rows

type result = {
  r_detached_ns : float;
  r_attached_ns : float;  (** median of the [fire_runs] loops *)
  r_attached_min_ns : float;
  r_attached_max_ns : float;
  r_identical : bool;
  r_stock_end_ns : int64;
  r_armed_end_ns : int64;
  r_stock_md5 : string;
  r_armed_md5 : string;
  r_probes_fired : (string * int) list;  (** ladder spec -> fire count *)
  r_delay_max_err_ns : int64;
  r_delay_tasks : int;
}

let run () =
  let detached = detached_ns_per_site () in
  let attached = attached_ns_per_fire () in
  let stock = run_one ~arm:false in
  let armed = run_one ~arm:true in
  let fired =
    let vp = armed.rs_kernel.Core.Kernel.sched.Core.Sched.vprobe in
    List.rev_map
      (fun p -> (p.Core.Vprobe.pr_text, p.Core.Vprobe.pr_fired))
      vp.Core.Vprobe.all
  in
  {
    r_detached_ns = detached;
    r_attached_ns = List.nth attached (fire_runs / 2);
    r_attached_min_ns = List.hd attached;
    r_attached_max_ns = List.nth attached (fire_runs - 1);
    r_identical =
      Int64.equal stock.rs_end_ns armed.rs_end_ns
      && String.equal stock.rs_trace_md5 armed.rs_trace_md5;
    r_stock_end_ns = stock.rs_end_ns;
    r_armed_end_ns = armed.rs_end_ns;
    r_stock_md5 = stock.rs_trace_md5;
    r_armed_md5 = armed.rs_trace_md5;
    r_probes_fired = fired;
    r_delay_max_err_ns = delay_max_err_ns armed.rs_kernel;
    r_delay_tasks =
      List.length (Core.Sched.delay_rows armed.rs_kernel.Core.Kernel.sched);
  }

(* ---- reporting ---- *)

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "  probe site cost: %.2f ns detached (%d sites), %.1f ns \
        attached hist+pred (median of %d x %d fires, %.1f-%.1f)\n"
       r.r_detached_ns guard_iters r.r_attached_ns fire_runs fire_iters
       r.r_attached_min_ns r.r_attached_max_ns);
  Buffer.add_string b
    (Printf.sprintf
       "  armed vs stock: %s (end %Ld vs %Ld ns, trace %s vs %s)\n"
       (if r.r_identical then "byte-identical" else "DIVERGED")
       r.r_armed_end_ns r.r_stock_end_ns
       (String.sub r.r_armed_md5 0 8)
       (String.sub r.r_stock_md5 0 8));
  Buffer.add_string b "  ladder fire counts:\n";
  List.iter
    (fun (spec, n) ->
      Buffer.add_string b (Printf.sprintf "    %-52s %8d\n" spec n))
    r.r_probes_fired;
  Buffer.add_string b
    (Printf.sprintf
       "  delay accounting: max |sum(buckets) - lifetime| = %Ld ns over \
        %d tasks\n"
       r.r_delay_max_err_ns r.r_delay_tasks);
  Buffer.contents b

let report r =
  let fired (spec, n) =
    Report.(Obj [ ("spec", String spec); ("fired", Int n) ])
  in
  Report.
    ( [
        ("benchmark", String "obsbench");
        ("armed_identical", Bool r.r_identical);
        ("stock_end_ns", Int64 r.r_stock_end_ns);
        ("armed_end_ns", Int64 r.r_armed_end_ns);
        ("stock_trace_md5", String r.r_stock_md5);
        ("armed_trace_md5", String r.r_armed_md5);
        ("probes_fired", List (List.map fired r.r_probes_fired));
        ("delay_max_err_ns", Int64 r.r_delay_max_err_ns);
        ("delay_tasks", Int r.r_delay_tasks);
      ],
      [
        ("detached_ns_per_site", Fixed (3, r.r_detached_ns));
        ("attached_ns_per_fire", Fixed (1, r.r_attached_ns));
        ("attached_ns_per_fire_min", Fixed (1, r.r_attached_min_ns));
        ("attached_ns_per_fire_max", Fixed (1, r.r_attached_max_ns));
      ] )

let clean r = r.r_identical && Int64.equal r.r_delay_max_err_ns 0L
