(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe table4     -- one experiment

   Paper-reported values are printed alongside for comparison;
   EXPERIMENTS.md records a full run with commentary. *)

let section title = Printf.printf "\n=== %s ===\n%!" title

let table1 () =
  section "Table 1: prototype feature matrix";
  print_string (Proto.Matrix.render ());
  let violations = Proto.Matrix.validate () in
  if violations = [] then
    print_endline
      "validation: OK (deps satisfied, monotone growth, all features motivated)"
  else
    List.iter
      (fun v -> print_endline ("VIOLATION: " ^ Proto.Matrix.describe_violation v))
      violations

let fig7 () =
  section "Figure 7: source code analysis";
  print_string (Proto.Sloc.render (Proto.Sloc.analyze ()));
  print_endline
    "paper: kernel 2.5K (P1) -> ~33K (P5) SLoC, core 1K -> 8K; apps 260 -> 76K"

let fig8 () =
  section "Figure 8: kernel microbenchmarks";
  print_string (Benchlib.Figures.render_fig8 (Benchlib.Figures.fig8 ()));
  print_endline
    "paper: syscall ~3us; IPC ~21us; FAT32 several hundred KB/s; ~6s to shell"

let fig9 () =
  section "Figure 9: OS microbenchmark comparison";
  print_string (Benchlib.Figures.render_fig9 (Benchlib.Figures.fig9 ()));
  print_endline
    "paper: ours lower than xv6 on most; within 0.5x-2x of Linux/FreeBSD;";
  print_endline "       fork much slower than production (eager page copy)"

let table4 () =
  section "Table 4: app throughput (FPS)";
  print_string (Benchlib.Appbench.render (Benchlib.Appbench.run ()));
  print_endline
    "paper pi3/ours: DOOM 61.8, video480 26.7, video720 11.6, mario-noinput";
  print_endline
    "       108.1, mario-proc 114.7, mario-sdl 72.2; linux DOOM 31.9, freebsd 51.2"

let fig10 () =
  section "Figure 10: multicore scalability";
  print_string (Benchlib.Scale.render (Benchlib.Scale.run ()));
  print_endline "paper: proportional growth to 4 cores, >95% core utilization"

let fig11 () =
  section "Figure 11: latency breakdowns";
  print_string
    (Benchlib.Latency.render
       (Benchlib.Latency.render_all (), Benchlib.Latency.input_all ()));
  print_endline
    "paper: app logic dominates rendering; input latency 1-2 frames, polling";
  print_endline "       dominates; pipe/WM indirection visible for mario-proc/sdl"

let mem () =
  section "Memory consumption (sec. 6.3)";
  print_string (Benchlib.Memuse.render (Benchlib.Memuse.run ()));
  print_endline "paper: 21-42 MB total OS memory (2-4% of 1 GB)"

let fig12 () =
  section "Figure 12: power and battery life";
  print_string (Benchlib.Powerbench.render (Benchlib.Powerbench.run ()));
  print_endline "paper: ~3 W at shell (3.7 h battery), ~4 W under load (~2.6 h)"

let iobench () =
  section "iobench: write-back / read-ahead / coalescing ablation";
  let rows = Benchlib.Iobench.run () in
  print_string (Benchlib.Iobench.render rows);
  let jrows = Benchlib.Iobench.run_journal () in
  print_string (Benchlib.Iobench.render_journal jrows);
  Benchlib.Report.write "BENCH_io.json"
    (Benchlib.Iobench.report ~journal:jrows rows);
  print_endline "wrote BENCH_io.json"

let schedbench () =
  section "schedbench: scheduling class / wake model / affinity ablation";
  let rows = Benchlib.Schedbench.run () in
  print_string (Benchlib.Schedbench.render rows);
  Benchlib.Report.write "BENCH_sched.json" (Benchlib.Schedbench.report rows);
  print_endline "wrote BENCH_sched.json"

let ipcbench () =
  section "ipcbench: pipe ring / edge wakeup / poll ablation";
  let rows = Benchlib.Ipcbench.run () in
  print_string (Benchlib.Ipcbench.render rows);
  Benchlib.Report.write "BENCH_ipc.json" (Benchlib.Ipcbench.report rows);
  print_endline "wrote BENCH_ipc.json"

let tracebench () =
  section "tracebench: kperf emit cost + span-derived input breakdown";
  let r = Benchlib.Tracebench.run () in
  print_string (Benchlib.Tracebench.render r);
  Benchlib.Report.write "BENCH_trace.json" (Benchlib.Tracebench.report r);
  Benchlib.Tracebench.write_trace r "BENCH_trace.ktrace";
  print_endline "wrote BENCH_trace.json and BENCH_trace.ktrace"

let crashbench () =
  section "crashbench: randomized power-cut crash injection on the journal";
  let s = Benchlib.Crashbench.run () in
  print_string (Benchlib.Crashbench.render s);
  Benchlib.Report.write "BENCH_crash.json" (Benchlib.Crashbench.report s);
  print_endline "wrote BENCH_crash.json";
  if s.Benchlib.Crashbench.s_fsck_failures > 0
     || s.Benchlib.Crashbench.s_invariant_failures > 0
  then exit 1

let fuzzbench () =
  section "fuzzbench: scenario-fuzzer throughput, cleanliness, shrink cost";
  let s = Benchlib.Fuzzbench.run () in
  print_string (Benchlib.Fuzzbench.render s);
  Benchlib.Report.write "BENCH_fuzz.json" (Benchlib.Fuzzbench.report s);
  print_endline "wrote BENCH_fuzz.json";
  if s.Benchlib.Fuzzbench.f_failures > 0 then exit 1

let lintbench () =
  section "lintbench: vlint + vrace wall cost and coverage";
  let r = Benchlib.Lintbench.run () in
  print_string (Benchlib.Lintbench.render r);
  Benchlib.Report.write "BENCH_lint.json" (Benchlib.Lintbench.report r);
  print_endline "wrote BENCH_lint.json";
  if not (Benchlib.Lintbench.clean r) then exit 1

let obsbench () =
  section "obsbench: vprobe site cost, armed-vs-stock identity, delay accounting";
  let r = Benchlib.Obsbench.run () in
  print_string (Benchlib.Obsbench.render r);
  Benchlib.Report.write "BENCH_obs.json" (Benchlib.Obsbench.report r);
  print_endline "wrote BENCH_obs.json";
  if not (Benchlib.Obsbench.clean r) then exit 1

let codec () =
  section "codec: host ms per media frame, decode / convert / present";
  let r = Benchlib.Codecbench.run () in
  print_string (Benchlib.Codecbench.render r);
  Benchlib.Report.write "BENCH_codec.json" (Benchlib.Codecbench.report r);
  print_endline "wrote BENCH_codec.json"

let compose () =
  section "compose: host ms per desktop composite, app draw / surface write / repaint / flush / blend";
  let r = Benchlib.Composebench.run () in
  print_string (Benchlib.Composebench.render r);
  Benchlib.Report.write "BENCH_compose.json" (Benchlib.Composebench.report r);
  print_endline "wrote BENCH_compose.json"

let simbench () =
  section "simbench: host-parallel engine — pop cost, speedup, determinism";
  let r = Benchlib.Simbench.run () in
  print_string (Benchlib.Simbench.render r);
  Benchlib.Report.write "BENCH_sim.json" (Benchlib.Simbench.report r);
  print_endline "wrote BENCH_sim.json"

let ablations () =
  section "Ablations: the design choices DESIGN.md calls out";
  print_string (Benchlib.Ablation.render (Benchlib.Ablation.run ()))

let fig13 () =
  section "Figure 13: pedagogical survey (synthetic respondent model)";
  print_string (Benchlib.Survey.render (Benchlib.Survey.run ~seed:48L ()))

let experiments =
  [
    ("table1", table1);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("table4", table4);
    ("fig10", fig10);
    ("fig11", fig11);
    ("mem", mem);
    ("fig12", fig12);
    ("fig13", fig13);
    ("ablations", ablations);
    ("iobench", iobench);
    ("schedbench", schedbench);
    ("ipcbench", ipcbench);
    ("tracebench", tracebench);
    ("obsbench", obsbench);
    ("codec", codec);
    ("compose", compose);
    ("simbench", simbench);
    ("crashbench", crashbench);
    ("fuzzbench", fuzzbench);
    ("lintbench", lintbench);
  ]

let () =
  match Sys.argv with
  | [| _ |] ->
      List.iter (fun (_, f) -> f ()) experiments;
      print_endline "\nall experiments complete"
  | [| _; name |] -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
  | _ ->
      Printf.eprintf "usage: main.exe [experiment]\n";
      exit 1
