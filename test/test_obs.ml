(** Observability-layer tests: the vprobe spec parser and its error
    surface, attach/fire/predicate/keying semantics, ctl_write's
    all-or-nothing contract, the /proc/vprobe + /proc/vprobe_ctl +
    /proc/delays surfaces (served by every stock kernel), the dstate
    gate, delay-bucket conservation, and the panic flight recorder. *)

open Tharness
module Vp = Core.Vprobe

let contains s sub =
  let nl = String.length sub and l = String.length s in
  let rec at i = i + nl <= l && (String.equal (String.sub s i nl) sub || at (i + 1)) in
  at 0

let check_contains name sub s =
  if not (contains s sub) then
    Alcotest.failf "%s: %S not found in:\n%s" name sub s

(* ---- the point registry ---- *)

let point_table_shape () =
  check_int "two syscall families plus the static catalog"
    ((2 * Core.Abi.syscall_count) + 12)
    Vp.point_count;
  (* names round-trip through the id table for every registered point *)
  for pt = 0 to Vp.point_count - 1 do
    match Vp.point_id (Vp.point_name pt) with
    | Some id -> check_int (Printf.sprintf "round-trip point %d" pt) pt id
    | None -> Alcotest.failf "point %s lost its id" (Vp.point_name pt)
  done;
  check_bool "sysenter and sysexit are distinct points" true
    (Vp.point_id "sysenter:read" <> Vp.point_id "syscall:read");
  check_bool "sched:wakeup maps to its constant" true
    (Vp.point_id "sched:wakeup" = Some Vp.pt_sched_wakeup);
  check_bool "unknown names have no id" true (Vp.point_id "nope:nope" = None)

(* ---- the spec parser ---- *)

let parser_accepts_grammar () =
  let vp = Vp.create () in
  List.iter
    (fun spec ->
      match Vp.attach vp spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "spec %S rejected: %s" spec e)
    [
      "probe sched:wakeup";
      "probe syscall:read / pid==2 / hist(latency_us)";
      "probe sysenter:write / fd!=1 && arg0>0";
      "probe pipe:read / * / sum(arg0) by(pid)";
      "probe journal:commit / core>=0 / count by(core)";
      "  probe bufcache:hit / errno<=0  ";
    ]

let parser_rejects_garbage () =
  let vp = Vp.create () in
  List.iter
    (fun spec ->
      match Vp.attach vp spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error _ -> ())
    [
      "trace sched:wakeup";
      "probe nope:nope";
      "probe sched:wakeup / pid=2";
      "probe sched:wakeup / weight==2";
      "probe sched:wakeup / * / avg(arg0)";
      "probe sched:wakeup / * / count by(fd)";
      "probe sched:wakeup / * / count / extra";
      "probe sched:wakeup / * / hist(bogus)";
    ];
  check_int "failed parses attach nothing" 0 (List.length vp.Vp.all);
  check_bool "and arm nothing" false (Vp.armed vp Vp.pt_sched_wakeup)

(* ---- fire semantics ---- *)

let fire_respects_predicates_and_keys () =
  let vp = Vp.create () in
  let id =
    check_ok "attach"
      (Vp.attach vp "probe sched:wakeup / pid==3 && core<2 / count by(core)")
  in
  check_bool "point armed after attach" true (Vp.armed vp Vp.pt_sched_wakeup);
  check_bool "static probes leave the trap-path flag down" false
    (Vp.syscall_armed vp);
  let fire ~pid ~core =
    Vp.fire vp Vp.pt_sched_wakeup
      { Vp.no_args with Vp.a_pid = pid; Vp.a_core = core }
  in
  fire ~pid:3 ~core:0;
  fire ~pid:3 ~core:0;
  fire ~pid:3 ~core:1;
  fire ~pid:4 ~core:0;
  (* pid miss *)
  fire ~pid:3 ~core:2;
  (* core miss *)
  let probe = List.hd vp.Vp.all in
  check_int "only predicate-passing events count" 3 probe.Vp.pr_fired;
  let text = Vp.render vp in
  check_contains "per-core cell for core 0" "count[0]\t: 2" text;
  check_contains "per-core cell for core 1" "count[1]\t: 1" text;
  check_contains "the filter renders" "pid == 3 && core < 2" text;
  check_bool "detach by id" true (Vp.detach vp id);
  check_bool "detach disarms the point" false (Vp.armed vp Vp.pt_sched_wakeup);
  check_bool "second detach is a no-op" false (Vp.detach vp id)

let sum_and_hist_units () =
  let vp = Vp.create () in
  ignore (check_ok "sum" (Vp.attach vp "probe sd:complete / * / sum(latency_us)"));
  ignore
    (check_ok "hist" (Vp.attach vp "probe sd:complete / * / hist(latency_ns)"));
  let fire ns =
    Vp.fire vp Vp.pt_sd_complete
      { Vp.no_args with Vp.a_latency_ns = Int64.of_int ns }
  in
  fire 2_500;
  fire 1_999;
  let text = Vp.render vp in
  (* 2500 ns + 1999 ns = 2 us + 1 us in microsecond units *)
  check_contains "sum scales to the requested unit" "sum(latency_us)\t: 3  (n=2)"
    text;
  check_contains "histogram renders with its sample count" "hist(latency_ns)"
    text;
  check_contains "both samples recorded" "n=2" text

let syscall_armed_tracks_trap_points () =
  let vp = Vp.create () in
  check_bool "fresh registry: trap flag down" false (Vp.syscall_armed vp);
  let id = check_ok "attach" (Vp.attach vp "probe sysenter:read") in
  check_bool "sysenter probe raises the trap flag" true (Vp.syscall_armed vp);
  check_bool "detach" true (Vp.detach vp id);
  check_bool "flag drops with the last trap probe" false (Vp.syscall_armed vp);
  ignore (check_ok "exit side" (Vp.attach vp "probe syscall:write"));
  check_bool "sysexit probes raise it too" true (Vp.syscall_armed vp);
  Vp.clear vp;
  check_bool "clear drops everything" false (Vp.syscall_armed vp)

(* ---- ctl_write: all-or-nothing ---- *)

let ctl_write_all_or_nothing () =
  let vp = Vp.create () in
  (match Vp.ctl_write vp "probe sched:wakeup\nprobe nope:nope\n" with
  | Ok () -> Alcotest.fail "a bad line must reject the whole write"
  | Error _ -> ());
  check_int "nothing attached from the rejected write" 0
    (List.length vp.Vp.all);
  check_ok "good multi-line write"
    (Vp.ctl_write vp "probe sched:wakeup\n\nprobe pipe:read / * / sum(arg0)\n");
  check_int "both probes attached" 2 (List.length vp.Vp.all);
  check_ok "detach by ctl" (Vp.ctl_write vp "detach 1\n");
  check_int "one probe left" 1 (List.length vp.Vp.all);
  (match Vp.ctl_write vp "detach banana\n" with
  | Ok () -> Alcotest.fail "detach wants an integer"
  | Error _ -> ());
  check_ok "clear by ctl" (Vp.ctl_write vp "clear\n");
  check_int "registry empty after clear" 0 (List.length vp.Vp.all)

(* ---- /proc surfaces ---- *)

let proc_vprobe_roundtrip () =
  in_kernel (fun _ ->
      let wr line =
        let fd = User.Usys.open_ "/proc/vprobe_ctl" Core.Abi.o_wronly in
        let r = User.Usys.write fd (Bytes.of_string line) in
        ignore (User.Usys.close fd);
        r
      in
      check_bool "ctl write accepted" true
        (wr "probe syscall:getpid / * / count\n" > 0);
      for _ = 1 to 25 do
        ignore (User.Usys.getpid ())
      done;
      let text =
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/vprobe"))
      in
      check_contains "attached probe listed" "probe syscall:getpid" text;
      check_contains "aggregate shows the getpid storm" "count\t: 25" text;
      check_int "bad spec comes back EINVAL" (-Core.Errno.einval)
        (wr "probe nope:nope\n");
      let delays =
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/delays"))
      in
      check_contains "delay table header" "LIFETIME" delays;
      check_contains "our task has a row" "test" delays)

let metrics_fold_in () =
  let text =
    in_kernel (fun _ ->
        let fd = User.Usys.open_ "/proc/vprobe_ctl" Core.Abi.o_wronly in
        ignore
          (User.Usys.write fd (Bytes.of_string "probe syscall:getpid\n"));
        ignore (User.Usys.close fd);
        for _ = 1 to 10 do
          ignore (User.Usys.getpid ())
        done;
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/metrics")))
  in
  check_contains "vprobe series" "vos_vprobe_fired_total{probe=" text;
  check_contains "journal counter exported" "vos_journal_commits_total" text;
  check_bool "no host-pool series in a kernel's metrics" false
    (contains text "vos_dpool_");
  check_contains "kcheck violations exported" "vos_kcheck_violations_total"
    text

(* The stock Prototype 5 config, not the harness's kcheck variant: every
   observability page is served with no knob to arm. *)
let stock_serves_observability () =
  in_kernel ~config:Core.Kconfig.full (fun _ ->
      let slurp path =
        match User.Usys.slurp path with
        | Ok b -> Bytes.to_string b
        | Error e -> Alcotest.failf "%s: errno %d" path e
      in
      check_contains "/proc/metrics is Prometheus text" "# TYPE"
        (slurp "/proc/metrics");
      check_contains "/proc/vprobe renders" "probes" (slurp "/proc/vprobe");
      let fd = User.Usys.open_ "/proc/vprobe_ctl" Core.Abi.o_wronly in
      check_bool "/proc/vprobe_ctl opens for writing" true (fd >= 0);
      check_bool "/proc/vprobe_ctl accepts a spec" true
        (User.Usys.write fd (Bytes.of_string "probe sched:wakeup\n") > 0);
      ignore (User.Usys.close fd);
      check_contains "/proc/delays has the table" "LIFETIME"
        (slurp "/proc/delays"))

(* ---- delay accounting ---- *)

(* Every live task's six buckets sum to its lifetime, exactly. *)
let check_conserved rows =
  List.iter
    (fun r ->
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
      if not (Int64.equal sum r.Core.Sched.dr_lifetime) then
        Alcotest.failf "pid %d: buckets sum to %Ld but lifetime is %Ld"
          r.Core.Sched.dr_pid sum r.Core.Sched.dr_lifetime)
    rows

let delay_conservation () =
  in_kernel (fun kernel ->
      (* move through several states: run, sleep, block on a pipe *)
      (match User.Usys.pipe () with
      | Ok (r, w) ->
          let child =
            User.Usys.fork (fun () ->
                ignore (User.Usys.sleep 2);
                ignore (User.Usys.write w (Bytes.make 8 'x'));
                0)
          in
          ignore (User.Usys.read r 8);
          ignore (User.Usys.kill child);
          ignore (User.Usys.wait ());
          ignore (User.Usys.close r);
          ignore (User.Usys.close w)
      | Error _ -> ());
      ignore (User.Usys.sleep 3);
      User.Usys.burn 1_000_000;
      let rows = Core.Sched.delay_rows kernel.Core.Kernel.sched in
      check_bool "at least our task is live" true (List.length rows >= 1);
      check_conserved rows;
      let me =
        List.find (fun r -> String.equal r.Core.Sched.dr_name "test") rows
      in
      check_bool "the burn shows up oncpu" true
        (Int64.compare me.Core.Sched.dr_oncpu 0L > 0);
      check_bool "the sleep shows up" true
        (Int64.compare me.Core.Sched.dr_sleep 0L > 0);
      check_bool "the pipe wait is classified blocked-pipe" true
        (Int64.compare me.Core.Sched.dr_blk_pipe 0L > 0))

(* Prototype 3 has no procfs, but its scheduler keeps the same books. *)
let delay_conservation_p3 () =
  in_kernel ~config:(Core.Kconfig.prototype 3) (fun kernel ->
      let child =
        User.Usys.fork (fun () ->
            ignore (User.Usys.sleep 2);
            0)
      in
      check_bool "fork works at P3" true (child > 0);
      ignore (User.Usys.wait ());
      ignore (User.Usys.sleep 3);
      User.Usys.burn 1_000_000;
      let rows = Core.Sched.delay_rows kernel.Core.Kernel.sched in
      check_conserved rows;
      let me =
        List.find (fun r -> String.equal r.Core.Sched.dr_name "test") rows
      in
      check_bool "the burn shows up oncpu" true
        (Int64.compare me.Core.Sched.dr_oncpu 0L > 0);
      check_bool "the sleep shows up" true
        (Int64.compare me.Core.Sched.dr_sleep 0L > 0))

let dstate_double_gate () =
  in_kernel (fun kernel ->
      let tr = kernel.Core.Kernel.sched.Core.Sched.trace in
      let count_dstate () =
        List.length
          (List.filter
             (fun (e : Core.Ktrace.entry) ->
               match e.Core.Ktrace.ev with
               | Core.Ktrace.Task_state _ | Core.Ktrace.Runq_depth _ -> true
               | _ -> false)
             (Core.Ktrace.dump tr))
      in
      ignore (User.Usys.sleep 2);
      check_int "dstate events stay off by default" 0 (count_dstate ());
      let fd = User.Usys.open_ "/proc/ktrace_ctl" Core.Abi.o_wronly in
      check_bool "dstate toggle accepted" true
        (User.Usys.write fd (Bytes.of_string "dstate=1\n") > 0);
      ignore (User.Usys.close fd);
      let ctl =
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/ktrace_ctl"))
      in
      check_contains "ctl mirrors the toggle" "dstate\t\t: 1" ctl;
      ignore (User.Usys.sleep 2);
      ignore (User.Usys.getpid ());
      check_bool "transitions now emit Task_state/Runq_depth" true
        (count_dstate () > 0))

(* ---- the flight recorder ---- *)

let count_sub s sub =
  let nl = String.length sub and l = String.length s in
  let rec go i n =
    if i + nl > l then n
    else if String.equal (String.sub s i nl) sub then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

(* Panic inside the kernel from an engine event, as vfuzz's canary does:
   the panic leaves kernel code through [run_until], which runs the
   kernel's flight recorder before re-raising. *)
let panic_from_event kernel msg =
  ignore
    (Sim.Engine.schedule_after kernel.Core.Kernel.board.Hw.Board.engine 0L
       (fun () -> Core.Kpanic.panicf "%s" msg));
  match run_for kernel 1 with
  | () -> Alcotest.fail "the panic did not leave run_until"
  | exception Core.Kpanic.Panic m -> check_string "re-raised as is" msg m

let flight_recorder_fires () =
  let kernel = boot_kernel () in
  run_for kernel 1;
  panic_from_event kernel "obs test: deliberate panic";
  let out = Core.Kernel.uart_output kernel in
  check_contains "banner" "=== FLIGHT RECORDER" out;
  check_contains "the panic message is first" "panic: obs test: deliberate panic"
    out;
  check_contains "trace tail present" "trace tail" out;
  check_contains "vprobe aggregates dumped" "vprobe aggregates:" out;
  check_contains "delay table dumped" "delay accounting:" out;
  check_contains "closing banner" "=== END FLIGHT RECORD ===" out;
  check_int "recorded once" 1 (count_sub out "=== FLIGHT RECORDER")

(* A panic inside a task is a task death, not a kernel death: the task's
   exception handler records it once and the task exits -2. *)
let flight_recorder_task_panic () =
  let kernel = boot_kernel () in
  run_for kernel 1;
  let task =
    Core.Kernel.spawn_user kernel ~name:"panicker" (fun () ->
        Core.Kpanic.panicf "obs test: task panic")
  in
  run_for kernel 1;
  let out = Core.Kernel.uart_output kernel in
  check_contains "the panic message" "panic: obs test: task panic" out;
  check_int "recorded once" 1 (count_sub out "=== FLIGHT RECORDER");
  check_string "the task is dead" "zombie" (Core.Task.state_name task);
  check_int "exit -2" (-2) task.Core.Task.exit_code

let flight_recorder_gated () =
  let kernel =
    boot_kernel
      ~config:{ test_config with Core.Kconfig.flight_recorder_events = 0 }
      ()
  in
  run_for kernel 1;
  panic_from_event kernel "obs test: silent panic";
  let out = Core.Kernel.uart_output kernel in
  check_bool "no recorder output when disabled" false
    (contains out "=== FLIGHT RECORDER")

(* Two live kernels own their probes and recorders: boot A, then B, then
   work in A. A's lock acquisitions count only in A's vprobe, and A's
   panic dumps only to A's UART. *)
let two_kernels_own_their_observers () =
  let a = boot_kernel () in
  let b = boot_kernel () in
  let vp k = k.Core.Kernel.sched.Core.Sched.vprobe in
  let probe k =
    match Vp.attach (vp k) "probe lock:acquire" with
    | Ok _ -> List.hd (vp k).Vp.all
    | Error e -> Alcotest.failf "attach: %s" e
  in
  let pa = probe a and pb = probe b in
  let pipe_in a =
    match
      Benchlib.Measure.run_task a ~name:"piper" (fun () ->
          match User.Usys.pipe () with
          | Ok (r, w) ->
              ignore (User.Usys.write w (Bytes.of_string "ping"));
              ignore (User.Usys.read r 4);
              0
          | Error _ -> 1)
    with
    | Ok (code, _) -> check_int "pipe round trip" 0 code
    | Error e -> Alcotest.fail e
  in
  pipe_in a;
  check_bool "A's probe counts A's acquisitions" true (pa.Vp.pr_fired > 0);
  check_int "B's probe sees none of them" 0 pb.Vp.pr_fired;
  panic_from_event a "obs test: panic in A";
  check_contains "A's UART has the record" "panic: obs test: panic in A"
    (Core.Kernel.uart_output a);
  check_bool "B's UART has no record" false
    (contains (Core.Kernel.uart_output b) "=== FLIGHT RECORDER")

let suite =
  ( "obs",
    [
      quick "probe point table shape and round-trip" point_table_shape;
      quick "spec parser accepts the grammar" parser_accepts_grammar;
      quick "spec parser rejects garbage" parser_rejects_garbage;
      quick "fire honours predicates and by-keys"
        fire_respects_predicates_and_keys;
      quick "sum/hist key units" sum_and_hist_units;
      quick "trap-path flag tracks syscall probes"
        syscall_armed_tracks_trap_points;
      quick "ctl_write is all-or-nothing" ctl_write_all_or_nothing;
      slow "/proc/vprobe + vprobe_ctl round-trip" proc_vprobe_roundtrip;
      slow "/proc/metrics folds in vprobe and subsystem counters"
        metrics_fold_in;
      slow "stock kernel serves every observability page"
        stock_serves_observability;
      slow "delay buckets conserve lifetime exactly" delay_conservation;
      slow "prototype 3 keeps conserving delay buckets" delay_conservation_p3;
      slow "dstate events are double-gated" dstate_double_gate;
      slow "panic flight recorder dumps to the UART" flight_recorder_fires;
      slow "a task's panic is recorded once and kills the task"
        flight_recorder_task_panic;
      slow "flight recorder silent when disabled" flight_recorder_gated;
      slow "two kernels own their lock probes and flight recorders"
        two_kernels_own_their_observers;
    ] )
