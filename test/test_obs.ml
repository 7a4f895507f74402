(** Observability-layer tests: the vprobe spec parser and its error
    surface, attach/fire/predicate/keying semantics over emitted trace
    events, the probe hook's lifetime, ctl_write's all-or-nothing
    contract, armed-vs-stock identity with every point attached, the
    /proc/vprobe + /proc/vprobe_ctl +
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
  check_bool "the static catalog follows both syscall families" true
    (Vp.point_id "sched:wakeup" = Some (2 * Core.Abi.syscall_count));
  check_bool "unknown names have no id" true (Vp.point_id "nope:nope" = None)

(* ---- the spec parser ---- *)

let parser_accepts_grammar () =
  let vp = Vp.create (Core.Ktrace.create ()) in
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
  let tr = Core.Ktrace.create () in
  let vp = Vp.create tr in
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
  check_bool "and install no probe hook" false (Core.Ktrace.probing tr)

(* ---- fire semantics ---- *)

(* Probes read the events a kernel emits: these tests emit them into a
   bare trace, on the core given. *)
let emit tr ~core ev = Core.Ktrace.emit tr ~ts_ns:0L ~core ev

let fire_respects_predicates_and_keys () =
  let tr = Core.Ktrace.create () in
  let vp = Vp.create tr in
  let id =
    check_ok "attach"
      (Vp.attach vp "probe sched:wakeup / pid==3 && core<2 / count by(core)")
  in
  let wake ~pid ~core = emit tr ~core (Core.Ktrace.Sched_wakeup pid) in
  wake ~pid:3 ~core:0;
  wake ~pid:3 ~core:0;
  wake ~pid:3 ~core:1;
  wake ~pid:4 ~core:0;
  (* pid miss *)
  wake ~pid:3 ~core:2;
  (* core miss *)
  emit tr ~core:0 (Core.Ktrace.Ctx_switch (1, 3));
  (* another point *)
  let probe = List.hd vp.Vp.all in
  check_int "only predicate-passing events count" 3 probe.Vp.pr_fired;
  let text = Vp.render vp in
  check_contains "per-core cell for core 0" "count[0]\t: 2" text;
  check_contains "per-core cell for core 1" "count[1]\t: 1" text;
  check_contains "the filter renders" "pid == 3 && core < 2" text;
  check_bool "detach by id" true (Vp.detach vp id);
  wake ~pid:3 ~core:0;
  check_int "a detached probe counts nothing" 3 probe.Vp.pr_fired;
  check_bool "second detach is a no-op" false (Vp.detach vp id)

let sum_and_hist_units () =
  let tr = Core.Ktrace.create () in
  let vp = Vp.create tr in
  ignore (check_ok "sum" (Vp.attach vp "probe sd:complete / * / sum(latency_us)"));
  ignore
    (check_ok "hist" (Vp.attach vp "probe sd:complete / * / hist(latency_ns)"));
  emit tr ~core:0 (Core.Ktrace.Probe (Core.Ktrace.Sd_request (1, 2_500)));
  emit tr ~core:0 (Core.Ktrace.Probe (Core.Ktrace.Sd_request (1, 1_999)));
  let text = Vp.render vp in
  (* 2500 ns + 1999 ns = 2 us + 1 us in microsecond units *)
  check_contains "sum scales to the requested unit" "sum(latency_us)\t: 3  (n=2)"
    text;
  check_contains "histogram renders with its sample count" "hist(latency_ns)"
    text;
  check_contains "both samples recorded" "n=2" text

(* A fire of a [count] or a [sum(arg0)] probe allocates nothing: the
   cell's count and sum are immediate ints. 10^5 fires at a static
   point, each aggregation attached alone; the sum still renders its
   decimal. *)
let count_and_sum_fires_allocate_nothing () =
  let vp = Vp.create (Core.Ktrace.create ()) in
  let pt = Option.get (Vp.point_id "pipe:write") in
  let n = 100_000 in
  List.iter
    (fun spec ->
      let id = check_ok spec (Vp.attach vp spec) in
      (* the first fire makes the cell *)
      Vp.static vp pt ~pid:1 ~core:0 ~arg0:0 ~latency_ns:0;
      let w0 = Gc.minor_words () in
      for i = 1 to n do
        Vp.static vp pt ~pid:1 ~core:0 ~arg0:i ~latency_ns:0
      done;
      let per_fire = (Gc.minor_words () -. w0) /. float_of_int n in
      check_bool
        (Printf.sprintf "%s: a fire allocated %.2f minor words (< 0.5)" spec per_fire)
        true (per_fire < 0.5);
      check_bool (spec ^ ": detach") true (Vp.detach vp id))
    [ "probe pipe:write / * / count"; "probe pipe:write / * / sum(arg0)" ];
  ignore (check_ok "sum" (Vp.attach vp "probe pipe:write / * / sum(arg0)"));
  for i = 1 to n do
    Vp.static vp pt ~pid:1 ~core:0 ~arg0:i ~latency_ns:0
  done;
  check_contains "the sum renders as a decimal" "sum(arg0)\t: 5000050000  (n=100000)"
    (Vp.render vp)

(* Every point family and the event that feeds it, one representative
   syscall per syscall family. Only the three sched events enter the
   ring. *)
let every_family_routes () =
  let tr = Core.Ktrace.create () in
  let vp = Vp.create tr in
  let read = Core.Abi.syscall_index (Core.Abi.Read (3, 64)) in
  let cases =
    [
      ("sysenter:read", Core.Ktrace.Probe (Core.Ktrace.Sys_args (read, 1, 3, 3)));
      ( "syscall:read",
        Core.Ktrace.Probe (Core.Ktrace.Sys_result (read, 1, 3, 3, 9, 4_000)) );
      ("sched:wakeup", Core.Ktrace.Sched_wakeup 1);
      ("sched:ctx_switch", Core.Ktrace.Ctx_switch (0, 1));
      ("sched:migrate", Core.Ktrace.Sched_migrate (1, 0, 1));
      ("lock:acquire", Core.Ktrace.Probe (Core.Ktrace.Spin_take false));
      ("lock:contended", Core.Ktrace.Probe (Core.Ktrace.Spin_take true));
      ("pipe:read", Core.Ktrace.Probe (Core.Ktrace.Pipe_read (1, 8, 0)));
      ("pipe:write", Core.Ktrace.Probe (Core.Ktrace.Pipe_write (1, 8)));
      ("bufcache:hit", Core.Ktrace.Probe (Core.Ktrace.Cache_hit (1, 7)));
      ("bufcache:miss", Core.Ktrace.Probe (Core.Ktrace.Cache_miss (1, 7)));
      ("sd:issue", Core.Ktrace.Probe (Core.Ktrace.Sd_request (1, 100)));
      ("journal:commit", Core.Ktrace.Probe (Core.Ktrace.Journal_commit 3));
    ]
  in
  (* sd:complete is fed by the same Sd_request as sd:issue *)
  let points = "sd:complete" :: List.map fst cases in
  List.iter
    (fun name ->
      ignore
        (check_ok name
           (Vp.attach vp ("probe " ^ name ^ " / fd==3 && errno==9 / count"))))
    [ "sysenter:read"; "syscall:read" ];
  let probes =
    List.map
      (fun name ->
        ignore (check_ok name (Vp.attach vp ("probe " ^ name)));
        (name, List.hd vp.Vp.all))
      points
  in
  List.iter (fun (_, ev) -> emit tr ~core:0 ev) cases;
  List.iter (fun (name, p) -> check_int name 1 p.Vp.pr_fired) probes;
  check_contains "the syscall events carry fd and errno"
    "probe syscall:read / fd==3 && errno==9 / count  (point syscall:read, fired 1)"
    (Vp.render vp);
  check_contains "an entry event has no errno"
    "probe sysenter:read / fd==3 && errno==9 / count  (point sysenter:read, fired 0)"
    (Vp.render vp);
  check_int "probe-only events stay out of the ring" 3 tr.Core.Ktrace.head

let probe_hook_follows_attachments () =
  let tr = Core.Ktrace.create () in
  let vp = Vp.create tr in
  check_bool "fresh registry: no hook" false (Core.Ktrace.probing tr);
  let id = check_ok "attach" (Vp.attach vp "probe sysenter:read") in
  check_bool "an attached probe installs the hook" true
    (Core.Ktrace.probing tr);
  ignore (check_ok "second" (Vp.attach vp "probe sched:wakeup"));
  check_bool "detach one" true (Vp.detach vp id);
  check_bool "the hook stays while a probe is left" true
    (Core.Ktrace.probing tr);
  Vp.clear vp;
  check_bool "clear removes the hook" false (Core.Ktrace.probing tr);
  Core.Ktrace.set_enabled tr false;
  ignore (check_ok "again" (Vp.attach vp "probe sched:wakeup"));
  emit tr ~core:0 (Core.Ktrace.Sched_wakeup 1);
  check_int "the hook sees events the disabled ring drops" 1
    (List.hd vp.Vp.all).Vp.pr_fired;
  check_int "and the ring stays empty" 0 tr.Core.Ktrace.head

(* ---- ctl_write: all-or-nothing ---- *)

let ctl_write_all_or_nothing () =
  let vp = Vp.create (Core.Ktrace.create ()) in
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

(* The recorder is armed by stage: Prototype 3 has no file table and
   keeps no black box, Prototype 4 is the first stage that records. *)
let flight_recorder_gated () =
  let record stage =
    let kernel = boot_kernel ~config:(Core.Kconfig.prototype stage) () in
    run_for kernel 1;
    panic_from_event kernel "obs test: staged panic";
    count_sub (Core.Kernel.uart_output kernel) "=== FLIGHT RECORDER"
  in
  check_int "no recorder at Prototype 3" 0 (record 3);
  check_int "one record at Prototype 4" 1 (record 4)

(* A panic raised by an engine event while [Measure.run_task] drives the
   clock leaves kernel code the way one under [run_until] does: the
   flight recorder runs once, then the panic reaches the caller. *)
let flight_recorder_under_run_task () =
  let kernel = boot_kernel () in
  ignore
    (Sim.Engine.schedule_after kernel.Core.Kernel.board.Hw.Board.engine
       (Sim.Engine.ms 1) (fun () ->
         Core.Kpanic.panicf "obs test: panic under run_task"));
  (match
     Benchlib.Measure.run_task kernel ~name:"sleeper" (fun () ->
         ignore (User.Usys.sleep 10);
         0)
   with
  | _ -> Alcotest.fail "the panic did not leave run_task"
  | exception Core.Kpanic.Panic m ->
      check_string "re-raised as is" "obs test: panic under run_task" m);
  let out = Core.Kernel.uart_output kernel in
  check_contains "the panic message" "panic: obs test: panic under run_task"
    out;
  check_int "recorded once" 1 (count_sub out "=== FLIGHT RECORDER")

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

(* ---- armed vs stock, every point ---- *)

(* obsbench's workload, then a file round trip on the FAT volume, which
   reaches the SD card and so the sd:* points. *)
let every_point_workload () =
  ignore (Benchlib.Obsbench.workload ());
  let fd =
    User.Usys.open_ "/d/obs.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
  in
  if fd < 0 then Alcotest.failf "open /d/obs.dat: %d" fd;
  for _ = 1 to 8 do
    ignore (User.Usys.write fd (Bytes.make 1500 'f'))
  done;
  ignore (User.Usys.fsync fd);
  ignore (User.Usys.lseek fd 0 0);
  for _ = 1 to 8 do
    ignore (User.Usys.read fd 1500)
  done;
  ignore (User.Usys.close fd)

(* Besides a bare count, every point gets these: between them they read
   each predicate field, each key and each by() label. *)
let every_point_specs =
  [
    " / fd>=0 && errno==0 / sum(latency_us) by(core)";
    " / arg0!=0 / sum(arg0) by(pid)";
    " / pid>0 / hist(latency_ns) by(syscall)";
    " / core<4 / sum(errno) by(syscall)";
    " / * / sum(fd)";
    " / errno>0 / count by(pid)";
  ]

let run_every_point ~arm =
  let kernel =
    Benchlib.Micro.fresh_kernel ~config:Benchlib.Obsbench.armed_config ()
  in
  let vp = kernel.Core.Kernel.sched.Core.Sched.vprobe in
  let probes =
    if arm then
      List.init Vp.point_count (fun pt ->
          let name = Vp.point_name pt in
          let attach rest =
            ignore (check_ok name (Vp.attach vp ("probe " ^ name ^ rest)))
          in
          List.iter attach every_point_specs;
          attach "";
          (name, List.hd vp.Vp.all))
    else []
  in
  (match
     Benchlib.Measure.run_task kernel ~name:"obs-workload" every_point_workload
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let b = Buffer.create 65536 in
  Core.Ktrace.add_machine_dump b
    (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace);
  let aggregates = Vp.render vp ^ Vp.render_metrics vp in
  (Core.Kernel.now kernel, Buffer.contents b, probes, aggregates)

(* Each point's fire count in the armed run; a point not listed fires
   never. *)
let every_point_fired =
  [
    ("sysenter:fork", 1); ("sysenter:wait", 1); ("sysenter:kill", 1);
    ("sysenter:getpid", 200); ("sysenter:sleep", 35); ("sysenter:open", 2);
    ("sysenter:close", 4); ("sysenter:read", 659); ("sysenter:write", 658);
    ("sysenter:lseek", 2); ("sysenter:pipe", 2); ("sysenter:fsync", 2);
    ("syscall:fork", 1); ("syscall:wait", 1); ("syscall:kill", 1);
    ("syscall:getpid", 200); ("syscall:sleep", 35); ("syscall:open", 2);
    ("syscall:close", 4); ("syscall:read", 658); ("syscall:write", 658);
    ("syscall:lseek", 2); ("syscall:pipe", 2); ("syscall:fsync", 2);
    ("sched:wakeup", 637); ("sched:ctx_switch", 637); ("sched:migrate", 3);
    ("lock:acquire", 3368); ("pipe:read", 600); ("pipe:write", 600);
    ("bufcache:hit", 750); ("bufcache:miss", 180); ("sd:issue", 98);
    ("sd:complete", 98); ("journal:commit", 3);
  ]

let armed_every_point_matches_stock () =
  let stock_end, stock_dump, _, _ = run_every_point ~arm:false in
  let armed_end, armed_dump, probes, aggregates = run_every_point ~arm:true in
  check_string "what the aggregates render" "552a99792519d633959436155e13f2f6"
    (Digest.to_hex (Digest.string aggregates));
  check_bool "same end time" true (Int64.equal stock_end armed_end);
  check_bool "same machine-format trace" true
    (String.equal stock_dump armed_dump);
  check_int "one probe per point" Vp.point_count (List.length probes);
  List.iter
    (fun (name, p) ->
      check_int name
        (Option.value ~default:0 (List.assoc_opt name every_point_fired))
        p.Vp.pr_fired)
    probes

(* ---- wait channels: the name each family renders, the bucket it fills ---- *)

(* One task parked on every channel family a task can block on. For
   each, the state /proc/tasks and /proc/delays show is pinned, and over
   a second of waiting exactly one of the four wait buckets grows. *)
let wait_families_name_and_bucket () =
  let kernel = boot_kernel () in
  let fdt = kernel.Core.Kernel.fdt in
  Core.Debugmon.watch_syscall kernel.Core.Kernel.debugmon "mkdir";
  let families = ref [] in
  let park name ~bucket body =
    let expected = ref "" in
    let task =
      Core.Kernel.spawn_user kernel ~name (fun () ->
          body (fun chan -> expected := "blocked:" ^ chan);
          0)
    in
    families := (name, task, expected, bucket) :: !families
  in
  let pipe_id fd =
    match Core.Fd.get fdt ~pid:(User.Usys.getpid ()) ~fd with
    | Some { Core.Fd.kind = Core.Fd.K_pipe_read p; _ }
    | Some { Core.Fd.kind = Core.Fd.K_pipe_write p; _ } ->
        p.Core.Pipe.pipe_id
    | Some _ | None -> Alcotest.fail "not a pipe end"
  in
  let forever = 1_000_000 in
  park "sleeper" ~bucket:`Sleep (fun expect ->
      expect "sleep";
      ignore (User.Usys.sleep forever));
  park "joiner" ~bucket:`Sleep (fun expect ->
      let tid =
        User.Usys.clone (fun () ->
            ignore (User.Usys.sleep forever);
            0)
      in
      expect (Printf.sprintf "exit:%d" tid);
      ignore (User.Usys.join tid));
  park "waiter" ~bucket:`Sleep (fun expect ->
      ignore
        (User.Usys.fork (fun () ->
             ignore (User.Usys.sleep forever);
             0));
      expect (Printf.sprintf "children:%d" (User.Usys.getpid ()));
      ignore (User.Usys.wait ()));
  park "debuggee" ~bucket:`Sleep (fun expect ->
      expect (Printf.sprintf "debug:%d" (User.Usys.getpid ()));
      ignore (User.Usys.mkdir "/stopped"));
  park "poller" ~bucket:`Sleep (fun expect ->
      match User.Usys.pipe () with
      | Ok (r, _w) ->
          expect "poll:waiters";
          ignore (User.Usys.poll [ r ] ~timeout_ms:(-1))
      | Error e -> Alcotest.failf "pipe: errno %d" e);
  park "pipe-reader" ~bucket:`Pipe (fun expect ->
      match User.Usys.pipe () with
      | Ok (r, _w) ->
          expect (Printf.sprintf "pipe:%d:r" (pipe_id r));
          ignore (User.Usys.read r 8)
      | Error e -> Alcotest.failf "pipe: errno %d" e);
  park "pipe-writer" ~bucket:`Pipe (fun expect ->
      match User.Usys.pipe () with
      | Ok (_r, w) ->
          expect (Printf.sprintf "pipe:%d:w" (pipe_id w));
          ignore (User.Usys.write w (Bytes.make 65536 'x'))
      | Error e -> Alcotest.failf "pipe: errno %d" e);
  park "sem-waiter" ~bucket:`Lock (fun expect ->
      let id = User.Usys.sem_open 0 in
      expect (Printf.sprintf "sem:%d" id);
      ignore (User.Usys.sem_wait id));
  park "kbd-reader" ~bucket:`Io (fun expect ->
      let fd = User.Usys.open_ "/dev/events" Core.Abi.o_rdonly in
      expect "kbd:events";
      ignore (User.Usys.read fd 64));
  park "uart-reader" ~bucket:`Io (fun expect ->
      let fd = User.Usys.open_ "/dev/console" Core.Abi.o_rdonly in
      expect "uart:rx";
      ignore (User.Usys.read fd 1));
  park "audio-writer" ~bucket:`Io (fun expect ->
      let fd = User.Usys.open_ "/dev/sb" Core.Abi.o_wronly in
      expect "audio:space";
      ignore (User.Usys.write fd (Bytes.make 4_000_000 '\000')));
  park "wm-reader" ~bucket:`Io (fun expect ->
      match User.Gfx.windowed ~width:16 ~height:16 ~x:0 ~y:0 () with
      | Error e -> Alcotest.failf "window: errno %d" e
      | Ok _ ->
          let me =
            Option.get
              (Core.Sched.task_by_pid kernel.Core.Kernel.sched
                 (User.Usys.getpid ()))
          in
          expect
            (Printf.sprintf "wm:ev:%d" (Option.get me.Core.Task.wm_surface));
          let fd = User.Usys.open_ "/dev/event1" Core.Abi.o_rdonly in
          ignore (User.Usys.read fd 64));
  run_for kernel 1;
  let row task =
    List.find
      (fun r -> r.Core.Sched.dr_pid = task.Core.Task.pid)
      (Core.Sched.delay_rows kernel.Core.Kernel.sched)
  in
  let waits r =
    [
      (`Sleep, r.Core.Sched.dr_sleep);
      (`Io, r.Core.Sched.dr_blk_io);
      (`Lock, r.Core.Sched.dr_blk_lock);
      (`Pipe, r.Core.Sched.dr_blk_pipe);
    ]
  in
  let before =
    List.map (fun (_, task, _, _) -> waits (row task)) (List.rev !families)
  in
  run_for kernel 1;
  List.iter2
    (fun (name, task, expected, bucket) before ->
      check_string (name ^ " state") !expected (Core.Task.state_name task);
      List.iter2
        (fun (b, was) (_, now) ->
          let grew = Int64.compare now was > 0 in
          check_bool
            (Printf.sprintf "%s: %s bucket grows" name
               (match b with
               | `Sleep -> "sleep"
               | `Io -> "blk_io"
               | `Lock -> "blk_lock"
               | `Pipe -> "blk_pipe"))
            (b = bucket) grew)
        before
        (waits (row task)))
    (List.rev !families) before

let suite =
  ( "obs",
    [
      quick "probe point table shape and round-trip" point_table_shape;
      quick "spec parser accepts the grammar" parser_accepts_grammar;
      quick "spec parser rejects garbage" parser_rejects_garbage;
      quick "fire honours predicates and by-keys"
        fire_respects_predicates_and_keys;
      quick "sum/hist key units" sum_and_hist_units;
      quick "probe hook follows attachments" probe_hook_follows_attachments;
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
      slow "flight recorder silent when stage < 4" flight_recorder_gated;
      slow "flight recorder runs under Measure.run_task"
        flight_recorder_under_run_task;
      slow "two kernels own their lock probes and flight recorders"
        two_kernels_own_their_observers;
      slow "every point armed leaves the run as stock ran it"
        armed_every_point_matches_stock;
      quick "every point family has its event" every_family_routes;
      slow "every wait channel family has its name and delay bucket"
        wait_families_name_and_bucket;
      quick "count and sum fires allocate nothing" count_and_sum_fires_allocate_nothing;
    ] )
