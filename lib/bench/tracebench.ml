(** tracebench — the observability stack benchmarking itself.

    Two questions, answered in [BENCH_trace.json]:

    - {b what does tracing cost the host?} The simulated kernel charges
      zero virtual cycles for instrumentation (the BENCH byte-identity
      contract), but each [Ktrace.emit] is real OCaml work on the host.
      Part 1 times ~1M emits against the shared ring.

    - {b what does the trace buy?} Part 2 boots a fully armed Prototype
      5 (100 Hz profiler, kcheck), runs
      the launcher under injected USB key presses, and mines the trace
      for a Figure-11-style input breakdown — keypress ([Kbd_report]) →
      delivery to the app ([Event_delivered]) → next frame
      ([Frame_present]) — plus per-operation span totals from the
      paired [Span_begin]/[Span_end] stream.

    The captured session is also written in ktrace machine format
    ([BENCH_trace.ktrace]) so [tools/ktrace2perfetto] can be smoked
    against a real trace in CI. *)

(* ---- part 1: host-side emit cost ---- *)

let emits = 1_000_000

let emit_cost_ns () =
  let tr = Core.Ktrace.create ~capacity:65536 () in
  let (), dt =
    Report.timed (fun () ->
        for i = 0 to emits - 1 do
          Core.Ktrace.emit tr ~ts_ns:(Int64.of_int i) ~core:(i land 3)
            Core.Ktrace.Kbd_report
        done)
  in
  dt *. 1e9 /. float_of_int emits

(* ---- part 2: armed launcher session ---- *)

let presses = 10

type breakdown = {
  bd_samples : int;  (** key presses that reached the app *)
  bd_deliver_ms : float;  (** kbd_report -> event_delivered, mean *)
  bd_respond_ms : float;  (** event_delivered -> next frame_present, mean *)
}

type span_op = { so_name : string; so_count : int; so_total_ms : float }

type session = {
  s_events : int;  (** trace entries captured *)
  s_spans_matched : int;
  s_spans_open : int;  (** begins with no end: blocked syscalls etc. *)
  s_breakdown : breakdown;
  s_span_ops : span_op list;  (** per-operation totals, busiest first *)
  s_syscall_hist : string;  (** the kernel's own service-time histogram *)
  s_profile : string;  (** /proc/profile's attribution table *)
  s_trace : Core.Ktrace.entry list;  (** raw, for the machine dump *)
}

let mine_breakdown events =
  let deliver, respond = Evsel.keypresses events in
  {
    bd_samples = List.length deliver;
    bd_deliver_ms = Evsel.mean deliver;
    bd_respond_ms = Evsel.mean respond;
  }

let span_totals spans =
  let tbl : (string, int * int64) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let d =
        Int64.sub sp.Core.Ktrace.sp_end_ns sp.Core.Ktrace.sp_begin_ns
      in
      let c, t =
        match Hashtbl.find_opt tbl sp.Core.Ktrace.sp_name with
        | Some v -> v
        | None -> (0, 0L)
      in
      Hashtbl.replace tbl sp.Core.Ktrace.sp_name (c + 1, Int64.add t d))
    spans;
  Hashtbl.fold
    (fun name (c, t) acc ->
      { so_name = name; so_count = c; so_total_ms = Sim.Engine.to_ms t }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.so_total_ms a.so_total_ms)

let run_session () =
  let stage =
    Proto.Stage.boot ~prototype:5
      ~config_tweak:(fun c ->
        { c with Core.Kconfig.profile_hz = 100; kcheck = true })
      ()
  in
  let kernel = stage.Proto.Stage.kernel in
  let board = kernel.Core.Kernel.board in
  ignore (Proto.Stage.start stage "launcher" [ "launcher"; "600" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  for _ = 1 to presses do
    Hw.Usb.key_down board.Hw.Board.usb 0x51 (* down arrow *);
    Proto.Stage.run_for stage (Sim.Engine.ms 60);
    Hw.Usb.key_up board.Hw.Board.usb 0x51;
    Proto.Stage.run_for stage (Sim.Engine.ms 60)
  done;
  let sched = kernel.Core.Kernel.sched in
  let events = Core.Ktrace.dump sched.Core.Sched.trace in
  let spans, open_spans = Core.Ktrace.pair_spans events in
  {
    s_events = List.length events;
    s_spans_matched = List.length spans;
    s_spans_open = List.length open_spans;
    s_breakdown = mine_breakdown events;
    s_span_ops = span_totals spans;
    s_syscall_hist = Core.Kperf.Hist.render_line sched.Core.Sched.h_syscall;
    s_profile = Core.Kperf.render_profile sched.Core.Sched.kperf;
    s_trace = events;
  }

type result = { emit_single_ns : float; session : session }

let run () = { emit_single_ns = emit_cost_ns (); session = run_session () }

(* ---- reporting ---- *)

let render r =
  let s = r.session in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "  host emit cost: %.0f ns/event, %d emits\n" r.emit_single_ns emits);
  Buffer.add_string b
    (Printf.sprintf
       "  launcher session: %d trace events, %d spans matched, %d left \
        open\n"
       s.s_events s.s_spans_matched s.s_spans_open);
  Buffer.add_string b
    (Printf.sprintf
       "  input breakdown over %d keypresses: deliver %.2f ms, respond \
        %.2f ms, total %.2f ms\n"
       s.s_breakdown.bd_samples s.s_breakdown.bd_deliver_ms
       s.s_breakdown.bd_respond_ms
       (s.s_breakdown.bd_deliver_ms +. s.s_breakdown.bd_respond_ms));
  Buffer.add_string b
    (Printf.sprintf "  syscall service: %s\n" s.s_syscall_hist);
  Buffer.add_string b "  busiest span operations:\n";
  List.iteri
    (fun i op ->
      if i < 8 then
        Buffer.add_string b
          (Printf.sprintf "    %-16s %7d spans %9.2f ms total\n" op.so_name
             op.so_count op.so_total_ms))
    s.s_span_ops;
  Buffer.add_string b s.s_profile;
  Buffer.contents b

let report r =
  let s = r.session and bd = r.session.s_breakdown in
  let op o =
    Report.(
      Obj
        [
          ("op", String o.so_name); ("count", Int o.so_count);
          ("total_ms", Fixed (3, o.so_total_ms));
        ])
  in
  Report.
    ( [
        ("benchmark", String "tracebench"); ("emits", Int emits);
        ( "session",
          Obj
            [
              ("trace_events", Int s.s_events);
              ("spans_matched", Int s.s_spans_matched);
              ("spans_open", Int s.s_spans_open);
              ("keypresses", Int bd.bd_samples);
              ("deliver_ms", Fixed (3, bd.bd_deliver_ms));
              ("respond_ms", Fixed (3, bd.bd_respond_ms));
              ("total_ms", Fixed (3, bd.bd_deliver_ms +. bd.bd_respond_ms));
            ] );
        ("span_ops", List (List.map op s.s_span_ops));
        ("syscall_service", String s.s_syscall_hist);
      ],
      [ ("emit_cost_ns_single", Fixed (1, r.emit_single_ns)) ] )

let write_trace r path =
  let oc = open_out path in
  Core.Ktrace.write_machine oc r.session.s_trace;
  close_out oc
