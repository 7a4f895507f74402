(** The IPC ablation ladder: the xv6 pipe the paper measures stepped up to
    the rebuilt fast path — the same ring charged at memmove speed and
    grown to 4096 bytes, edge-triggered wakeups, and the poll(2) syscall.

    Two workloads run against every configuration, each in its own
    freshly booted kernel so the counters stay clean:

    - {b pipe ping-pong}: two processes bounce a 64-byte message over a
      pipe pair; per-round-trip virtual times give p50/p99 and
      round-trips/s. The "+poll" row additionally calls poll(2) before
      each reply read, showing what the multiplexing costs on the fast
      path.
    - {b keyboard→app}: a GPIO input source fires an event every 10 µs
      (a saturating stress stream, not a humane typist) into /dev/events
      while an app consumes them. Without poll the app runs the paper's
      idiom — O_NONBLOCK reads with a 1 ms sleep on EAGAIN — and the
      64-entry driver ring drops events while it sleeps; with poll it
      blocks until events are pending and loses none.

    Results go to stdout as a table and to [BENCH_ipc.json]. The "xv6"
    row is the seed's pipe, bit-identical charge sequence included. *)

type config_row = {
  ic_name : string;
  ic_config : Core.Kconfig.t;
  ic_poll : bool;  (** app-side: use poll(2) instead of spin/sleep *)
}

(* Every row runs the zero-cycle sanitizer, so the pingpong/events
   workloads double as a refcount/deadlock soak without moving a single
   number, and the 100 Hz sampling profiler for the same reason: it
   costs zero virtual cycles, so every number below must match an
   unarmed run. *)
let base = { Core.Kconfig.full with Core.Kconfig.kcheck = true; profile_hz = 100 }

let fast =
  { base with Core.Kconfig.pipe_ring = true; pipe_buffer_bytes = 4096 }

let ladder =
  let edge = { fast with Core.Kconfig.pipe_wake_edge = true } in
  [
    { ic_name = "xv6"; ic_config = base; ic_poll = false };
    { ic_name = "+ring-blit"; ic_config = fast; ic_poll = false };
    { ic_name = "+edge-wake"; ic_config = edge; ic_poll = false };
    { ic_name = "+poll"; ic_config = edge; ic_poll = true };
  ]

(* ---- workload A: pipe ping-pong ---- *)

let msg_bytes = 64
let warmup_roundtrips = 200
let measured_roundtrips = 1500

type pingpong = {
  pp_p50_us : float;
  pp_p99_us : float;
  pp_per_s : float;
  pp_wakeups_issued : int;
  pp_wakeups_suppressed : int;
}

let run_pingpong rc =
  let kernel = Micro.fresh_kernel ~config:rc.ic_config () in
  (* round-trip latencies go into the shared log-linear histogram rather
     than a private sorted-sample percentile *)
  let hist = Core.Kperf.Hist.create () in
  let total_ns = ref 0L in
  let msg = Bytes.make msg_bytes 'm' in
  (match
     Measure.run_task kernel ~name:"ipc-pingpong" (fun () ->
         match (User.Usys.pipe (), User.Usys.pipe ()) with
         | Ok (r1, w1), Ok (r2, w2) ->
             let child =
               User.Usys.fork (fun () ->
                   let live = ref true in
                   while !live do
                     match User.Usys.read r1 msg_bytes with
                     | Ok b when Bytes.length b > 0 ->
                         ignore (User.Usys.write w2 b)
                     | Ok _ | Error _ -> live := false
                   done;
                   0)
             in
             let roundtrip () =
               ignore (User.Usys.write w1 msg);
               if rc.ic_poll then
                 ignore (User.Usys.poll [ r2 ] ~timeout_ms:(-1));
               let got = ref 0 in
               while !got < msg_bytes do
                 match User.Usys.read r2 (msg_bytes - !got) with
                 | Ok b when Bytes.length b > 0 -> got := !got + Bytes.length b
                 | Ok _ | Error _ -> got := msg_bytes
               done
             in
             for _ = 1 to warmup_roundtrips do
               roundtrip ()
             done;
             let t_start = Core.Kernel.now kernel in
             for _ = 1 to measured_roundtrips do
               let t0 = Core.Kernel.now kernel in
               roundtrip ();
               Core.Kperf.Hist.record hist
                 (Int64.sub (Core.Kernel.now kernel) t0)
             done;
             total_ns := Int64.sub (Core.Kernel.now kernel) t_start;
             ignore (User.Usys.kill child);
             ignore (User.Usys.wait ());
             0
         | _ -> 1)
   with
  | Ok _ -> ()
  | Error e -> invalid_arg ("ipcbench: " ^ e));
  let ipc = kernel.Core.Kernel.vfs.Core.Vfs.ipc in
  {
    pp_p50_us = Core.Kperf.Hist.percentile_us hist 0.50;
    pp_p99_us = Core.Kperf.Hist.percentile_us hist 0.99;
    pp_per_s =
      float_of_int measured_roundtrips /. Sim.Engine.to_sec !total_ns;
    pp_wakeups_issued = ipc.Core.Pipe.wakeups_issued.Core.Kperf.n;
    pp_wakeups_suppressed = ipc.Core.Pipe.wakeups_suppressed.Core.Kperf.n;
  }

(* ---- workload B: keyboard -> app event stream ---- *)

let inject_period_ns = 10_000L (* one event every 10 us: 100k events/s *)
let events_warmup_ns = Sim.Engine.ms 200
let events_measure_ns = Sim.Engine.sec 1

type events = { ev_per_s : float; ev_delivered : int; ev_dropped : int }

let run_events rc =
  let kernel = Micro.fresh_kernel ~config:rc.ic_config () in
  let gpio = kernel.Core.Kernel.board.Hw.Board.gpio in
  let engine = kernel.Core.Kernel.board.Hw.Board.engine in
  (* the event source: alternate press/release of one button forever *)
  let stop = ref false in
  let rec inject down () =
    if not !stop then begin
      (if down then Hw.Gpio.press gpio Hw.Gpio.A
       else Hw.Gpio.release gpio Hw.Gpio.A);
      ignore (Sim.Engine.schedule_after engine inject_period_ns (inject (not down)))
    end
  in
  ignore (Sim.Engine.schedule_after engine inject_period_ns (inject true));
  let consumed = ref 0 in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"ipc-events" (fun () ->
         let fd =
           User.Usys.open_ "/dev/events"
             (Core.Abi.o_rdonly lor Core.Abi.o_nonblock)
         in
         if fd < 0 then -fd
         else begin
           while true do
             if rc.ic_poll then begin
               (* poll: sleep until events are pending, then drain *)
               ignore (User.Usys.poll [ fd ] ~timeout_ms:(-1));
               match User.Usys.read fd 64 with
               | Ok b -> consumed := !consumed + (Bytes.length b / 8)
               | Error _ -> ()
             end
             else begin
               (* the pre-poll idiom: spin O_NONBLOCK, sleep on EAGAIN *)
               match User.Usys.read fd 64 with
               | Ok b -> consumed := !consumed + (Bytes.length b / 8)
               | Error _ -> ignore (User.Usys.sleep 1)
             end
           done;
           0
         end));
  Core.Kernel.run_for kernel events_warmup_ns;
  let c0 = !consumed in
  let d0 = Core.Kbd.dropped kernel.Core.Kernel.kbd in
  let t0 = Core.Kernel.now kernel in
  Core.Kernel.run_for kernel events_measure_ns;
  stop := true;
  let delivered = !consumed - c0 in
  let dropped = Core.Kbd.dropped kernel.Core.Kernel.kbd - d0 in
  let secs = Sim.Engine.to_sec (Int64.sub (Core.Kernel.now kernel) t0) in
  {
    ev_per_s = float_of_int delivered /. secs;
    ev_delivered = delivered;
    ev_dropped = dropped;
  }

(* ---- per-configuration run ---- *)

type row = { r_config : config_row; r_pp : pingpong; r_ev : events }

let run () =
  List.map
    (fun rc -> { r_config = rc; r_pp = run_pingpong rc; r_ev = run_events rc })
    ladder

(* ---- reporting ---- *)

let find rows name =
  List.find (fun r -> String.equal r.r_config.ic_name name) rows

let roundtrip_improvement rows =
  (find rows "xv6").r_pp.pp_p50_us /. (find rows "+poll").r_pp.pp_p50_us

let events_improvement rows =
  (find rows "+poll").r_ev.ev_per_s /. (find rows "xv6").r_ev.ev_per_s

let render rows =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "  %-12s %8s %8s %9s %9s %8s %8s %9s %8s\n" "config"
       "rt p50" "rt p99" "rtrips/s" "wake iss" "wake sup" "events/s"
       "delivered" "dropped");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-12s %8.1f %8.1f %9.0f %9d %8d %8.0f %9d %8d\n"
           r.r_config.ic_name r.r_pp.pp_p50_us r.r_pp.pp_p99_us
           r.r_pp.pp_per_s r.r_pp.pp_wakeups_issued
           r.r_pp.pp_wakeups_suppressed r.r_ev.ev_per_s r.r_ev.ev_delivered
           r.r_ev.ev_dropped))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "  pipe round-trip p50, xv6 vs full fast path: %.2fx lower; \
        keyboard events/s: %.2fx higher\n"
       (roundtrip_improvement rows) (events_improvement rows));
  Buffer.contents b

let report rows =
  let config r =
    let rc = r.r_config and pp = r.r_pp and ev = r.r_ev in
    let c = rc.ic_config in
    Report.(
      Obj
        [
          ("name", String rc.ic_name);
          ("pipe_ring", Bool c.Core.Kconfig.pipe_ring);
          ("pipe_wake_edge", Bool c.Core.Kconfig.pipe_wake_edge);
          ("uses_poll", Bool rc.ic_poll);
          ("pipe_buffer_bytes", Int c.Core.Kconfig.pipe_buffer_bytes);
          ("roundtrip_p50_us", Fixed (2, pp.pp_p50_us));
          ("roundtrip_p99_us", Fixed (2, pp.pp_p99_us));
          ("roundtrips_per_s", Fixed (1, pp.pp_per_s));
          ("wakeups_issued", Int pp.pp_wakeups_issued);
          ("wakeups_suppressed", Int pp.pp_wakeups_suppressed);
          ("events_per_s", Fixed (1, ev.ev_per_s));
          ("events_delivered", Int ev.ev_delivered);
          ("events_dropped", Int ev.ev_dropped);
        ])
  in
  Report.
    ( [
        ("benchmark", String "ipcbench"); ("message_bytes", Int msg_bytes);
        ("measured_roundtrips", Int measured_roundtrips);
        ("event_period_us", Fixed (1, Int64.to_float inject_period_ns /. 1e3));
        ("event_measure_s", Fixed (1, Sim.Engine.to_sec events_measure_ns));
        ("configs", List (List.map config rows));
        ("roundtrip_p50_improvement", Fixed (3, roundtrip_improvement rows));
        ("events_per_s_improvement", Fixed (3, events_improvement rows));
      ],
      [] )
