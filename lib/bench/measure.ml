(** Measurement plumbing shared by every experiment.

    All quantities come out of the simulation: latencies are virtual-time
    deltas around syscall loops, FPS counts Frame_present trace events
    inside a window that excludes warm-up (the paper uses a 20 s warm-up;
    we scale it down with the documented measurement windows), and
    throughput is bytes over virtual seconds. *)

(* Drive the engine until [stop] returns true or the virtual clock passes
   [deadline]. A panic out of an event is flight-recorded on the way out,
   as under [Kernel.run_for]. *)
let drive kernel ~deadline ~stop =
  let engine = kernel.Core.Kernel.board.Hw.Board.engine in
  Core.Sched.recording_panics kernel.Core.Kernel.sched (fun () ->
      let continue_ = ref true in
      while
        !continue_
        && (not (stop ()))
        && Int64.compare (Sim.Engine.now engine) deadline < 0
      do
        if not (Sim.Engine.step engine) then continue_ := false
      done)

(* Run [f] as a user task to completion; returns its result and the
   virtual time it took. If [f] raises, the task still dies of it (trace
   line, flight record), and then the exception reaches the caller with
   its backtrace, so a failed check reads as itself, not as a timeout. *)
let run_task kernel ~name f =
  let result = ref None in
  let t0 = Core.Kernel.now kernel in
  ignore
    (Core.Kernel.spawn_user kernel ~name (fun () ->
         match f () with
         | r ->
             result := Some (Ok r);
             0
         | exception e ->
             let bt = Printexc.get_raw_backtrace () in
             result := Some (Error (e, bt));
             Printexc.raise_with_backtrace e bt));
  drive kernel
    ~deadline:(Int64.add t0 (Sim.Engine.sec 300))
    ~stop:(fun () -> !result <> None);
  match !result with
  | Some (Ok r) -> Ok (r, Int64.sub (Core.Kernel.now kernel) t0)
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
  | None -> Error "measure: task did not complete before the deadline"

(* FPS of [pid]'s frame presentations within [from, until]. *)
let fps_between kernel ~pid ~from_ns ~until_ns =
  let frames =
    List.length
      (List.filter
         (fun e ->
           Evsel.kind e.Core.Ktrace.ev = Evsel.Frame pid
           && Int64.compare e.Core.Ktrace.ts_ns from_ns >= 0
           && Int64.compare e.Core.Ktrace.ts_ns until_ns <= 0)
         (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace))
  in
  float_of_int frames /. Sim.Engine.to_sec (Int64.sub until_ns from_ns)

(* FPS from the scheduler's persistent per-pid frame counters, immune to
   trace-ring wraparound. *)
let fps_by_counter kernel ~pid ~frames0 ~from_ns ~until_ns =
  let frames =
    Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid - frames0
  in
  float_of_int frames /. Sim.Engine.to_sec (Int64.sub until_ns from_ns)

(* Spawn an app from a stage, warm it up, measure FPS over [measure_s]. *)
let app_fps stage ~prog ~argv ~warmup_s ~measure_s =
  let kernel = stage.Proto.Stage.kernel in
  let task = Proto.Stage.start stage prog argv in
  let pid = task.Core.Task.pid in
  Proto.Stage.run_for stage (Sim.Engine.ms (int_of_float (warmup_s *. 1000.))) ;
  let from_ns = Core.Kernel.now kernel in
  let frames0 = Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid in
  Proto.Stage.run_for stage (Sim.Engine.ms (int_of_float (measure_s *. 1000.)));
  let until_ns = Core.Kernel.now kernel in
  fps_by_counter kernel ~pid ~frames0 ~from_ns ~until_ns
