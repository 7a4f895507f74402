(** The panic button (§5.1).

    A GPIO line is reserved as FIQ — unmaskable, delivered round-robin —
    so that even a deadlocked kernel with IRQs off can be made to dump
    every core's state: the task each core runs, its call stack from the
    unwinder, run-queue depths, pending interrupts, and the tail of the
    trace ring. *)

type t = { sched : Sched.t; mutable dumps : int }

(* The trace tail both dumps print: the last [n] entries of the sorted
   dump, one indented line each, under a header given the count kept
   and the count dumped. Only those [n] entries are built. *)
let add_trace_tail buf trace n header =
  let tail, total = Ktrace.dump_tail trace n in
  Buffer.add_string buf (header (List.length tail) total);
  List.iter
    (fun e -> Buffer.add_string buf ("  " ^ Ktrace.format_entry e ^ "\n"))
    tail

let render t ~fiq_core =
  let sched = t.sched in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "\n=== PANIC BUTTON (FIQ on core %d, t=%.3f ms) ===\n"
       fiq_core
       (Sim.Engine.to_ms (Hw.Board.now sched.Sched.board)));
  Array.iteri
    (fun i core ->
      let who =
        match core.Sched.current with
        | Some task ->
            Printf.sprintf "pid %d (%s)" task.Task.pid task.Task.name
        | None -> "idle (WFI)"
      in
      Buffer.add_string buf
        (Printf.sprintf "core %d: %s, runq=%d, busy=%.2f ms\n" i who
           (Sched.runq_len core)
           (Int64.to_float core.Sched.busy_ns /. 1e6)))
    sched.Sched.cores;
  Buffer.add_string buf (Unwind.dump_all sched);
  add_trace_tail buf sched.Sched.trace 10 (fun _ _ -> "trace tail:\n");
  Buffer.add_string buf "=== END PANIC DUMP ===\n";
  Buffer.contents buf

(* Flight recorder: the always-on black box, armed by {!install} in
   every kernel from Prototype 4 on (a kernel that panics silently
   teaches nothing). Where the panic button above needs an operator
   pressing the GPIO line, this runs on the way down — {!Sched} fires it
   once, where the panic leaves kernel code — so the UART carries the
   last [recorder_events] trace entries, any attached vprobe
   aggregates, and the per-task delay table alongside the panic itself.
   Pure host-side rendering: no charges, no engine events, safe to run
   with the kernel in an arbitrary broken state. *)
let recorder_events = 64

let flight_record sched console msg =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "\n=== FLIGHT RECORDER (t=%.3f ms) ===\npanic: %s\n"
       (Sim.Engine.to_ms (Hw.Board.now sched.Sched.board))
       msg);
  add_trace_tail buf sched.Sched.trace recorder_events
    (Printf.sprintf "trace tail (last %d of %d):\n");
  Buffer.add_string buf "vprobe aggregates:\n";
  Buffer.add_string buf (Vprobe.render sched.Sched.vprobe);
  Buffer.add_string buf "delay accounting:\n";
  Buffer.add_string buf (Sched.render_delays sched);
  Buffer.add_string buf "=== END FLIGHT RECORD ===\n";
  Console.printk console (Buffer.contents buf)

let install sched console =
  let t = { sched; dumps = 0 } in
  sched.Sched.on_panic <-
    Some
      (fun fiq_core ->
        t.dumps <- t.dumps + 1;
        Console.printk console (render t ~fiq_core));
  if Kconfig.files sched.Sched.config then
    sched.Sched.flight_recorder <-
      Some (fun msg -> flight_record sched console msg);
  t

let dumps t = t.dumps
