(** Figure 11: latency breakdowns.

    (a) Rendering: for each benchmark app, per-frame time split into
    kernel (measured from the trace: syscall enter→exit spans between
    frame presentations) and user time, with the user share divided into
    app logic vs library per the app's profile — matching the paper's
    K/U/L legend.

    (b) Input: a USB key press is injected while the app runs capped at
    60 FPS; the trace gives the driver timestamp (kbd_report), the
    delivery to the app (event_delivered) and the next frame presented
    after delivery. driver→delivery covers the kernel path plus the OS
    indirection (pipe for mario-proc, WM routing for mario-sdl);
    delivery→frame is the app's polling interval. *)

type render_breakdown = {
  rb_app : string;
  frame_ms : float;
  kernel_ms : float;
  app_ms : float;
  lib_ms : float;
}

type input_breakdown = {
  ib_app : string;
  total_ms : float;
  deliver_ms : float;
      (** driver -> first app-side read: kernel queues plus, for polling
          readers, the poll wait; near-zero for mario-proc's blocked
          reader process *)
  respond_ms : float;
      (** read -> next frame presented: any pipe/WM indirection plus the
          frame render *)
}

(* lib share of user time per app (decode/conversion/minisdl vs game
   logic), from the apps' own cost structure *)
let lib_share = function
  | "DOOM" -> 0.18
  | "video (480p)" | "video (720p)" -> 0.45
  | "mario-noinput" -> 0.10
  | "mario-proc" -> 0.12
  | "mario-sdl" -> 0.30
  | _ -> 0.2

let events_of kernel = Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace

(* Sum syscall-span time for [pid] between [from_ns] and [until_ns]. *)
let kernel_time_ns kernel ~pid ~from_ns ~until_ns =
  let total = ref 0L in
  let entered = ref None in
  List.iter
    (fun e ->
      if
        Int64.compare e.Core.Ktrace.ts_ns from_ns >= 0
        && Int64.compare e.Core.Ktrace.ts_ns until_ns <= 0
      then begin
        match Evsel.kind e.Core.Ktrace.ev with
        | Evsel.Sys_in p when p = pid -> entered := Some e.Core.Ktrace.ts_ns
        | Evsel.Sys_out p when p = pid -> (
            match !entered with
            | Some t0 ->
                total := Int64.add !total (Int64.sub e.Core.Ktrace.ts_ns t0);
                entered := None
            | None -> ())
        | _ -> ()
      end)
    (events_of kernel);
  !total

let render_breakdown_for case =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  let task =
    Proto.Stage.start stage case.Appbench.prog case.Appbench.argv
  in
  let pid = task.Core.Task.pid in
  Proto.Stage.run_for stage
    (Sim.Engine.ms (int_of_float (case.Appbench.warmup_s *. 1000.)));
  let from_ns = Core.Kernel.now kernel in
  Proto.Stage.run_for stage (Sim.Engine.sec 4);
  let until_ns = Core.Kernel.now kernel in
  let fps = Measure.fps_between kernel ~pid ~from_ns ~until_ns in
  let frame_ms = if fps > 0.0 then 1000.0 /. fps else 0.0 in
  let kernel_total = kernel_time_ns kernel ~pid ~from_ns ~until_ns in
  let frames = fps *. Sim.Engine.to_sec (Int64.sub until_ns from_ns) in
  let kernel_ms =
    if frames > 0.0 then Sim.Engine.to_ms kernel_total /. frames else 0.0
  in
  let user_ms = Float.max 0.0 (frame_ms -. kernel_ms) in
  let lshare = lib_share case.Appbench.case_name in
  {
    rb_app = case.Appbench.case_name;
    frame_ms;
    kernel_ms;
    app_ms = user_ms *. (1.0 -. lshare);
    lib_ms = user_ms *. lshare;
  }

let render_all () = List.map render_breakdown_for Appbench.cases

(* ---- input latency ---- *)

let input_case ~prog ~argv ~name =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  let board = kernel.Core.Kernel.board in
  ignore (Proto.Stage.start stage prog argv);
  Proto.Stage.run_for stage (Sim.Engine.sec 5) (* past app asset loading *);
  (* inject 25 key taps, 120 ms apart *)
  let presses = 25 in
  for _ = 1 to presses do
    Hw.Usb.key_down board.Hw.Board.usb 0x4f (* right arrow *);
    Proto.Stage.run_for stage (Sim.Engine.ms 60);
    Hw.Usb.key_up board.Hw.Board.usb 0x4f;
    Proto.Stage.run_for stage (Sim.Engine.ms 60)
  done;
  let deliver, respond = Evsel.keypresses (events_of kernel) in
  let deliver = Evsel.mean deliver and respond = Evsel.mean respond in
  {
    ib_app = name;
    total_ms = deliver +. respond;
    deliver_ms = deliver;
    respond_ms = respond;
  }

let input_all () =
  [
    input_case ~prog:"doom" ~argv:[ "doom"; "0"; "60" ] ~name:"DOOM";
    input_case ~prog:"mario" ~argv:[ "mario"; "proc"; "0"; "16" ] ~name:"mario-proc";
    input_case ~prog:"mario" ~argv:[ "mario"; "sdl"; "0"; "16" ] ~name:"mario-sdl";
  ]

let render (renders, inputs) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "(a) rendering latency per frame (ms):\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %8s %8s %8s %8s\n" "app" "total" "K" "U" "L");
  List.iter
    (fun rb ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.2f %8.2f %8.2f %8.2f\n" rb.rb_app
           rb.frame_ms rb.kernel_ms rb.app_ms rb.lib_ms))
    renders;
  Buffer.add_string buf "(b) input latency, 60 FPS cap (ms):\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %8s %10s %10s\n" "app" "total" "deliver"
       "respond");
  List.iter
    (fun ib ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %8.2f %10.2f %10.2f\n" ib.ib_app ib.total_ms
           ib.deliver_ms ib.respond_ms))
    inputs;
  Buffer.contents buf
