(** Figure 12: device power and battery life.

    The USB power meter becomes the {!Hw.Power} model: measured core
    utilization and IO activity from a run feed the per-component draw
    (Pi3 board vs Game HAT), and battery life is one 18650's energy over
    the average power — the same quantities the figure reports. *)

type sample = {
  scenario : string;
  board_w : float;
  hat_w : float;
  total_w : float;
  battery_h : float;
}

let profile = Hw.Power.pi3_game_hat

(* Each scenario measures this long, after a 2 s settle. *)
let measure_ns = Sim.Engine.sec 5

let measure ~name ~setup =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  setup stage;
  Proto.Stage.run_for stage (Sim.Engine.sec 2) (* settle *);
  let cores = kernel.Core.Kernel.board.Hw.Board.platform.Hw.Board.num_cores in
  let busy0 =
    Array.init cores (fun c -> Core.Sched.core_busy_ns kernel.Core.Kernel.sched c)
  in
  let io0 =
    Array.init cores (fun c -> Core.Sched.core_io_ns kernel.Core.Kernel.sched c)
  in
  let from_ns = Core.Kernel.now kernel in
  Proto.Stage.run_for stage measure_ns;
  let window = Int64.to_float (Int64.sub (Core.Kernel.now kernel) from_ns) in
  let busy_cores = ref 0.0 and io_frac = ref 0.0 in
  for c = 0 to cores - 1 do
    busy_cores :=
      !busy_cores
      +. Int64.to_float
           (Int64.sub (Core.Sched.core_busy_ns kernel.Core.Kernel.sched c) busy0.(c))
         /. window;
    io_frac :=
      !io_frac
      +. Int64.to_float
           (Int64.sub (Core.Sched.core_io_ns kernel.Core.Kernel.sched c) io0.(c))
         /. window
  done;
  let board_w =
    Hw.Power.board_power profile ~busy_cores:!busy_cores ~io_fraction:!io_frac
  in
  let total_w =
    Hw.Power.total_power profile ~busy_cores:!busy_cores ~io_fraction:!io_frac
  in
  {
    scenario = name;
    board_w;
    hat_w = total_w -. board_w;
    total_w;
    battery_h = Hw.Power.battery_hours profile ~watts:total_w;
  }

let run () =
  [
    measure ~name:"shell idle" ~setup:(fun stage ->
        ignore (Proto.Stage.start stage "sh" [ "sh" ]));
    measure ~name:"mario-sdl" ~setup:(fun stage ->
        ignore (Proto.Stage.start stage "mario" [ "mario"; "sdl"; "0" ]));
    measure ~name:"DOOM" ~setup:(fun stage ->
        ignore (Proto.Stage.start stage "doom" [ "doom"; "0" ]));
  ]

let render samples =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "  %-12s %8s %8s %8s %10s\n" "scenario" "board W" "HAT W"
       "total W" "battery h");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %8.2f %8.2f %8.2f %10.2f\n" s.scenario
           s.board_w s.hat_w s.total_w s.battery_h))
    samples;
  Buffer.contents buf
