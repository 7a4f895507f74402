(** Figure 10: multicore scalability.

    Two workloads, as in the paper: multiprogrammed (eight simultaneous
    mario instances; FPS per instance) and multithreaded (the blockchain
    miner; aggregate hash throughput). Core count varies 1–4 by switching
    the multicore feature and capping active cores via a platform tweak.
    The figure's claim — proportional growth, all cores >95% busy — is
    checked from the scheduler's own busy accounting. *)

type point = {
  cores : int;
  per_instance : float;  (** FPS per mario instance / kH/s per run *)
  utilization : float;  (** mean busy fraction over active cores *)
}

(* Each point measures this long, after its warm-up. *)
let measure_ns = Sim.Engine.sec 4
let instances = 8

let platform_with_cores cores =
  { Hw.Board.pi3 with Hw.Board.num_cores = cores }

let boot_with_cores cores =
  let config_tweak c = { c with Core.Kconfig.multicore = cores > 1 } in
  Proto.Stage.boot
    ~platform:(platform_with_cores cores)
    ~config_tweak ~prototype:5 ()

let utilization kernel ~cores ~from_ns ~busy0 ~until_ns =
  let total = ref 0.0 in
  for c = 0 to cores - 1 do
    let busy =
      Int64.sub (Core.Sched.core_busy_ns kernel.Core.Kernel.sched c) busy0.(c)
    in
    total :=
      !total
      +. Int64.to_float busy /. Int64.to_float (Int64.sub until_ns from_ns)
  done;
  !total /. float_of_int cores

(* Eight mario instances, per-instance FPS. *)
let mario_multi ~cores =
  let stage = boot_with_cores cores in
  let kernel = stage.Proto.Stage.kernel in
  let pids =
    List.init instances (fun i ->
        (Proto.Stage.start stage "mario"
           [ "mario"; (if i mod 2 = 0 then "noinput" else "sdl"); "0" ])
          .Core.Task.pid)
  in
  Proto.Stage.run_for stage (Sim.Engine.sec 2) (* warm-up *);
  let from_ns = Core.Kernel.now kernel in
  let frames0 =
    List.map (fun pid -> Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid) pids
  in
  let busy0 =
    Array.init cores (fun c -> Core.Sched.core_busy_ns kernel.Core.Kernel.sched c)
  in
  Proto.Stage.run_for stage measure_ns;
  let until_ns = Core.Kernel.now kernel in
  let fps_sum =
    List.fold_left2
      (fun acc pid f0 ->
        acc
        +. Measure.fps_by_counter kernel ~pid ~frames0:f0 ~from_ns ~until_ns)
      0.0 pids frames0
  in
  {
    cores;
    per_instance = fps_sum /. float_of_int instances;
    utilization = utilization kernel ~cores ~from_ns ~busy0 ~until_ns;
  }

(* Blockchain miner: kH/s with [threads] = cores. *)
let blockchain ~cores =
  let stage = boot_with_cores cores in
  let kernel = stage.Proto.Stage.kernel in
  (* difficulty high enough that mining continues through the window *)
  ignore
    (Proto.Stage.start stage "blockchain"
       [ "blockchain"; string_of_int cores; "34"; "1" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  let from_ns = Core.Kernel.now kernel in
  let busy0 =
    Array.init cores (fun c -> Core.Sched.core_busy_ns kernel.Core.Kernel.sched c)
  in
  Proto.Stage.run_for stage measure_ns;
  let until_ns = Core.Kernel.now kernel in
  let busy_total =
    Array.to_list (Array.init cores (fun c ->
        Int64.sub (Core.Sched.core_busy_ns kernel.Core.Kernel.sched c) busy0.(c)))
    |> List.fold_left Int64.add 0L
  in
  (* hash rate ∝ busy cycles / cycles-per-hash (2 sha256 compressions) *)
  let cycles = Int64.to_float busy_total (* 1 GHz: ns = cycles *) in
  let cycles_per_hash = float_of_int (2 * User.Sha256.cycles_per_block) in
  let hashes = cycles /. cycles_per_hash in
  {
    cores;
    per_instance = hashes /. Sim.Engine.to_sec (Int64.sub until_ns from_ns) /. 1000.0;
    utilization = utilization kernel ~cores ~from_ns ~busy0 ~until_ns;
  }

let run () =
  let marios = List.map (fun cores -> mario_multi ~cores) [ 1; 2; 3; 4 ] in
  let miners = List.map (fun cores -> blockchain ~cores) [ 1; 2; 3; 4 ] in
  (marios, miners)

let render (marios, miners) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "8 mario instances (FPS per instance):\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %d cores: %7.2f FPS/instance  (util %.1f%%)\n"
           p.cores p.per_instance (100.0 *. p.utilization)))
    marios;
  Buffer.add_string buf "blockchain miner (kH/s aggregate):\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %d cores: %7.1f kH/s          (util %.1f%%)\n"
           p.cores p.per_instance (100.0 *. p.utilization)))
    miners;
  Buffer.contents buf
