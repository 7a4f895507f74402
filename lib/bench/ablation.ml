(** Ablations of the design choices DESIGN.md calls out — each runs the
    same workload with one mechanism toggled, so the effect flows through
    the mechanism rather than a constant:

    - §5.2 SIMD pixel paths: video playback with and without the NEON
      YUV/IDCT kernels (the paper's "nearly 3x, under 10 FPS to ~30").
    - §4.3 framebuffer mapping: mario with the framebuffer mapped cached
      (flush required) vs uncached ("significant FPS drop").
    - §4.5 WM dirty tracking: pixels composited for a mostly-static
      desktop with and without dirty-region skipping.
    - §5.2 range IO: covered in Figure 8 (bypass vs cached); reprinted
      here for a complete ablation table. *)

type row = {
  ab_name : string;
  with_mech : float;
  without : float;
  paper_claim : string;
}

(* video 480p FPS, SIMD on/off *)
let simd_video () =
  let measure simd =
    let stage =
      Proto.Stage.boot ~prototype:5
        ~config_tweak:(fun c -> { c with Core.Kconfig.simd_pixel_ops = simd })
        ()
    in
    Measure.app_fps stage ~prog:"video"
      ~argv:[ "video"; "/d/videos/clip480.mv1"; "0" ]
      ~warmup_s:2.0 ~measure_s:5.0
  in
  {
    ab_name = "SIMD pixel kernels (video 480p)";
    with_mech = measure true;
    without = measure false;
    paper_claim = "~3x: <10 FPS -> ~30 FPS (par 5.2)";
  }

(* mario-noinput FPS, fb cached vs uncached *)
let fb_mapping () =
  let measure mapping =
    let stage = Proto.Stage.boot ~prototype:5 () in
    let fb = Option.get stage.Proto.Stage.kernel.Core.Kernel.fb in
    Hw.Framebuffer.set_mapping fb mapping;
    Measure.app_fps stage ~prog:"mario"
      ~argv:[ "mario"; "noinput"; "0" ]
      ~warmup_s:1.0 ~measure_s:4.0
  in
  {
    ab_name = "framebuffer mapped cached (mario)";
    with_mech = measure Hw.Framebuffer.Cached;
    without = measure Hw.Framebuffer.Uncached;
    paper_claim = "uncached mapping = significant FPS drop (par 4.3)";
  }

(* WM compositing work (Mpx composited/s) for a mostly-static desktop,
   dirty tracking on/off *)
let wm_dirty () =
  let measure track_dirty =
    let stage = Proto.Stage.boot ~prototype:5 ~track_dirty () in
    let kernel = stage.Proto.Stage.kernel in
    (* a static launcher-style window plus sysmon redrawing at 1 Hz *)
    ignore (Proto.Stage.start stage "sysmon" [ "sysmon"; "0" ]);
    ignore
      (Core.Kernel.spawn_user kernel ~name:"static" (fun () ->
           match User.Gfx.windowed ~width:300 ~height:200 ~x:100 ~y:100 () with
           | Error e -> e
           | Ok gfx ->
               User.Gfx.fill gfx 0x224466;
               User.Gfx.present gfx;
               ignore (User.Usys.sleep 1_000_000);
               0));
    Proto.Stage.run_for stage (Sim.Engine.sec 1);
    let wm = Option.get kernel.Core.Kernel.wm in
    let px0 = Core.Wm.pixels_composited wm in
    Proto.Stage.run_for stage (Sim.Engine.sec 5);
    float_of_int (Core.Wm.pixels_composited wm - px0) /. 5.0 /. 1e6
  in
  {
    ab_name = "WM dirty-region tracking (static desktop)";
    with_mech = measure true;
    without = measure false;
    paper_claim = "WM redraws only dirty regions (par 4.5)";
  }

(* FAT32 range bypass read KB/s, as in Figure 8, for the complete ablation
   table *)
let range_io () =
  let measure bypass =
    let kernel =
      Micro.fresh_kernel
        ~config:{ Core.Kconfig.full with Core.Kconfig.range_io_bypass = bypass }
        ()
    in
    Micro.prepare_file kernel ~path:"/d/abl.bin" ~bytes:(512 * 1024);
    Micro.fs_throughput_kbps kernel ~path:"/d/abl.bin" ~bytes:(512 * 1024)
      ~chunk:(128 * 1024) ~direction:`Read
  in
  {
    ab_name = "FAT32 range-IO cache bypass";
    with_mech = measure true;
    without = measure false;
    paper_claim = "2-3x lower large-file latency (par 5.2)";
  }

(* multicore work stealing: 8 marios on 4 cores with and without steal is
   covered by Figure 10's 1-core column; here the per-core-queue design
   itself: multicore off = the P4 single-runqueue configuration *)
let multicore () =
  let measure on =
    let stage =
      Proto.Stage.boot ~prototype:5
        ~config_tweak:(fun c -> { c with Core.Kconfig.multicore = on })
        ()
    in
    let kernel = stage.Proto.Stage.kernel in
    let pids =
      List.init 4 (fun _ ->
          (Proto.Stage.start stage "mario" [ "mario"; "noinput"; "0" ])
            .Core.Task.pid)
    in
    Proto.Stage.run_for stage (Sim.Engine.sec 2);
    let from_ns = Core.Kernel.now kernel in
    let f0 =
      List.map (fun pid -> Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid) pids
    in
    Proto.Stage.run_for stage (Sim.Engine.sec 4);
    let until_ns = Core.Kernel.now kernel in
    List.fold_left2
      (fun acc pid frames0 ->
        acc
        +. Measure.fps_by_counter kernel ~pid ~frames0 ~from_ns ~until_ns)
      0.0 pids f0
  in
  {
    ab_name = "multicore scheduling (4 marios, total FPS)";
    with_mech = measure true;
    without = measure false;
    paper_claim = "4+ instances saturate one core (par 4.5)";
  }

let run () = [ simd_video (); fb_mapping (); wm_dirty (); range_io (); multicore () ]

let render rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  %-42s %10s %10s %8s  %s\n" "mechanism" "with"
       "without" "ratio" "paper");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-42s %10.2f %10.2f %7.2fx  %s\n" r.ab_name
           r.with_mech r.without
           (r.with_mech /. Float.max 0.001 r.without)
           r.paper_claim))
    rows;
  Buffer.contents buf
