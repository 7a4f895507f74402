(** composebench — what one desktop composite costs the host, layer by
    layer.

    perfbench's desktop runs mario's SDL window, the launcher and
    sysmon's translucent overlay under the WM (§4.5). Each app's client
    buffer is already in the /dev/surface wire format ([Gfx.t.pixels]),
    the surface write stores the frame in the WM surface as it is
    ([Wm.write_frame]), and the WM repaints the rows the dirty windows
    cover into the framebuffer's CPU view and cache-cleans them
    ([Wm.repaint_rows], whose last step is [Framebuffer.flush]). None of
    that host work is charged in virtual time, so desktop [vrate] moves
    with it; this experiment splits it.

    The same three windows are booted and left to run for two virtual
    seconds, so the stacking, positions and alpha are the desktop's.
    One composite then has every window present a frame and the WM
    repaint once. [flush] times a second cache-clean of the same rows
    on its own: it is the part of [repaint_rows] the publish costs.
    [blend_span] times [Wm.blend_span] on its own over the spans the
    translucent windows cover in those rows, into a scratch copy of the
    CPU view: it is the part of [repaint_rows] the alpha blend costs.
    [app_draw] is the apps' side of a composite: one launcher frame,
    its background and its menu, drawn into a client buffer of the
    launcher's geometry ([Launcher.background], [Launcher.menu]), the
    tick advancing by one each composite. Each layer's host ms per
    composite is the median of [loops] loops of [composites]
    composites, with their min and max.

    Every figure is a host time, so [BENCH_compose.json] keeps them in
    its [host] half; the [deterministic] half names the workload. *)

let loops = 7
let composites = 500

type result = { r_windows : int; r_rows : int; r_layers : Report.layer list }

let run () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  ignore (Proto.Stage.start stage "mario" [ "mario"; "sdl"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.ms 500);
  ignore (Proto.Stage.start stage "launcher" [ "launcher"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.ms 500);
  ignore (Proto.Stage.start stage "sysmon" [ "sysmon"; "0" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  let kernel = stage.Proto.Stage.kernel in
  let wm = Option.get kernel.Core.Kernel.wm and fb = Option.get kernel.Core.Kernel.fb in
  let windows = Core.Wm.stacking wm in
  (* each app's client buffer, in wire bytes; pixel values do not
     change the cost of any layer *)
  let rng = Random.State.make [| 42 |] in
  let clients =
    List.map
      (fun s ->
        let npx = s.Core.Wm.width * s.Core.Wm.height in
        let client = Bytes.create (4 * npx) in
        for i = 0 to npx - 1 do
          Bytes.set_int32_le client (4 * i)
            (Int32.of_int (Random.State.bits rng land 0xffffff lor 0xff000000))
        done;
        (s, client))
      windows
  in
  let height = Hw.Framebuffer.height fb in
  let y0 = List.fold_left (fun acc s -> min acc (max 0 s.Core.Wm.sy)) height windows
  and y1 =
    List.fold_left
      (fun acc s -> max acc (min height (s.Core.Wm.sy + s.Core.Wm.height)))
      0 windows
  in
  (* each translucent window's row spans, clipped to the screen as
     [Wm.repaint_rows] clips them: source pixel, screen pixel, length *)
  let width = Hw.Framebuffer.width fb in
  let spans =
    List.concat_map
      (fun (s : Core.Wm.surface) ->
        if s.alpha >= 255 then []
        else
          let c0 = max 0 (-s.sx) and c1 = min s.width (width - s.sx) in
          List.filter_map
            (fun y ->
              let row = y - s.sy in
              if row >= 0 && row < s.height && c1 > c0 then
                Some (s, (row * s.width) + c0, (y * width) + s.sx + c0, c1 - c0)
              else None)
            (List.init (y1 - y0) (fun i -> y0 + i)))
      windows
  in
  let scratch = Bytes.copy (Hw.Framebuffer.cpu_view fb) in
  let launcher =
    let width = Apps.Launcher.width and height = Apps.Launcher.height in
    {
      User.Gfx.mode = User.Gfx.Windowed (-1);
      width;
      height;
      pixels = Bytes.make (4 * width * height) '\000';
      cost_cycles = 0;
    }
  in
  let background = Apps.Launcher.background launcher in
  (* one loop: host seconds spent in each layer over [composites] *)
  let once () =
    let write = ref 0.0 and repaint = ref 0.0 and flush = ref 0.0 and blend = ref 0.0 in
    let draw = ref 0.0 in
    for tick = 1 to composites do
      let (), t =
        Report.timed (fun () ->
            background ~tick;
            Apps.Launcher.menu launcher ~cursor:0)
      in
      draw := !draw +. t;
      List.iter
        (fun (s, wire) ->
          let _, t = Report.timed (fun () -> Core.Wm.write_frame s wire) in
          write := !write +. t)
        clients;
      let _, t = Report.timed (fun () -> Core.Wm.repaint_rows wm ~y0 ~y1) in
      repaint := !repaint +. t;
      let (), t =
        Report.timed (fun () ->
            for y = y0 to y1 - 1 do
              Hw.Framebuffer.wrote_row fb y
            done;
            Hw.Framebuffer.flush fb)
      in
      flush := !flush +. t;
      let (), t =
        Report.timed (fun () ->
            List.iter
              (fun ((s : Core.Wm.surface), src, dst, n) ->
                Core.Wm.blend_span s.pixels src scratch dst n s.alpha)
              spans)
      in
      blend := !blend +. t
    done;
    let ms t = !t *. 1e3 /. float_of_int composites in
    [ ms draw; ms write; ms repaint; ms flush; ms blend ]
  in
  {
    r_windows = List.length windows;
    r_rows = y1 - y0;
    r_layers =
      Report.layers
        [ "app_draw"; "surface_write"; "repaint_rows"; "flush"; "blend_span" ]
        (List.init loops (fun _ -> once ()));
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "  desktop, %d windows, %d rows repainted, %d composites a loop,\n\
    \  host ms/composite (median of %d, min-max; app_draw is one launcher frame;\n\
    \  repaint_rows includes its flush and its blend):\n"
    r.r_windows r.r_rows composites loops;
  Report.add_layers b r.r_layers;
  Buffer.contents b

let report r =
  Report.
    ( [
        ("benchmark", String "composebench");
        ("workload", String "desktop");
        ("windows", Int r.r_windows);
        ("rows", Int r.r_rows);
        ("composites_per_loop", Int composites);
        ("loops", Int loops);
      ],
      layer_fields r.r_layers )
