(** codecbench — what one media frame costs the host, layer by layer.

    The video player (§6.3) decodes a frame ([Mv1.decode_into]),
    converts it straight into the direct-rendering buffer
    ([Yuv.convert_420]) and presents it ([Gfx.present]: a row copy into
    the framebuffer's CPU view, then the cacheflush publish,
    [Framebuffer.flush]). None of that host work is charged in virtual
    time, so perfbench's media [vrate] moves with it; this experiment
    splits it. Every frame of clip480 goes through the three layers in
    the player's order, [passes] times per loop, and each layer's host
    ms per frame is the median of [loops] loops, with their min and max.

    Every figure is a host time, so [BENCH_codec.json] keeps them in its
    [host] half; the [deterministic] half names the workload. *)

let loops = 7
let passes = 5

type layer = { l_name : string; l_median : float; l_min : float; l_max : float }

type result = { r_frames : int; r_layers : layer list }

let run () =
  let v =
    match User.Mv1.unpack (Proto.Assets.clip_480p ()) with
    | Ok v -> v
    | Error e -> failwith e
  in
  let width = v.User.Mv1.width and height = v.User.Mv1.height in
  let d = User.Mv1.decoder ~width ~height ~quality:User.Mv1.quality in
  let frame = d.User.Mv1.frame in
  let fb = Hw.Framebuffer.create ~width ~height in
  let pixels = Array.make (width * height) 0 in
  let frames = passes * Array.length v.User.Mv1.frames in
  (* one loop: host seconds spent in each layer over [frames] frames *)
  let once () =
    let dec = ref 0.0 and conv = ref 0.0 and pres = ref 0.0 in
    for _ = 1 to passes do
      Array.iter
        (fun payload ->
          let (), t = Report.timed (fun () -> User.Mv1.decode_into d payload) in
          dec := !dec +. t;
          let _, t =
            Report.timed (fun () ->
                User.Yuv.convert_420 ~width ~height ~y_plane:frame.User.Mv1.y_plane
                  ~u_plane:frame.User.Mv1.u_plane ~v_plane:frame.User.Mv1.v_plane
                  ~out:pixels ~off:0 ~stride:width ~cols:width ~rows:height
                  ~simd:true)
          in
          conv := !conv +. t;
          (* [Gfx.present]'s direct path without its syscalls *)
          let (), t =
            Report.timed (fun () ->
                for y = 0 to height - 1 do
                  Hw.Framebuffer.write_row fb ~y ~off:(y * width) pixels
                done;
                Hw.Framebuffer.flush fb)
          in
          pres := !pres +. t)
        v.User.Mv1.frames
    done;
    let ms t = !t *. 1e3 /. float_of_int frames in
    [ ms dec; ms conv; ms pres ]
  in
  let runs = List.init loops (fun _ -> once ()) in
  let layer i name =
    let xs = List.sort Float.compare (List.map (fun r -> List.nth r i) runs) in
    {
      l_name = name;
      l_median = List.nth xs (loops / 2);
      l_min = List.hd xs;
      l_max = List.nth xs (loops - 1);
    }
  in
  {
    r_frames = frames;
    r_layers =
      [ layer 0 "decode_into"; layer 1 "convert_420"; layer 2 "present_copy_flush" ];
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "  clip480, %d frames a loop, host ms/frame (median of %d, min-max):\n"
    r.r_frames loops;
  List.iter
    (fun l ->
      Printf.bprintf b "    %-20s %7.3f  (%.3f-%.3f)\n" l.l_name l.l_median l.l_min l.l_max)
    r.r_layers;
  Buffer.contents b

let report r =
  Report.
    ( [
        ("benchmark", String "codecbench");
        ("clip", String "clip480");
        ("frames_per_loop", Int r.r_frames);
        ("loops", Int loops);
      ],
      List.concat_map
        (fun l ->
          [
            (l.l_name ^ "_ms", Fixed (3, l.l_median));
            (l.l_name ^ "_ms_min", Fixed (3, l.l_min));
            (l.l_name ^ "_ms_max", Fixed (3, l.l_max));
          ])
        r.r_layers )
