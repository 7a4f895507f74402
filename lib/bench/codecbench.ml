(** codecbench — what one media frame costs the host, layer by layer.

    The video player (§6.3) decodes a frame ([Mv1.decode_into]),
    converts it straight into the direct-rendering buffer
    ([Yuv.convert_420]) and presents it ([Gfx.present]: one blit into
    the framebuffer's CPU view and a [wrote_row] per row, then the
    cacheflush publish, [Framebuffer.flush]). None of that host work is
    charged in virtual time, so perfbench's media [vrate] moves with it;
    this experiment splits it. Every frame of clip480 goes through the
    three layers in the player's order, [passes] times per loop, and
    each layer's host ms per frame is the median of [loops] loops, with
    their min and max.

    Every figure is a host time, so [BENCH_codec.json] keeps them in its
    [host] half; the [deterministic] half names the workload. *)

let loops = 7
let passes = 5

type result = { r_frames : int; r_layers : Report.layer list }

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
  let pixels = Bytes.make (4 * width * height) '\000' in
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
                Bytes.blit pixels 0 (Hw.Framebuffer.cpu_view fb) 0 (Bytes.length pixels);
                for y = 0 to height - 1 do
                  Hw.Framebuffer.wrote_row fb y
                done;
                Hw.Framebuffer.flush fb)
          in
          pres := !pres +. t)
        v.User.Mv1.frames
    done;
    let ms t = !t *. 1e3 /. float_of_int frames in
    [ ms dec; ms conv; ms pres ]
  in
  {
    r_frames = frames;
    r_layers =
      Report.layers
        [ "decode_into"; "convert_420"; "present_copy_flush" ]
        (List.init loops (fun _ -> once ()));
  }

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "  clip480, %d frames a loop, host ms/frame (median of %d, min-max):\n"
    r.r_frames loops;
  Report.add_layers b r.r_layers;
  Buffer.contents b

let report r =
  Report.
    ( [
        ("benchmark", String "codecbench");
        ("clip", String "clip480");
        ("frames_per_loop", Int r.r_frames);
        ("loops", Int loops);
      ],
      layer_fields r.r_layers )
