(** video player — MV1 (MPEG-1 stand-in) playback with optional VOGG
    audio, §6.3's configuration: streams are preloaded into memory, frames
    are decoded (IDCT per 8×8 block), converted YUV→RGB (scalar or NEON
    per §5.2) straight into the direct-rendering buffer, and presented.
    Playback targets the video's native framerate; when decode can't keep
    up, FPS sags below native — exactly the paper's 480p-vs-720p
    contrast. *)


open User

(* argv: video [path] [max_frames] [audio_path] *)
let main env argv =
  Usys.in_frame "video_main" (fun () ->
      let path = match argv with _ :: p :: _ -> p | _ -> "/d/videos/clip.mv1" in
      let max_frames =
        match argv with _ :: _ :: f :: _ -> int_of_string f | _ -> 0
      in
      let audio_path = match argv with _ :: _ :: _ :: a :: _ -> Some a | _ -> None in
      (* preload the stream into memory, as the benchmark configuration does *)
      match Usys.slurp path with
      | Error e -> e
      | Ok data -> (
          (* preload arena (the paper preloads the stream before decoding)
             plus YUV+RGB working frames *)
          ignore (Usys.sbrk (20 * 1024 * 1024));
          ignore (Usys.sbrk (Bytes.length data));
          match Mv1.unpack data with
          | Error _ -> Core.Errno.einval
          | Ok video -> (
              match Gfx.direct env with
              | Error e -> e
              | Ok gfx ->
                  let simd = env.Uenv.e_simd in
                  (* audio: decode thread via minisdl-style clone *)
                  let audio_tid =
                    match audio_path with
                    | None -> None
                    | Some apath -> (
                        match Usys.slurp apath with
                        | Error _ -> None
                        | Ok adata -> (
                            match Adpcm.unpack adata with
                            | Error _ -> None
                            | Ok (_rate, nsamples, payload) ->
                                let tid =
                                  Usys.clone (fun () ->
                                      let fd = Usys.open_ "/dev/sb" Core.Abi.o_wronly in
                                      if fd < 0 then 0
                                      else begin
                                        let chunk = 4096 in
                                        let pos = ref 0 in
                                        let buf = Bytes.create (chunk * 2) in
                                        let samples =
                                          Adpcm.decode payload ~samples:nsamples
                                        in
                                        while !pos < nsamples do
                                          let n = min chunk (nsamples - !pos) in
                                          (* decode cost charged per chunk as
                                             a streaming decoder would pay *)
                                          Usys.burn (n * Adpcm.cycles_per_sample);
                                          for i = 0 to n - 1 do
                                            Bytes.set_int16_le buf (2 * i)
                                              samples.(!pos + i)
                                          done;
                                          ignore (Usys.write fd (Bytes.sub buf 0 (2 * n)));
                                          pos := !pos + n
                                        done;
                                        ignore (Usys.close fd);
                                        0
                                      end)
                                in
                                if tid > 0 then Some tid else None))
                  in
                  let frame_ms = 1000 / max 1 video.Mv1.fps in
                  let start_ms = Usys.uptime_ms () in
                  let shown = ref 0 in
                  let status = ref 0 in
                  let vw = video.Mv1.width and vh = video.Mv1.height in
                  let dec = Mv1.decoder ~width:vw ~height:vh ~quality:Mv1.quality in
                  (* the frame's top-left window that fits the screen,
                     centred on it *)
                  let gw = gfx.Gfx.width and gh = gfx.Gfx.height in
                  let ox = max 0 ((gw - vw) / 2) in
                  let oy = max 0 ((gh - vh) / 2) in
                  let cols = min vw (gw - ox) and rows = min vh (gh - oy) in
                  let frame = dec.Mv1.frame in
                  (* loop the clip forever when no frame budget is given
                     (benchmark mode) *)
                  let total = if max_frames > 0 then max_frames else max_int in
                  while !status = 0 && !shown < total do
                    let idx = !shown mod Array.length video.Mv1.frames in
                    match Mv1.decode_into dec video.Mv1.frames.(idx) with
                    | exception Failure _ -> status := Core.Errno.einval
                    | () ->
                        let blocks = Mv1.blocks_per_frame ~width:vw ~height:vh in
                        Usys.burn
                          (Mv1.cycles_per_frame_fixed
                          + (blocks * Mv1.cycles_per_block ~simd));
                        (* convert straight into the screen buffer; the
                           charges still price a whole-frame conversion
                           and a centre blit *)
                        let conv_cycles =
                          Yuv.convert_420 ~width:vw ~height:vh
                            ~y_plane:frame.Mv1.y_plane ~u_plane:frame.Mv1.u_plane
                            ~v_plane:frame.Mv1.v_plane ~out:gfx.Gfx.pixels
                            ~off:((oy * gw) + ox) ~stride:gw ~cols ~rows ~simd
                        in
                        Usys.burn conv_cycles;
                        Gfx.charge gfx (vw * vh / 8);
                        Gfx.present gfx;
                        incr shown;
                        (* pace to the native framerate when we're ahead *)
                        let target_ms = start_ms + (!shown * frame_ms) in
                        let now_ms = Usys.uptime_ms () in
                        if now_ms < target_ms then
                          ignore (Usys.sleep (target_ms - now_ms))
                  done;
                  (match audio_tid with
                  | Some tid ->
                      ignore (Usys.kill tid);
                      ignore (Usys.join tid)
                  | None -> ());
                  !status)))
