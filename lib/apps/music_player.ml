(** music player — plays VOGG files while displaying the album cover
    (§3): the decode thread streams samples to /dev/sb in parallel with
    the UI thread, the §4.5 SDL-audio threading pattern. The cover is a
    PNG-lite or BMP loaded from the file system. *)


open User

let draw_cover gfx cover_path title =
  Gfx.fill gfx (Gfx.rgb 18 18 26);
  (match Usys.slurp cover_path with
  | Error _ -> Gfx.text gfx ~x:20 ~y:60 ~color:0x808080 "NO COVER"
  | Ok data -> (
      let image =
        match Pnglite.decode data with
        | Ok img -> Some img
        | Error _ -> (
            match Bmp.decode data with Ok img -> Some img | Error _ -> None)
      in
      match image with
      | None -> Gfx.text gfx ~x:20 ~y:60 ~color:0x808080 "BAD COVER"
      | Some img ->
          Usys.burn
            (Pnglite.decode_cycles ~payload_bytes:(Bytes.length data)
               ~pixels:(img.Pnglite.width * img.Pnglite.height));
          let ox = max 0 ((gfx.Gfx.width - img.Pnglite.width) / 2) in
          let oy = max 0 ((gfx.Gfx.height - 40 - img.Pnglite.height) / 2) in
          let words = Gfx.words_of_ints img.Pnglite.pixels in
          for y = 0 to img.Pnglite.height - 1 do
            Gfx.blit_row gfx ~y:(oy + y) ~src:words ~src_off:(y * img.Pnglite.width) ~x:ox
              ~w:img.Pnglite.width
          done));
  Gfx.text gfx ~x:10 ~y:(gfx.Gfx.height - 30) ~color:0xffffff title

(* argv: music [song.vogg] [cover] [window] *)
let main env argv =
  Usys.in_frame "music_main" (fun () ->
      let song = match argv with _ :: s :: _ -> s | _ -> "/d/music/track1.vogg" in
      let cover =
        match argv with _ :: _ :: c :: _ -> c | _ -> "/d/music/cover1.pngl"
      in
      let windowed = List.exists (String.equal "window") argv in
      match Usys.slurp song with
      | Error e -> e
      | Ok data -> (
          match Adpcm.unpack data with
          | Error _ -> Core.Errno.einval
          | Ok (_rate, nsamples, payload) -> (
              let mode =
                if windowed then
                  Minisdl.Window { w = 240; h = 200; x = 360; y = 240; alpha = 255 }
                else Minisdl.Fullscreen
              in
              match Minisdl.init env mode with
              | Error e -> e
              | Ok sdl ->
                  let gfx = Minisdl.surface sdl in
                  draw_cover gfx cover (Fs.Vpath.basename song);
                  Minisdl.present sdl;
                  (* decoded stream served to the audio thread chunk by
                     chunk; each pull pays decode cycles *)
                  let samples = Adpcm.decode payload ~samples:nsamples in
                  let pos = ref 0 in
                  let callback n =
                    if !pos >= nsamples then [||]
                    else begin
                      let k = min n (nsamples - !pos) in
                      Usys.burn (k * Adpcm.cycles_per_sample);
                      let out = Array.sub samples !pos k in
                      pos := !pos + k;
                      out
                    end
                  in
                  ignore (Minisdl.open_audio sdl callback);
                  (* progress bar while the song plays *)
                  while !pos < nsamples do
                    ignore (Usys.sleep 250);
                    let frac = float_of_int !pos /. float_of_int nsamples in
                    Gfx.fill_rect gfx ~x:10 ~y:(gfx.Gfx.height - 12)
                      ~w:(gfx.Gfx.width - 20) ~h:6 (Gfx.rgb 40 40 48);
                    Gfx.fill_rect gfx ~x:10 ~y:(gfx.Gfx.height - 12)
                      ~w:(int_of_float (frac *. float_of_int (gfx.Gfx.width - 20)))
                      ~h:6 (Gfx.rgb 90 200 255);
                    Minisdl.present sdl
                  done;
                  Minisdl.quit sdl;
                  0)))
