(** slider — the slide-deck player (§3): walks a directory of BMP /
    PNG-lite / GIF-lite images (the paper's BMP/PNG/GIF), advancing on a
    timer or key press. Intended for presenting the OS design from the OS
    itself, Figure 1(f). *)


open User

let load_image data =
  match Pnglite.decode data with
  | Ok img -> Some (`Still img)
  | Error _ -> (
      match Bmp.decode data with
      | Ok img -> Some (`Still img)
      | Error _ -> (
          match Giflite.decode data with
          | Ok gif -> Some (`Anim gif)
          | Error _ -> None))

(* An image of [width * height] [pixels]-format words, centred on a
   black screen a row at a time; [blit_row] clips what does not fit. *)
let draw_still gfx ~width ~height words =
  Gfx.fill gfx 0x000000;
  let ox = max 0 ((gfx.Gfx.width - width) / 2) in
  let oy = max 0 ((gfx.Gfx.height - height) / 2) in
  for y = 0 to height - 1 do
    Gfx.blit_row gfx ~y:(oy + y) ~src:words ~src_off:(y * width) ~x:ox ~w:width
  done

let list_dir path =
  let fd = Usys.open_ path Core.Abi.o_rdonly in
  if fd < 0 then []
  else begin
    let buf = Buffer.create 256 in
    let rec drain () =
      match Usys.read fd 4096 with
      | Ok b when Bytes.length b > 0 ->
          Buffer.add_bytes buf b;
          drain ()
      | Ok _ | Error _ -> ()
    in
    drain ();
    ignore (Usys.close fd);
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun s -> String.length s > 0)
    |> List.sort compare
  end

(* argv: slider [dir] [dwell_ms] [loops] *)
let main env argv =
  Usys.in_frame "slider_main" (fun () ->
      let dir = match argv with _ :: d :: _ -> d | _ -> "/d/slides" in
      let dwell = match argv with _ :: _ :: t :: _ -> int_of_string t | _ -> 2000 in
      let loops = match argv with _ :: _ :: _ :: l :: _ -> int_of_string l | _ -> 1 in
      let slides = list_dir dir in
      if slides = [] then begin
        Usys.printf "slider: no slides in %s\n" dir;
        1
      end
      else begin
        match Gfx.direct env with
        | Error e -> e
        | Ok gfx ->
            let ev_fd =
              Usys.open_ "/dev/events" (Core.Abi.o_rdonly lor Core.Abi.o_nonblock)
            in
            let show name =
              let path = dir ^ "/" ^ name in
              match Usys.slurp path with
              | Error _ -> ()
              | Ok data -> (
                  Usys.burn (Bytes.length data * 2) (* parse/copy *);
                  match load_image data with
                  | None -> Usys.printf "slider: cannot decode %s\n" name
                  | Some (`Still img) ->
                      Usys.burn
                        (Pnglite.decode_cycles
                           ~payload_bytes:(Bytes.length data)
                           ~pixels:(img.Bmp.width * img.Bmp.height));
                      draw_still gfx ~width:img.Bmp.width ~height:img.Bmp.height
                        (Gfx.words_of_ints img.Bmp.pixels);
                      Gfx.present gfx;
                      (* dwell, cut short by any key *)
                      let waited = ref 0 in
                      let skip = ref false in
                      while (not !skip) && !waited < dwell do
                        ignore (Usys.sleep 50);
                        waited := !waited + 50;
                        if ev_fd >= 0 && Uevents.read_events ev_fd <> [] then
                          skip := true
                      done
                  | Some (`Anim gif) ->
                      let out = Array.make (gif.Giflite.width * gif.Giflite.height) 0 in
                      let nframes = Array.length gif.Giflite.frames in
                      let shown = ref 0 in
                      let budget = max 1 (dwell / max 1 gif.Giflite.delay_ms) in
                      while !shown < budget do
                        Giflite.render gif !shown out;
                        Usys.burn
                          (gif.Giflite.width * gif.Giflite.height
                          * Lzw.cycles_per_byte);
                        draw_still gfx ~width:gif.Giflite.width ~height:gif.Giflite.height
                          (Gfx.words_of_ints out);
                        Gfx.present gfx;
                        ignore (Usys.sleep gif.Giflite.delay_ms);
                        incr shown;
                        ignore nframes
                      done)
            in
            for _ = 1 to max 1 loops do
              List.iter show slides
            done;
            if ev_fd >= 0 then ignore (Usys.close ev_fd);
            0
      end)
