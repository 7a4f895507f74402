(** GIF-lite — GIF's actual machinery (256-color palette + LZW with
    variable-width codes) in a simplified container, for the slider's
    animated-slide support. Multi-frame files hold a shared palette and
    per-frame LZW-compressed index streams. *)

let magic = "GIFL"

type t = {
  width : int;
  height : int;
  palette : int array;  (** up to 256 RGB entries *)
  frames : int array array;  (** palette indices, width*height each *)
  delay_ms : int;
}

(* Build a palette by uniform quantization (3-3-2 bits), real enough for
   slides and test patterns. *)
let quantize_332 pixels =
  let palette =
    Array.init 256 (fun i ->
        let r = (i lsr 5) land 0x7 and g = (i lsr 2) land 0x7 and b = i land 0x3 in
        (r * 255 / 7 lsl 16) lor (g * 255 / 7 lsl 8) lor (b * 255 / 3))
  in
  let index px =
    let r = (px lsr 16) land 0xff and g = (px lsr 8) land 0xff and b = px land 0xff in
    ((r lsr 5) lsl 5) lor ((g lsr 5) lsl 2) lor (b lsr 6)
  in
  (palette, Array.map index pixels)

let encode t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter
    (fun v -> Buffer.add_int32_le buf (Int32.of_int v))
    [ t.width; t.height; Array.length t.frames; t.delay_ms ];
  Array.iter
    (fun color ->
      Buffer.add_char buf (Char.chr ((color lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((color lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (color land 0xff)))
    t.palette;
  Array.iter
    (fun frame ->
      let indices = Bytes.init (Array.length frame) (fun i -> Char.chr frame.(i)) in
      let compressed = Lzw.encode ~min_code_size:8 indices in
      Buffer.add_int32_le buf (Int32.of_int (Bytes.length compressed));
      Buffer.add_bytes buf compressed)
    t.frames;
  Buffer.to_bytes buf

let decode data =
  if
    Bytes.length data < 20 + 768
    || not (String.equal (Bytes.sub_string data 0 4) magic)
  then Error "giflite: bad magic"
  else begin
    let width = Hw.Le.get_uint32 data 4 and height = Hw.Le.get_uint32 data 8 in
    let nframes = Hw.Le.get_uint32 data 12 and delay_ms = Hw.Le.get_uint32 data 16 in
    if width <= 0 || height <= 0 || nframes <= 0 || nframes > 4096 then
      Error "giflite: bad header"
    else begin
      let palette =
        Array.init 256 (fun i ->
            let off = 20 + (3 * i) in
            (Bytes.get_uint8 data off lsl 16)
            lor (Bytes.get_uint8 data (off + 1) lsl 8)
            lor Bytes.get_uint8 data (off + 2))
      in
      let pos = ref (20 + 768) in
      let read_frame () =
        if !pos + 4 > Bytes.length data then Error "giflite: truncated"
        else begin
          let len = Hw.Le.get_uint32 data !pos in
          pos := !pos + 4;
          if !pos + len > Bytes.length data then Error "giflite: truncated frame"
          else begin
            let compressed = Bytes.sub data !pos len in
            pos := !pos + len;
            match Lzw.decode ~min_code_size:8 compressed with
            | exception Lzw.Corrupt msg -> Error msg
            | indices ->
                if Bytes.length indices <> width * height then
                  Error "giflite: wrong frame size"
                else
                  Ok (Array.init (width * height) (fun i -> Bytes.get_uint8 indices i))
          end
        end
      in
      let rec collect acc k =
        if k = 0 then Ok (List.rev acc)
        else
          match read_frame () with
          | Ok f -> collect (f :: acc) (k - 1)
          | Error e -> Error e
      in
      match collect [] nframes with
      | Error e -> Error e
      | Ok frames ->
          Ok { width; height; palette; frames = Array.of_list frames; delay_ms }
    end
  end

(* Render a frame's indices to RGB. *)
let render t frame_idx out =
  let frame = t.frames.(frame_idx mod Array.length t.frames) in
  Array.iteri (fun i idx -> out.(i) <- t.palette.(idx land 0xff)) frame
