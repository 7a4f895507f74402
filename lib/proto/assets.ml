(** Synthetic media assets standing in for the paper's game ROMs, photos,
    OGG tracks, MPEG clips and DOOM WADs (DESIGN.md's substitution rule:
    the content is generated, the formats and the decode work are real).

    Every process that stages prototype 4 or 5 generates them, once:
    generation is memoized, and every benchmark boots its own kernel.
    Encoding the two MV1 clips is the larger part of that cost, so the
    generators and encoders run at codec speed (no per-pixel closures,
    per-row and per-column terms computed once). The bytes are workload
    inputs: the FAT image, SD reads, traces and perfbench goldens follow
    from them, and test_proto pins each staged file by MD5. *)

let memo f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
        let v = f () in
        cache := Some v;
        v

(* ---- images ---- *)

let test_card ~width ~height ~seed =
  let pixels = Array.make (width * height) 0 in
  let red = Array.init width (fun x -> (x * 255 / width) lxor (seed * 37) land 0xff) in
  for y = 0 to height - 1 do
    let g = (y * 255 / height + seed * 11) land 0xff in
    let off = y * width in
    for x = 0 to width - 1 do
      let b = ((x + y) * 127 / (width + height) * 2) land 0xff in
      pixels.(off + x) <- (red.(x) lsl 16) lor (g lsl 8) lor b
    done
  done;
  { User.Bmp.width; height; pixels }

let slide_bmp = memo (fun () -> User.Bmp.encode (test_card ~width:320 ~height:240 ~seed:1))

let slide_pngl =
  memo (fun () -> User.Pnglite.encode (test_card ~width:320 ~height:240 ~seed:2))

(* A high-res PNG for Prototype 5's "slider with high res PNGs" note. *)
let slide_pngl_hires =
  memo (fun () -> User.Pnglite.encode (test_card ~width:640 ~height:480 ~seed:5))

let slide_gifl =
  memo (fun () ->
      let width = 160 and height = 120 in
      let frames =
        Array.init 6 (fun fr ->
            let img = test_card ~width ~height ~seed:(10 + fr) in
            let _, indices = User.Giflite.quantize_332 img.User.Bmp.pixels in
            indices)
      in
      let palette, _ = User.Giflite.quantize_332 (test_card ~width ~height ~seed:10).User.Bmp.pixels in
      User.Giflite.encode
        { User.Giflite.width; height; palette; frames; delay_ms = 120 })

let cover_pngl =
  memo (fun () -> User.Pnglite.encode (test_card ~width:200 ~height:200 ~seed:3))

(* ---- audio ---- *)

let melody ~seconds ~rate =
  let notes = [| 262; 330; 392; 523; 392; 330 |] in
  let samples = Array.make (seconds * rate) 0 in
  for i = 0 to Array.length samples - 1 do
    let note = notes.(i / (rate / 2) mod Array.length notes) in
    let phase = float_of_int i *. float_of_int note *. 2.0 *. Float.pi /. float_of_int rate in
    samples.(i) <- int_of_float (10000.0 *. sin phase)
  done;
  samples

let track_vogg =
  memo (fun () -> User.Adpcm.pack ~rate:44100 (melody ~seconds:8 ~rate:44100))

let clip_audio_vogg =
  memo (fun () -> User.Adpcm.pack ~rate:44100 (melody ~seconds:4 ~rate:44100))

(* ---- video ---- *)

let video_frame ~width ~height ~t =
  let y_plane = Bytes.create (width * height) in
  let u_plane = Bytes.create (width / 2 * (height / 2)) in
  let v_plane = Bytes.create (width / 2 * (height / 2)) in
  (* a moving luminance gradient plus a bouncing bright square; the
     gradient is a column term plus a row term, each computed once, and
     every sample is written *)
  let bx = (t * 37) mod (width - 64) and by = (t * 23) mod (height - 64) in
  let column = Array.init width (fun x -> 40 + ((x + (t * 8)) * 120 / width)) in
  for y = 0 to height - 1 do
    let row = y * 40 / height and off = y * width in
    for x = 0 to width - 1 do
      let base = column.(x) + row in
      Bytes.set y_plane (off + x) (Char.unsafe_chr (if base < 235 then base else 235))
    done;
    if y >= by && y < by + 64 then Bytes.fill y_plane (off + bx) 64 '\230'
  done;
  (* u varies along a row only, v down a column only *)
  let cw = width / 2 and ch = height / 2 in
  let u_row = Bytes.init cw (fun cx -> Char.chr (100 + ((cx + t) * 56 / cw))) in
  for cy = 0 to ch - 1 do
    Bytes.blit u_row 0 u_plane (cy * cw) cw;
    Bytes.fill v_plane (cy * cw) cw (Char.chr (160 - (cy * 48 / ch)))
  done;
  { User.Mv1.y_plane; u_plane; v_plane }

let make_clip ~width ~height ~nframes =
  let frames =
    Array.init nframes (fun t ->
        User.Mv1.encode_frame ~width ~height ~quality:User.Mv1.quality
          (video_frame ~width ~height ~t))
  in
  User.Mv1.pack { User.Mv1.width; height; fps = 30; frames }

let clip_480p = memo (fun () -> make_clip ~width:640 ~height:480 ~nframes:6)
let clip_720p = memo (fun () -> make_clip ~width:1280 ~height:720 ~nframes:4)

(* ---- the DOOM "WAD": multi-MB of assets whose load exercises FAT32
   range IO, §4.5/§5.2 ---- *)

let doom_wad =
  memo (fun () ->
      let wad = Bytes.create (3 * 1024 * 1024) in
      for i = 0 to Bytes.length wad - 1 do
        Bytes.set_uint8 wad i ((i * 131) land 0xff)
      done;
      wad)

(* NES "ROMs" for the Prototype 4 game library (content is a seed the
   engine could hash into level variety). *)
let nes_rom name =
  let data = Bytes.create 32768 in
  String.iteri (fun i c -> Bytes.set data (i mod 32768) c) (name ^ "-rom");
  for i = String.length name + 4 to 32767 do
    Bytes.set_uint8 data i ((i * 17) land 0xff)
  done;
  data
