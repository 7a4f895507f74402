(** MV1 — the video codec standing in for MPEG-1 (see DESIGN.md).

    Real intra-frame transform coding with MPEG's actual machinery at
    MPEG-1's actual layout: YUV420 planes split into 8×8 blocks, a 2-D
    DCT-II, uniform quantization with per-coefficient weights, zigzag
    scan, and run-length entropy coding. Decode performs the genuine
    inverse pipeline, so playback FPS is driven by per-block IDCT work
    plus the YUV→RGB conversion of {!Yuv} — reproducing the §5.2 SIMD
    experiment end to end.

    Cycle costs: an 8×8 IDCT+dequant on the A53 costs
    [cycles_per_block ~simd:false] scalar and [~simd:true] with NEON. *)

let cycles_per_block ~simd = if simd then 3_340 else 13_000

(* fixed per-frame work: bitstream/container parsing, buffer management,
   rate control — the share that does not scale with block count *)
let cycles_per_frame_fixed = 12_400_000

let magic = "MV1 "

type frame = {
  y_plane : int array;
  u_plane : int array;
  v_plane : int array;
}

type t = {
  width : int;  (** luma width; multiple of 16 *)
  height : int;
  fps : int;
  frames : Bytes.t array;  (** encoded payload per frame *)
}

(* ---- 8x8 DCT ---- *)

let pi = 4.0 *. atan 1.0

(* C[k][n] at [dct_c.((k * 8) + n)]. Row 0 is one constant: its cosine
   argument is exactly 0, so every C[0][n] is sqrt (1/8). *)
let dct_c =
  Array.init 64 (fun i ->
      let k = i / 8 and n = i mod 8 in
      let ck = if k = 0 then sqrt (1.0 /. 8.0) else sqrt (2.0 /. 8.0) in
      ck *. cos ((2.0 *. float_of_int n +. 1.0) *. float_of_int k *. pi /. 16.0))

let[@inline] dct_at i = Array.unsafe_get dct_c i

(* out = C * block * C^T, with [out] holding the middle product between
   the passes. Every sum starts from 0.0 and adds in index order, as the
   dense triple loop does, so each float is that loop's bit for bit:
   pass 1 loads a column of the block as floats once and forms its eight
   sums, pass 2 loads a row of the middle product and forms its eight. *)
let fdct (block : int array) (out : float array) =
  if Array.length block < 64 || Array.length out < 64 then invalid_arg "Mv1.fdct";
  (* out[k][x] = sum over n of C[k][n] * block[n][x] *)
  for x = 0 to 7 do
    let b0 = float_of_int (Array.unsafe_get block x)
    and b1 = float_of_int (Array.unsafe_get block (8 + x))
    and b2 = float_of_int (Array.unsafe_get block (16 + x))
    and b3 = float_of_int (Array.unsafe_get block (24 + x))
    and b4 = float_of_int (Array.unsafe_get block (32 + x))
    and b5 = float_of_int (Array.unsafe_get block (40 + x))
    and b6 = float_of_int (Array.unsafe_get block (48 + x))
    and b7 = float_of_int (Array.unsafe_get block (56 + x)) in
    for k = 0 to 7 do
      let r = k * 8 in
      Array.unsafe_set out (r + x)
        (0.0 +. (dct_at r *. b0) +. (dct_at (r + 1) *. b1)
        +. (dct_at (r + 2) *. b2) +. (dct_at (r + 3) *. b3)
        +. (dct_at (r + 4) *. b4) +. (dct_at (r + 5) *. b5)
        +. (dct_at (r + 6) *. b6) +. (dct_at (r + 7) *. b7))
    done
  done;
  (* out[k][l] = sum over x of mid[k][x] * C[l][x], row k of the middle
     product read before it is overwritten *)
  for k = 0 to 7 do
    let r = k * 8 in
    let t0 = Array.unsafe_get out r and t1 = Array.unsafe_get out (r + 1)
    and t2 = Array.unsafe_get out (r + 2) and t3 = Array.unsafe_get out (r + 3)
    and t4 = Array.unsafe_get out (r + 4) and t5 = Array.unsafe_get out (r + 5)
    and t6 = Array.unsafe_get out (r + 6) and t7 = Array.unsafe_get out (r + 7) in
    for l = 0 to 7 do
      let q = l * 8 in
      Array.unsafe_set out (r + l)
        (0.0 +. (t0 *. dct_at q) +. (t1 *. dct_at (q + 1))
        +. (t2 *. dct_at (q + 2)) +. (t3 *. dct_at (q + 3))
        +. (t4 *. dct_at (q + 4)) +. (t5 *. dct_at (q + 5))
        +. (t6 *. dct_at (q + 6)) +. (t7 *. dct_at (q + 7)))
    done
  done

(* [Float.round] (half away from zero) clamped to a byte, without the C
   call: below 2^52, [x -. float t] is the exact fraction of [x]. *)
let[@inline] round_byte x =
  if x >= 0.5 then
    if x >= 254.5 then 255
    else
      let t = truncate x in
      if x -. float_of_int t >= 0.5 then t + 1 else t
  else 0

(* out = round (C^T * coeffs * C), clamped to bytes. Bit l of [cols] is
   set for every column l of [coeffs] holding a non-zero coefficient.
   Every term of another column is an exact zero, and dropping an exact
   zero from a sum changes at most the sign of a zero total, which the
   rounding cannot see: the output is the dense product's, bit for bit. *)
let idct ~cols (coeffs : float array) (tmp : float array) (out : int array) =
  (* tmp[n][l] = sum over k of C[k][n] * Y[k][l], summed in k order and
     skipping zero Y[k][l] for the same reason *)
  for l = 0 to 7 do
    if cols land (1 lsl l) <> 0 then begin
      for n = 0 to 7 do
        tmp.((n * 8) + l) <- 0.0
      done;
      for k = 0 to 7 do
        let y = coeffs.((k * 8) + l) in
        if y <> 0.0 then
          for n = 0 to 7 do
            tmp.((n * 8) + l) <- tmp.((n * 8) + l) +. (dct_c.((k * 8) + n) *. y)
          done
      done
    end
  done;
  if cols = 1 then
    (* only the DC column: C[0][m] is one constant, so each row is flat *)
    for n = 0 to 7 do
      let v = round_byte (tmp.(n * 8) *. dct_c.(0)) in
      for m = 0 to 7 do
        out.((n * 8) + m) <- v
      done
    done
  else
    for n = 0 to 7 do
      for m = 0 to 7 do
        let s = ref 0.0 in
        for l = 0 to 7 do
          (* X = C^T Y C: the second factor indexes C[l][m] *)
          if cols land (1 lsl l) <> 0 then
            s := !s +. (tmp.((n * 8) + l) *. dct_c.((l * 8) + m))
        done;
        out.((n * 8) + m) <- round_byte !s
      done
    done

(* JPEG's luminance quantization table, scaled by quality. *)
let base_quant =
  [| 16; 11; 10; 16; 24; 40; 51; 61; 12; 12; 14; 19; 26; 58; 60; 55; 14; 13;
     16; 24; 40; 57; 69; 56; 14; 17; 22; 29; 51; 87; 80; 62; 18; 22; 37; 56;
     68; 109; 103; 77; 24; 35; 55; 64; 81; 104; 113; 92; 49; 64; 78; 87;
     103; 121; 120; 101; 72; 92; 95; 98; 112; 100; 103; 99 |]

let quant_table ~quality =
  let scale = if quality < 50 then 5000 / max 1 quality else 200 - (2 * quality) in
  Array.map (fun q -> max 1 (((q * scale) + 50) / 100)) base_quant

let zigzag =
  [| 0; 1; 8; 16; 9; 2; 3; 10; 17; 24; 32; 25; 18; 11; 4; 5; 12; 19; 26; 33;
     40; 48; 41; 34; 27; 20; 13; 6; 7; 14; 21; 28; 35; 42; 49; 56; 57; 50;
     43; 36; 29; 22; 15; 23; 30; 37; 44; 51; 58; 59; 52; 45; 38; 31; 39; 46;
     53; 60; 61; 54; 47; 55; 62; 63 |]

(* Caller-owned encode scratch: one per frame, reused for every block. *)
type encoder = {
  qz : float array;  (** the quantizer in zigzag order *)
  e_block : int array;  (** one 8x8 block of the plane *)
  e_coeffs : float array;  (** its DCT, raster order *)
  q : int array;  (** its quantized coefficients, zigzag order *)
}

let encoder ~quality =
  let quant = quant_table ~quality in
  {
    qz = Array.map (fun z -> float_of_int quant.(z)) zigzag;
    e_block = Array.make 64 0;
    e_coeffs = Array.make 64 0.0;
    q = Array.make 64 0;
  }

(* RLE of the zigzag sequence of [e.e_coeffs]: (run-of-zeros, value)
   pairs; values are signed 16-bit. 0xF0 run means "16 zeros, no value";
   EOB = (0, 0). *)
let encode_block buf e =
  let coeffs = e.e_coeffs and q = e.q in
  let last_nonzero = ref (-1) in
  for i = 0 to 63 do
    let v = int_of_float (Float.round (coeffs.(zigzag.(i)) /. e.qz.(i))) in
    q.(i) <- v;
    if v <> 0 then last_nonzero := i
  done;
  let i = ref 0 in
  while !i <= !last_nonzero do
    let run = ref 0 in
    while q.(!i) = 0 && !run < 15 do
      incr run;
      incr i
    done;
    let v = q.(!i) in
    Buffer.add_char buf (Char.chr !run);
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v asr 8) land 0xff));
    incr i
  done;
  (* end of block *)
  Buffer.add_char buf '\255'

(* Caller-owned decode state: one decoder per stream, reused for every
   frame, so decoding allocates nothing. *)
type decoder = {
  d_width : int;
  d_height : int;
  quant : int array;
  coeffs : float array;  (** one block's dequantized coefficients, raster order *)
  tmp : float array;  (** the IDCT's middle product *)
  block : int array;  (** one decoded 8x8 block *)
  mutable cols : int;  (** column mask of [coeffs], for {!idct} *)
  mutable last : int;
      (** highest zigzag index written into [coeffs] since it was last
          all zeros; -1 when it is *)
  frame : frame;  (** overwritten by every {!decode_into} *)
}

let decoder ~width ~height ~quality =
  {
    d_width = width;
    d_height = height;
    quant = quant_table ~quality;
    coeffs = Array.make 64 0.0;
    tmp = Array.make 64 0.0;
    block = Array.make 64 0;
    cols = 0;
    last = -1;
    frame =
      {
        y_plane = Array.make (width * height) 0;
        u_plane = Array.make (width / 2 * (height / 2)) 0;
        v_plane = Array.make (width / 2 * (height / 2)) 0;
      };
  }

(* Decode one block's (run, lo, hi) triples into [d.coeffs] and its
   column mask into [d.cols]; returns the position after the block.
   Only the zigzag prefix the previous block wrote is cleared: [d.last]
   is raised before each store, so it stays an upper bound on what
   [coeffs] holds even when a corrupt block raises halfway through. *)
let decode_block d data pos =
  let coeffs = d.coeffs in
  for i = 0 to d.last do
    coeffs.(zigzag.(i)) <- 0.0
  done;
  d.last <- -1;
  let cols = ref 0 in
  let i = ref 0 in
  let p = ref pos in
  let stop = ref false in
  while not !stop do
    if !p >= Bytes.length data then failwith "mv1: truncated block";
    let run = Bytes.get_uint8 data !p in
    if run = 0xff then begin
      stop := true;
      incr p
    end
    else begin
      if !p + 3 > Bytes.length data then failwith "mv1: truncated block";
      let lo = Bytes.get_uint8 data (!p + 1) in
      let hi = Bytes.get_uint8 data (!p + 2) in
      let v =
        let raw = lo lor (hi lsl 8) in
        if raw >= 32768 then raw - 65536 else raw
      in
      p := !p + 3;
      i := !i + run;
      if !i > 63 then failwith "mv1: run overflow";
      let z = zigzag.(!i) in
      d.last <- !i;
      coeffs.(z) <- float_of_int (v * d.quant.(z));
      if v <> 0 then cols := !cols lor (1 lsl (z land 7));
      incr i
    end
  done;
  d.cols <- !cols;
  !p

(* ---- plane <-> blocks ---- *)

let for_blocks ~width ~height f =
  for by = 0 to (height / 8) - 1 do
    for bx = 0 to (width / 8) - 1 do
      f ~bx ~by
    done
  done

(* One check covers the block: with [bx], [by] and [width] not
   negative, every index read lies between [base] and the last one. *)
let extract_block (plane : int array) ~width ~bx ~by (out : int array) =
  let base = (by * 8 * width) + (bx * 8) in
  if bx < 0 || by < 0 || width < 0
     || base + (7 * width) + 7 >= Array.length plane
     || Array.length out < 64
  then invalid_arg "Mv1.extract_block";
  for y = 0 to 7 do
    let off = base + (y * width) in
    for x = 0 to 7 do
      Array.unsafe_set out ((y * 8) + x) (Array.unsafe_get plane (off + x))
    done
  done

let insert_block (plane : int array) ~width ~bx ~by (block : int array) =
  for y = 0 to 7 do
    let off = ((by * 8 + y) * width) + (bx * 8) in
    for x = 0 to 7 do
      plane.(off + x) <- block.((y * 8) + x)
    done
  done

let encode_plane buf e plane ~width ~height =
  for by = 0 to (height / 8) - 1 do
    for bx = 0 to (width / 8) - 1 do
      extract_block plane ~width ~bx ~by e.e_block;
      fdct e.e_block e.e_coeffs;
      encode_block buf e
    done
  done

(* A block whose one entry is raster position 0 (zigzag index 0) is
   flat: {!idct}'s pass 1 leaves [0.0 +. C00 *. y] in every row, and
   its DC-column path rounds that times [C00]. The value is written
   straight into the plane. Every other block, an empty one included,
   takes {!idct}. *)
let decode_plane d data pos plane ~width ~height =
  let p = ref pos in
  for_blocks ~width ~height (fun ~bx ~by ->
      p := decode_block d data !p;
      if d.last = 0 then begin
        let c00 = dct_c.(0) in
        let v = round_byte ((0.0 +. (c00 *. d.coeffs.(0))) *. c00) in
        for y = 0 to 7 do
          let off = ((by * 8 + y) * width) + (bx * 8) in
          for x = 0 to 7 do
            plane.(off + x) <- v
          done
        done
      end
      else begin
        idct ~cols:d.cols d.coeffs d.tmp d.block;
        insert_block plane ~width ~bx ~by d.block
      end);
  !p

(* ---- frames and container ---- *)

let blocks_per_frame ~width ~height =
  (width * height / 64) + (2 * (width / 2 * (height / 2) / 64))

let encode_frame ~width ~height ~quality frame =
  let e = encoder ~quality in
  let buf = Buffer.create (width * height / 4) in
  encode_plane buf e frame.y_plane ~width ~height;
  encode_plane buf e frame.u_plane ~width:(width / 2) ~height:(height / 2);
  encode_plane buf e frame.v_plane ~width:(width / 2) ~height:(height / 2);
  Buffer.to_bytes buf

(* Decode a frame's payload into [d.frame]. Every pixel is overwritten,
   so nothing of the previous frame survives. Raises [Failure] on a
   corrupt payload. *)
let decode_into d data =
  let width = d.d_width and height = d.d_height in
  let p = decode_plane d data 0 d.frame.y_plane ~width ~height in
  let p =
    decode_plane d data p d.frame.u_plane ~width:(width / 2) ~height:(height / 2)
  in
  ignore (decode_plane d data p d.frame.v_plane ~width:(width / 2) ~height:(height / 2))

(* A freshly allocated decode of one payload. *)
let decode_frame ~width ~height ~quality data =
  let d = decoder ~width ~height ~quality in
  decode_into d data;
  d.frame

let quality = 50 (* fixed container quality *)

let put32 b off v =
  Bytes.set_uint8 b off (v land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xff);
  Bytes.set_uint8 b (off + 2) ((v lsr 16) land 0xff);
  Bytes.set_uint8 b (off + 3) ((v lsr 24) land 0xff)

let get32 b off =
  Bytes.get_uint8 b off
  lor (Bytes.get_uint8 b (off + 1) lsl 8)
  lor (Bytes.get_uint8 b (off + 2) lsl 16)
  lor (Bytes.get_uint8 b (off + 3) lsl 24)

let pack t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  let header = Bytes.make 16 '\000' in
  put32 header 0 t.width;
  put32 header 4 t.height;
  put32 header 8 t.fps;
  put32 header 12 (Array.length t.frames);
  Buffer.add_bytes buf header;
  Array.iter
    (fun payload ->
      let len = Bytes.make 4 '\000' in
      put32 len 0 (Bytes.length payload);
      Buffer.add_bytes buf len;
      Buffer.add_bytes buf payload)
    t.frames;
  Buffer.to_bytes buf

let unpack data =
  if Bytes.length data < 20 || not (String.equal (Bytes.sub_string data 0 4) magic)
  then Error "mv1: bad magic"
  else begin
    let width = get32 data 4 and height = get32 data 8 in
    let fps = get32 data 12 and nframes = get32 data 16 in
    if width <= 0 || height <= 0 || width mod 16 <> 0 || height mod 16 <> 0 then
      Error "mv1: bad dimensions"
    else begin
      let pos = ref 20 in
      let rec collect acc k =
        if k = 0 then Ok (List.rev acc)
        else if !pos + 4 > Bytes.length data then Error "mv1: truncated"
        else begin
          let len = get32 data !pos in
          pos := !pos + 4;
          if !pos + len > Bytes.length data then Error "mv1: truncated frame"
          else begin
            let payload = Bytes.sub data !pos len in
            pos := !pos + len;
            collect (payload :: acc) (k - 1)
          end
        end
      in
      match collect [] nframes with
      | Error e -> Error e
      | Ok frames ->
          Ok { width; height; fps; frames = Array.of_list frames }
    end
  end
