(** YUV↔RGB conversion — §5.2's headline optimization: the scalar byte
    loop versus the NEON SIMD path improves video playback ~3x. Both
    paths produce identical pixels; they differ in the cycle cost the
    caller must charge, which is the honest way to reproduce the paper's
    experiment (the arithmetic is the same; the ILP is not). *)

let cycles_per_pixel_scalar = 12
let cycles_per_pixel_simd = 2 (* 8-wide NEON with saturating narrows *)

let cycles_per_pixel ~simd =
  if simd then cycles_per_pixel_simd else cycles_per_pixel_scalar

let[@inline] clamp v = if v < 0 then 0 else if v > 255 then 255 else v

(* ITU-R BT.601 integer approximation, the one everyone ships. *)
let[@inline] yuv_to_rgb ~y ~u ~v =
  let c = y - 16 and d = u - 128 and e = v - 128 in
  let r = clamp (((298 * c) + (409 * e) + 128) asr 8) in
  let g = clamp (((298 * c) - (100 * d) - (208 * e) + 128) asr 8) in
  let b = clamp (((298 * c) + (516 * d) + 128) asr 8) in
  (r lsl 16) lor (g lsl 8) lor b

let rgb_to_yuv px =
  let r = (px lsr 16) land 0xff
  and g = (px lsr 8) land 0xff
  and b = px land 0xff in
  let y = (((66 * r) + (129 * g) + (25 * b) + 128) asr 8) + 16 in
  let u = (((-38 * r) - (74 * g) + (112 * b) + 128) asr 8) + 128 in
  let v = (((112 * r) - (94 * g) - (18 * b) + 128) asr 8) + 128 in
  (clamp y, clamp u, clamp v)

(* [yuv_to_rgb] with the chroma terms, rounding constant included,
   already summed: [rv = 409e + 128], [gv = -100d - 208e + 128] and
   [bv = 516d + 128]. Integer sums regroup exactly. A channel outside
   0..255 has a bit outside the low byte set (a negative one has them
   all), so one test on the three finds the rare pixel that needs
   clamping. *)
let[@inline] pixel luma rv gv bv =
  let c = 298 * (luma - 16) in
  let r = (c + rv) asr 8 and g = (c + gv) asr 8 and b = (c + bv) asr 8 in
  if (r lor g lor b) land lnot 255 = 0 then (r lsl 16) lor (g lsl 8) lor b
  else (clamp r lsl 16) lor (clamp g lsl 8) lor clamp b

let[@inline] byte plane i = Char.code (Bytes.unsafe_get plane i)

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* A converted pixel as [out] stores it: little-endian 0xffRRGGBB, the
   /dev/surface wire format. The store is unchecked, after
   [convert_420]'s one range check, and native-endian, so a big-endian
   host swaps the word. *)
let[@inline] store out i px =
  let w = Int32.of_int (px lor 0xff000000) in
  set32u out (4 * i) (if Sys.big_endian then swap32 w else w)

(* Convert a YUV420 planar frame, one byte per sample, to packed RGB.
   [u]/[v] are quarter-size planes. The top-left [cols] x [rows] window
   of the frame is written to [out], 4 bytes a pixel, from pixel [off]
   on, one row every [stride] pixels; [out] is left alone elsewhere. Each chroma sample
   serves a 2x2 square of pixels, so the two rows that share a chroma
   row are converted in one pass and the three chroma terms are
   computed once per square; an odd last row or column is the square's
   top row or left column alone. Odd frame dimensions and a window that
   does not fit raise [Invalid_argument] before anything is written.
   Returns the cycle cost of converting the whole frame on the chosen
   path. *)
let convert_420 ~width ~height ~(y_plane : Bytes.t) ~(u_plane : Bytes.t)
    ~(v_plane : Bytes.t) ~(out : Bytes.t) ~off ~stride ~cols ~rows ~simd =
  let cw = width / 2 in
  if
    width land 1 <> 0 || height land 1 <> 0
    || Bytes.length y_plane < width * height
    || Bytes.length u_plane < cw * (height / 2)
    || Bytes.length v_plane < cw * (height / 2)
    || cols < 0 || rows < 0 || cols > width || rows > height || off < 0
    || stride < cols
    || (rows > 0 && off + ((rows - 1) * stride) + cols > Bytes.length out / 4)
  then invalid_arg "Yuv.convert_420";
  for cr = 0 to ((rows + 1) / 2) - 1 do
    let row = 2 * cr in
    let coff = cr * cw and y0 = row * width and o0 = off + (row * stride) in
    let two_rows = row + 1 < rows in
    for k = 0 to ((cols + 1) / 2) - 1 do
      let col = 2 * k in
      let d = byte u_plane (coff + k) - 128 and e = byte v_plane (coff + k) - 128 in
      let rv = (409 * e) + 128
      and gv = (-100 * d) - (208 * e) + 128
      and bv = (516 * d) + 128 in
      let two_cols = col + 1 < cols in
      store out (o0 + col) (pixel (byte y_plane (y0 + col)) rv gv bv);
      if two_cols then store out (o0 + col + 1) (pixel (byte y_plane (y0 + col + 1)) rv gv bv);
      if two_rows then begin
        let y1 = y0 + width + col and o1 = o0 + stride + col in
        store out o1 (pixel (byte y_plane y1) rv gv bv);
        if two_cols then store out (o1 + 1) (pixel (byte y_plane (y1 + 1)) rv gv bv)
      end
    done
  done;
  width * height * cycles_per_pixel ~simd
