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
   [bv = 516d + 128]. Integer sums regroup exactly. *)
let[@inline] pixel luma rv gv bv =
  let c = 298 * (luma - 16) in
  let r = clamp ((c + rv) asr 8) in
  let g = clamp ((c + gv) asr 8) in
  let b = clamp ((c + bv) asr 8) in
  (r lsl 16) lor (g lsl 8) lor b

(* Convert a YUV420 planar frame to packed RGB. [u]/[v] are quarter-size
   planes. The top-left [cols] x [rows] window of the frame is written
   to [out] from [off] on, one row every [stride] pixels; [out] is left
   alone elsewhere. Each pair of pixels on a row shares one chroma
   sample, so its three chroma terms are computed once. Odd frame
   dimensions and a window that does not fit raise [Invalid_argument]
   before anything is written. Returns the cycle cost of converting the
   whole frame on the chosen path. *)
let convert_420 ~width ~height ~(y_plane : int array) ~(u_plane : int array)
    ~(v_plane : int array) ~(out : int array) ~off ~stride ~cols ~rows ~simd =
  let cw = width / 2 in
  if
    width land 1 <> 0 || height land 1 <> 0
    || Array.length y_plane < width * height
    || Array.length u_plane < cw * (height / 2)
    || Array.length v_plane < cw * (height / 2)
    || cols < 0 || rows < 0 || cols > width || rows > height || off < 0
    || stride < cols
    || (rows > 0 && off + ((rows - 1) * stride) + cols > Array.length out)
  then invalid_arg "Yuv.convert_420";
  for row = 0 to rows - 1 do
    let yoff = row * width and coff = row / 2 * cw and o = off + (row * stride) in
    for k = 0 to ((cols + 1) / 2) - 1 do
      let col = 2 * k in
      let d = Array.unsafe_get u_plane (coff + k) - 128
      and e = Array.unsafe_get v_plane (coff + k) - 128 in
      let rv = (409 * e) + 128
      and gv = (-100 * d) - (208 * e) + 128
      and bv = (516 * d) + 128 in
      Array.unsafe_set out (o + col)
        (pixel (Array.unsafe_get y_plane (yoff + col)) rv gv bv);
      if col + 1 < cols then
        Array.unsafe_set out (o + col + 1)
          (pixel (Array.unsafe_get y_plane (yoff + col + 1)) rv gv bv)
    done
  done;
  width * height * cycles_per_pixel ~simd
