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

(* Convert a YUV420 planar frame to packed RGB. [u]/[v] are quarter-size
   planes. Returns the cycle cost for the chosen path. *)
let convert_420 ~width ~height ~(y_plane : int array) ~(u_plane : int array)
    ~(v_plane : int array) ~(out : int array) ~simd =
  assert (Array.length out >= width * height);
  let cw = width / 2 in
  for row = 0 to height - 1 do
    let yoff = row * width and coff = row / 2 * cw in
    for col = 0 to width - 1 do
      let c = coff + (col / 2) in
      out.(yoff + col) <- yuv_to_rgb ~y:y_plane.(yoff + col) ~u:u_plane.(c) ~v:v_plane.(c)
    done
  done;
  width * height * cycles_per_pixel ~simd
