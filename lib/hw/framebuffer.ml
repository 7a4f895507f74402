type mapping = Uncached | Cached

type t = {
  width : int;
  height : int;
  cache : Bytes.t;  (* CPU view, 4 bytes a pixel: little-endian XRGB8888 *)
  plane : Bytes.t;  (* what the display reads, in the same layout *)
  dirty : bool array;  (* per-row dirtiness of the CPU view *)
  mutable mapping : mapping;
  mutable presented : int;
}

let create ~width ~height =
  assert (width > 0 && height > 0);
  {
    width;
    height;
    cache = Bytes.make (4 * width * height) '\000';
    plane = Bytes.make (4 * width * height) '\000';
    dirty = Array.make height false;
    mapping = Cached;
    presented = 0;
  }

let width t = t.width
let height t = t.height
let set_mapping t m = t.mapping <- m
let mapping t = t.mapping

(* [Array.fill] for pixel rows, without the C call's write-barrier test
   per element: the range is checked once, then stored four elements a
   step without per-access checks. *)
let fill_pixels (dst : int array) doff n (px : int) =
  if n < 0 || doff < 0 || doff > Array.length dst - n then
    invalid_arg "Framebuffer.fill_pixels";
  let e4 = doff + (n land lnot 3) in
  let i = ref doff in
  while !i < e4 do
    let d = !i in
    Array.unsafe_set dst d px;
    Array.unsafe_set dst (d + 1) px;
    Array.unsafe_set dst (d + 2) px;
    Array.unsafe_set dst (d + 3) px;
    i := d + 4
  done;
  for j = e4 to doff + n - 1 do
    Array.unsafe_set dst j px
  done

let publish_row t y =
  let off = 4 * y * t.width in
  Bytes.blit t.cache off t.plane off (4 * t.width);
  t.dirty.(y) <- false

let cpu_view t = t.cache

let wrote_row t y =
  if y < 0 || y >= t.height then invalid_arg "Framebuffer.wrote_row";
  match t.mapping with
  | Uncached -> publish_row t y
  | Cached -> t.dirty.(y) <- true

(* The pixel at index [i] of a plane: its low 24 bits, the X byte
   dropped. *)
let pixel b i = Int32.to_int (Bytes.get_int32_le b (4 * i)) land 0xffffff

let write_pixel t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    Bytes.set_int32_le t.cache
      (4 * ((y * t.width) + x))
      (Int32.of_int (px land 0xffffff));
    wrote_row t y
  end

let read_pixel t ~x ~y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then pixel t.cache ((y * t.width) + x)
  else 0

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Two pixels go in per 64-bit store, the first in its low half, and an
   odd last one as a 32-bit store; the stores are unchecked after the
   one range check and native-endian, so a big-endian host swaps each
   word. *)
let write_row t ~y ~off (src : int array) =
  if y >= 0 && y < t.height then begin
    if off < 0 || off > Array.length src then invalid_arg "Framebuffer.write_row";
    let n = min t.width (Array.length src - off) in
    let d = 4 * y * t.width in
    for k = 0 to (n / 2) - 1 do
      let i = off + (2 * k) in
      let w =
        Int64.of_int
          (Array.unsafe_get src i land 0xffffff
          lor ((Array.unsafe_get src (i + 1) land 0xffffff) lsl 32))
      in
      set64u t.cache (d + (8 * k)) (if Sys.big_endian then swap64 w else w)
    done;
    if n land 1 = 1 then begin
      let w = Int32.of_int (Array.unsafe_get src (off + n - 1) land 0xffffff) in
      set32u t.cache (d + (4 * (n - 1))) (if Sys.big_endian then swap32 w else w)
    end;
    wrote_row t y
  end

let flush t =
  match t.mapping with
  | Uncached -> ()
  | Cached ->
      let any = ref false in
      for y = 0 to t.height - 1 do
        if t.dirty.(y) then begin
          publish_row t y;
          any := true
        end
      done;
      if !any then t.presented <- t.presented + 1

let display_pixel t ~x ~y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then pixel t.plane ((y * t.width) + x)
  else 0

let stale_rows t =
  let n = ref 0 in
  for y = 0 to t.height - 1 do
    if t.dirty.(y) then incr n
  done;
  !n

let frames_presented t = t.presented

let to_ppm t =
  let buf = Buffer.create ((t.width * t.height * 3) + 32) in
  Buffer.add_string buf (Printf.sprintf "P6\n%d %d\n255\n" t.width t.height);
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 1 do
      let o = 4 * ((y * t.width) + x) in
      Buffer.add_char buf (Bytes.get t.plane (o + 2));
      Buffer.add_char buf (Bytes.get t.plane (o + 1));
      Buffer.add_char buf (Bytes.get t.plane o)
    done
  done;
  Buffer.contents buf

let luminance px =
  let r = (px lsr 16) land 0xff
  and g = (px lsr 8) land 0xff
  and b = px land 0xff in
  ((299 * r) + (587 * g) + (114 * b)) / 1000

let ascii_ramp = " .:-=+*#%@"

let to_ascii t ~cols ~rows =
  let buf = Buffer.create ((cols + 1) * rows) in
  for ry = 0 to rows - 1 do
    for cx = 0 to cols - 1 do
      let x = cx * t.width / cols and y = ry * t.height / rows in
      let lum = luminance (pixel t.plane ((y * t.width) + x)) in
      let idx = lum * (String.length ascii_ramp - 1) / 255 in
      Buffer.add_char buf ascii_ramp.[idx]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
