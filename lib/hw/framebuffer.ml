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
