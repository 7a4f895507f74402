type mapping = Uncached | Cached

type t = {
  width : int;
  height : int;
  cache : int array;  (* CPU view *)
  plane : int array;  (* what the display reads *)
  dirty : bool array;  (* per-row dirtiness of the CPU view *)
  mutable mapping : mapping;
  mutable presented : int;
}

let create ~width ~height =
  assert (width > 0 && height > 0);
  {
    width;
    height;
    cache = Array.make (width * height) 0;
    plane = Array.make (width * height) 0;
    dirty = Array.make height false;
    mapping = Cached;
    presented = 0;
  }

let width t = t.width
let height t = t.height
let set_mapping t m = t.mapping <- m
let mapping t = t.mapping

(* [Array.blit] for pixel rows. The planes live in the major heap, where
   [Array.blit] pays a write barrier per element; this loop is typed
   [int] and pays none. The range is checked once, then copied four
   elements a step without per-access checks. Each store follows the
   load before it, so an overlapping copy within one array behaves as
   the plain forward loop [dst.(doff + i) <- src.(soff + i)]. *)
let blit_pixels (src : int array) soff (dst : int array) doff n =
  if
    n < 0 || soff < 0 || doff < 0
    || soff > Array.length src - n
    || doff > Array.length dst - n
  then invalid_arg "Framebuffer.blit_pixels";
  let n4 = n land lnot 3 in
  let i = ref 0 in
  while !i < n4 do
    let s = soff + !i and d = doff + !i in
    Array.unsafe_set dst d (Array.unsafe_get src s);
    Array.unsafe_set dst (d + 1) (Array.unsafe_get src (s + 1));
    Array.unsafe_set dst (d + 2) (Array.unsafe_get src (s + 2));
    Array.unsafe_set dst (d + 3) (Array.unsafe_get src (s + 3));
    i := !i + 4
  done;
  for j = n4 to n - 1 do
    Array.unsafe_set dst (doff + j) (Array.unsafe_get src (soff + j))
  done

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
  let off = y * t.width in
  blit_pixels t.cache off t.plane off t.width;
  t.dirty.(y) <- false

let cpu_view t = t.cache

let wrote_row t y =
  if y < 0 || y >= t.height then invalid_arg "Framebuffer.wrote_row";
  match t.mapping with
  | Uncached -> publish_row t y
  | Cached -> t.dirty.(y) <- true

let write_pixel t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    t.cache.((y * t.width) + x) <- px;
    wrote_row t y
  end

let read_pixel t ~x ~y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then
    t.cache.((y * t.width) + x)
  else 0

let write_row t ~y ~off src =
  if y >= 0 && y < t.height then begin
    let n = min t.width (Array.length src - off) in
    blit_pixels src off t.cache (y * t.width) n;
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
  if x >= 0 && x < t.width && y >= 0 && y < t.height then
    t.plane.((y * t.width) + x)
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
      let px = t.plane.((y * t.width) + x) in
      Buffer.add_char buf (Char.chr ((px lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((px lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (px land 0xff))
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
      let lum = luminance t.plane.((y * t.width) + x) in
      let idx = lum * (String.length ascii_ramp - 1) / 255 in
      Buffer.add_char buf ascii_ramp.[idx]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
