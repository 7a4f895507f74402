(** User-space rendering context.

    Two modes, matching the paper's two render paths:
    - [Direct]: pixels go straight to the mmap'd framebuffer (DRI-style,
      §4.3); presenting means the cacheflush syscall.
    - [Windowed]: pixels accumulate in a client buffer written to
      /dev/surface each frame; the WM composites (§4.5).

    Draw calls tally their CPU cost locally and [present] issues one Burn —
    the per-frame "app logic + drawing" time that dominates Figure 11's
    latency breakdown. *)

type mode =
  | Direct of Hw.Framebuffer.t
  | Windowed of int  (** fd of /dev/surface *)

type t = {
  mode : mode;
  width : int;
  height : int;
  pixels : Bytes.t;
      (** client-side buffer (windowed) or staging (direct),
          [4 * width * height] bytes in the /dev/surface wire format:
          little-endian 0xffRRGGBB words, row-major *)
  mutable cost_cycles : int;
}

let rgb r g b = ((r land 0xff) lsl 16) lor ((g land 0xff) lsl 8) lor (b land 0xff)

(* Cycle costs per operation on the A53 (calibrated so a full 640x480
   clear+draw+flush frame lands in the few-ms range the paper reports). *)
let cost_pixel = 2
let cost_fill_pixel = 1

(* Open a direct-rendering context: open /dev/fb and mmap it; on
   prototypes without device files, the file-less mmap path (par 4.3). *)
let direct env =
  let fd = Usys.open_ "/dev/fb" Core.Abi.o_rdwr in
  begin
    match Usys.mmap fd with
    | Error e -> Error e
    | Ok (_addr, w, h) ->
        if fd >= 0 then ignore (Usys.close fd);
        let fb = Uenv.fb env in
        Ok
          {
            mode = Direct fb;
            width = w;
            height = h;
            pixels = Bytes.make (4 * w * h) '\000';
            cost_cycles = 0;
          }
  end

(* Open a windowed context: create a surface of the given geometry. *)
let windowed ~width ~height ~x ~y ?(alpha = 255) () =
  let fd = Usys.open_ "/dev/surface" Core.Abi.o_wronly in
  if fd < 0 then Error (-fd)
  else begin
    let header = Bytes.make 24 '\000' in
    Bytes.blit_string "SURF" 0 header 0 4;
    Bytes.set_int32_le header 4 (Int32.of_int width);
    Bytes.set_int32_le header 8 (Int32.of_int height);
    Bytes.set_int32_le header 12 (Int32.of_int x);
    Bytes.set_int32_le header 16 (Int32.of_int y);
    Bytes.set_uint8 header 20 alpha;
    let n = Usys.write fd header in
    if n < 0 then begin
      ignore (Usys.close fd);
      Error (-n)
    end
    else
      Ok
        {
          mode = Windowed fd;
          width;
          height;
          pixels = Bytes.make (4 * width * height) '\000';
          cost_cycles = 0;
        }
  end

let charge t cycles = t.cost_cycles <- t.cost_cycles + cycles

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Word [i] of [b] := the low 24 bits of [px], 0xRRGGBB, under an
   opaque 0xff X byte. The store is unchecked and native-endian, so a
   big-endian host swaps the word. Each draw clips to the buffer's
   geometry and checks once that what it stores lies in [pixels]:
   [t] is a public record, so nothing else vouches for its length. *)
let[@inline] set_word b i px =
  let w = Int32.of_int (px land 0xffffff lor 0xff000000) in
  set32u b (4 * i) (if Sys.big_endian then swap32 w else w)

let[@inline] store t i px = set_word t.pixels i px

(* [pixels], ints as [put] takes them, as [pixels]-format words: a
   decoded image becomes rows for [blit_row]. *)
let words_of_ints pixels =
  let b = Bytes.create (4 * Array.length pixels) in
  Array.iteri (set_word b) pixels;
  b

let short = "Gfx: pixels shorter than 4 * width * height"

(* [pixels] holds [width * height] words; the division cannot overflow. *)
let[@inline] check t =
  let w = t.width and h = t.height in
  if w > 0 && h > 0 && (Bytes.length t.pixels lsr 2) / w < h then invalid_arg short

(* One word, so only its own index is checked: the store always lies in
   [pixels], but a short geometry whose [y * width] wraps back into
   range is stored to, not refused. *)
let put t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    let i = (y * t.width) + x in
    if i < 0 || i >= Bytes.length t.pixels lsr 2 then invalid_arg short;
    store t i px;
    t.cost_cycles <- t.cost_cycles + cost_pixel
  end

(* Row 0 word by word, then every other row a copy of it. *)
let fill t px =
  check t;
  if t.height > 0 then begin
    let row = 4 * t.width in
    for x = 0 to t.width - 1 do
      store t x px
    done;
    for y = 1 to t.height - 1 do
      Bytes.blit t.pixels 0 t.pixels (y * row) row
    done
  end;
  t.cost_cycles <- t.cost_cycles + (t.width * t.height * cost_fill_pixel)

let fill_rect t ~x ~y ~w ~h px =
  check t;
  let x0 = max 0 x and x1 = min t.width (x + w) in
  let y0 = max 0 y and y1 = min t.height (y + h) in
  (* Nothing unless [0 <= x0 < x1 <= width] and [0 <= y0 < y1 <= height]:
     an [x + w] or [y + h] that overflows draws nothing, and no index
     leaves the words [check] vouched for. *)
  if x0 < x1 && y0 < y1 then
    for yy = y0 to y1 - 1 do
      let row = yy * t.width in
      for i = row + x0 to row + x1 - 1 do
        store t i px
      done
    done;
  t.cost_cycles <- t.cost_cycles + (max 0 w * max 0 h * cost_fill_pixel)

(* Words [src_off, src_off + w) of [src], a row in the [pixels] format,
   into row [y] from column [x], by one blit: the bytes and the charge
   of a [put] loop over the same words. Clipped once as [fill_rect]
   clips (an [x + w] that overflows draws nothing); [src] must hold the
   clipped span, or nothing is stored or charged. *)
let blit_row t ~y ~src ~src_off ~x ~w =
  check t;
  let x0 = max 0 x and x1 = min t.width (x + w) in
  if y >= 0 && y < t.height && x0 < x1 then begin
    let n = x1 - x0 in
    (* [x0 - x] is at most [w] here, so only [src_off] can wrap [s] *)
    let s = src_off + (x0 - x) in
    if s < 0 || s > (Bytes.length src lsr 2) - n then
      invalid_arg "Gfx.blit_row: src shorter than the clipped span";
    Bytes.blit src (4 * s) t.pixels (4 * ((y * t.width) + x0)) (4 * n);
    t.cost_cycles <- t.cost_cycles + (n * cost_pixel)
  end

(* 5x7 bitmap font (digits, upper-case letters, a little punctuation). *)
let glyph c =
  match Char.uppercase_ascii c with
  | '0' -> [| 0b01110; 0b10001; 0b10011; 0b10101; 0b11001; 0b10001; 0b01110 |]
  | '1' -> [| 0b00100; 0b01100; 0b00100; 0b00100; 0b00100; 0b00100; 0b01110 |]
  | '2' -> [| 0b01110; 0b10001; 0b00001; 0b00010; 0b00100; 0b01000; 0b11111 |]
  | '3' -> [| 0b11110; 0b00001; 0b00001; 0b01110; 0b00001; 0b00001; 0b11110 |]
  | '4' -> [| 0b00010; 0b00110; 0b01010; 0b10010; 0b11111; 0b00010; 0b00010 |]
  | '5' -> [| 0b11111; 0b10000; 0b11110; 0b00001; 0b00001; 0b10001; 0b01110 |]
  | '6' -> [| 0b00110; 0b01000; 0b10000; 0b11110; 0b10001; 0b10001; 0b01110 |]
  | '7' -> [| 0b11111; 0b00001; 0b00010; 0b00100; 0b01000; 0b01000; 0b01000 |]
  | '8' -> [| 0b01110; 0b10001; 0b10001; 0b01110; 0b10001; 0b10001; 0b01110 |]
  | '9' -> [| 0b01110; 0b10001; 0b10001; 0b01111; 0b00001; 0b00010; 0b01100 |]
  | 'A' -> [| 0b01110; 0b10001; 0b10001; 0b11111; 0b10001; 0b10001; 0b10001 |]
  | 'B' -> [| 0b11110; 0b10001; 0b10001; 0b11110; 0b10001; 0b10001; 0b11110 |]
  | 'C' -> [| 0b01110; 0b10001; 0b10000; 0b10000; 0b10000; 0b10001; 0b01110 |]
  | 'D' -> [| 0b11110; 0b10001; 0b10001; 0b10001; 0b10001; 0b10001; 0b11110 |]
  | 'E' -> [| 0b11111; 0b10000; 0b10000; 0b11110; 0b10000; 0b10000; 0b11111 |]
  | 'F' -> [| 0b11111; 0b10000; 0b10000; 0b11110; 0b10000; 0b10000; 0b10000 |]
  | 'G' -> [| 0b01110; 0b10001; 0b10000; 0b10111; 0b10001; 0b10001; 0b01111 |]
  | 'H' -> [| 0b10001; 0b10001; 0b10001; 0b11111; 0b10001; 0b10001; 0b10001 |]
  | 'I' -> [| 0b01110; 0b00100; 0b00100; 0b00100; 0b00100; 0b00100; 0b01110 |]
  | 'J' -> [| 0b00111; 0b00010; 0b00010; 0b00010; 0b00010; 0b10010; 0b01100 |]
  | 'K' -> [| 0b10001; 0b10010; 0b10100; 0b11000; 0b10100; 0b10010; 0b10001 |]
  | 'L' -> [| 0b10000; 0b10000; 0b10000; 0b10000; 0b10000; 0b10000; 0b11111 |]
  | 'M' -> [| 0b10001; 0b11011; 0b10101; 0b10101; 0b10001; 0b10001; 0b10001 |]
  | 'N' -> [| 0b10001; 0b11001; 0b10101; 0b10011; 0b10001; 0b10001; 0b10001 |]
  | 'O' -> [| 0b01110; 0b10001; 0b10001; 0b10001; 0b10001; 0b10001; 0b01110 |]
  | 'P' -> [| 0b11110; 0b10001; 0b10001; 0b11110; 0b10000; 0b10000; 0b10000 |]
  | 'Q' -> [| 0b01110; 0b10001; 0b10001; 0b10001; 0b10101; 0b10010; 0b01101 |]
  | 'R' -> [| 0b11110; 0b10001; 0b10001; 0b11110; 0b10100; 0b10010; 0b10001 |]
  | 'S' -> [| 0b01111; 0b10000; 0b10000; 0b01110; 0b00001; 0b00001; 0b11110 |]
  | 'T' -> [| 0b11111; 0b00100; 0b00100; 0b00100; 0b00100; 0b00100; 0b00100 |]
  | 'U' -> [| 0b10001; 0b10001; 0b10001; 0b10001; 0b10001; 0b10001; 0b01110 |]
  | 'V' -> [| 0b10001; 0b10001; 0b10001; 0b10001; 0b10001; 0b01010; 0b00100 |]
  | 'W' -> [| 0b10001; 0b10001; 0b10001; 0b10101; 0b10101; 0b10101; 0b01010 |]
  | 'X' -> [| 0b10001; 0b10001; 0b01010; 0b00100; 0b01010; 0b10001; 0b10001 |]
  | 'Y' -> [| 0b10001; 0b10001; 0b01010; 0b00100; 0b00100; 0b00100; 0b00100 |]
  | 'Z' -> [| 0b11111; 0b00001; 0b00010; 0b00100; 0b01000; 0b10000; 0b11111 |]
  | ':' -> [| 0b00000; 0b00100; 0b00000; 0b00000; 0b00100; 0b00000; 0b00000 |]
  | '.' -> [| 0b00000; 0b00000; 0b00000; 0b00000; 0b00000; 0b00100; 0b00100 |]
  | '%' -> [| 0b11001; 0b11010; 0b00010; 0b00100; 0b01000; 0b01011; 0b10011 |]
  | '/' -> [| 0b00001; 0b00010; 0b00010; 0b00100; 0b01000; 0b01000; 0b10000 |]
  | '-' -> [| 0b00000; 0b00000; 0b00000; 0b11111; 0b00000; 0b00000; 0b00000 |]
  | _ -> [| 0; 0; 0; 0; 0; 0; 0 |]

(* Each byte's seven glyph rows, built once. *)
let glyphs = Array.init 256 (fun c -> glyph (Char.chr c))

let text t ~x ~y ~color s =
  for i = 0 to String.length s - 1 do
    let g = glyphs.(Char.code (String.unsafe_get s i)) in
    for row = 0 to 6 do
      for col = 0 to 4 do
        if g.(row) land (1 lsl (4 - col)) <> 0 then
          put t ~x:(x + (i * 6) + col) ~y:(y + row) color
      done
    done
  done

(* Present the frame: push pixels out and pay the accumulated CPU bill. *)
let present t =
  (match t.mode with
  | Direct fb ->
      (* copy the staging buffer to the mapped framebuffer, which has
         the geometry mmap reported: user memmove *)
      Bytes.blit t.pixels 0 (Hw.Framebuffer.cpu_view fb) 0 (Bytes.length t.pixels);
      for y = 0 to t.height - 1 do
        Hw.Framebuffer.wrote_row fb y
      done;
      (match Hw.Framebuffer.mapping fb with
      | Hw.Framebuffer.Cached ->
          charge t (t.width * t.height / 8) (* NEON memmove ~8 B/cycle *)
      | Hw.Framebuffer.Uncached ->
          (* Device-nGnRnE stores: no gathering, each 32-bit store waits
             on the bus (~20 cycles) -- the "significant FPS drop" of
             par 4.3 *)
          charge t (t.width * t.height * 20));
      Usys.burn t.cost_cycles;
      t.cost_cycles <- 0;
      (* make it visible: the §4.3 cache lesson *)
      ignore (Usys.cacheflush ())
  | Windowed fd ->
      charge t (t.width * t.height / 4) (* the A53's pack for the surface write *);
      Usys.burn t.cost_cycles;
      t.cost_cycles <- 0;
      (* the buffer is already in the wire format, and the surface write
         copies it before the task resumes *)
      ignore (Usys.write fd t.pixels))

let close t =
  match t.mode with Windowed fd -> ignore (Usys.close fd) | Direct _ -> ()
