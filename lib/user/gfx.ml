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
  pixels : int array;  (** client-side buffer (windowed) or staging *)
  mutable cost_cycles : int;
  mutable frames : int;
  scanline : Bytes.t;  (** scratch for surface writes *)
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
            pixels = Array.make (w * h) 0;
            cost_cycles = 0;
            frames = 0;
            scanline = Bytes.create (w * 4);
          }
  end

(* Open a windowed context: create a surface of the given geometry. *)
let windowed ~width ~height ~x ~y ?(alpha = 255) () =
  let fd = Usys.open_ "/dev/surface" Core.Abi.o_wronly in
  if fd < 0 then Error (-fd)
  else begin
    let header = Bytes.make 24 '\000' in
    Bytes.blit_string "SURF" 0 header 0 4;
    let put32 off v =
      Bytes.set_uint8 header off (v land 0xff);
      Bytes.set_uint8 header (off + 1) ((v lsr 8) land 0xff);
      Bytes.set_uint8 header (off + 2) ((v lsr 16) land 0xff);
      Bytes.set_uint8 header (off + 3) ((v lsr 24) land 0xff)
    in
    put32 4 width;
    put32 8 height;
    put32 12 x;
    put32 16 y;
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
          pixels = Array.make (width * height) 0;
          cost_cycles = 0;
          frames = 0;
          scanline = Bytes.create (width * height * 4);
        }
  end

let charge t cycles = t.cost_cycles <- t.cost_cycles + cycles

let put t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    t.pixels.((y * t.width) + x) <- px;
    t.cost_cycles <- t.cost_cycles + cost_pixel
  end

let fill t px =
  Hw.Framebuffer.fill_pixels t.pixels 0 (Array.length t.pixels) px;
  t.cost_cycles <- t.cost_cycles + (Array.length t.pixels * cost_fill_pixel)

let fill_rect t ~x ~y ~w ~h px =
  for yy = max 0 y to min t.height (y + h) - 1 do
    let row = yy * t.width in
    for xx = max 0 x to min t.width (x + w) - 1 do
      t.pixels.(row + xx) <- px
    done
  done;
  t.cost_cycles <- t.cost_cycles + (w * h * cost_fill_pixel)

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

let text t ~x ~y ~color s =
  String.iteri
    (fun i c ->
      let g = glyph c in
      for row = 0 to 6 do
        for col = 0 to 4 do
          if g.(row) land (1 lsl (4 - col)) <> 0 then
            put t ~x:(x + (i * 6) + col) ~y:(y + row) color
        done
      done)
    s

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

(* The /dev/surface wire format: [npx] pixels as little-endian 4-byte
   words 0xffRRGGBB (opaque alpha byte; bits above 24 dropped). Raises
   [Invalid_argument] before writing anything if [npx] is negative or
   past either buffer. Two pixels go out per 64-bit word, the first in
   its low half, and an odd last pixel as one 32-bit word; the unchecked
   stores are native-endian, so a big-endian host swaps each word. *)
let pack_pixels (pixels : int array) dst npx =
  if npx < 0 || npx > Array.length pixels || npx > Bytes.length dst / 4 then
    invalid_arg "Gfx.pack_pixels";
  for k = 0 to (npx / 2) - 1 do
    let i = 2 * k in
    let w =
      Int64.logor 0xff000000_ff000000L
        (Int64.of_int
           (Array.unsafe_get pixels i land 0xffffff
           lor ((Array.unsafe_get pixels (i + 1) land 0xffffff) lsl 32)))
    in
    set64u dst (4 * i) (if Sys.big_endian then swap64 w else w)
  done;
  if npx land 1 = 1 then begin
    let w = Int32.of_int (Array.unsafe_get pixels (npx - 1) land 0xffffff lor 0xff000000) in
    set32u dst (4 * (npx - 1)) (if Sys.big_endian then swap32 w else w)
  end

(* Present the frame: push pixels out and pay the accumulated CPU bill. *)
let present t =
  t.frames <- t.frames + 1;
  (match t.mode with
  | Direct fb ->
      (* copy client buffer to the mapped framebuffer: user memmove *)
      for y = 0 to t.height - 1 do
        Hw.Framebuffer.write_row fb ~y ~off:(y * t.width) t.pixels
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
      let npx = t.width * t.height in
      pack_pixels t.pixels t.scanline npx;
      charge t (npx / 4) (* pack pixels for the surface write *);
      Usys.burn t.cost_cycles;
      t.cost_cycles <- 0;
      (* the surface write copies the frame before the task resumes, so
         the scratch buffer (exactly [npx * 4] bytes here) goes as is *)
      ignore (Usys.write fd t.scanline))

let close t =
  match t.mode with Windowed fd -> ignore (Usys.close fd) | Direct _ -> ()

let frames t = t.frames
