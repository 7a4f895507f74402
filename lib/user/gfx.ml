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

(* A pixel as the buffer stores it: the low 24 bits of [px], 0xRRGGBB,
   under an opaque 0xff X byte. *)
let[@inline] word px = Int32.of_int (px land 0xffffff lor 0xff000000)

let put t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    Bytes.set_int32_le t.pixels (4 * ((y * t.width) + x)) (word px);
    t.cost_cycles <- t.cost_cycles + cost_pixel
  end

(* Row 0 word by word, then every other row a copy of it. *)
let fill t px =
  let row = 4 * t.width in
  for x = 0 to t.width - 1 do
    Bytes.set_int32_le t.pixels (4 * x) (word px)
  done;
  for y = 1 to t.height - 1 do
    Bytes.blit t.pixels 0 t.pixels (y * row) row
  done;
  t.cost_cycles <- t.cost_cycles + (t.width * t.height * cost_fill_pixel)

let fill_rect t ~x ~y ~w ~h px =
  for yy = max 0 y to min t.height (y + h) - 1 do
    let row = yy * t.width in
    for xx = max 0 x to min t.width (x + w) - 1 do
      Bytes.set_int32_le t.pixels (4 * (row + xx)) (word px)
    done
  done;
  t.cost_cycles <- t.cost_cycles + (max 0 w * max 0 h * cost_fill_pixel)

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
