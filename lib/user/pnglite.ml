(** PNG-lite — the reproduction's LODE stand-in: a PNG-shaped container
    (magic, width/height header, DEFLATE-compressed filtered scanlines,
    checksum) with real decompression work on the load path. It keeps
    PNG's Sub filter per scanline so the compressor has structure to
    exploit, and an Adler-32 integrity check as in zlib. *)

let magic = "PNGL"

type image = Bmp.image = { width : int; height : int; pixels : int array }

let adler32 data =
  let a = ref 1 and b = ref 0 in
  Bytes.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    data;
  (!b lsl 16) lor !a

(* Sub filter: each byte minus the previous pixel's same channel. *)
let filter_scanlines ~width ~height raw =
  let bpp = 3 in
  let stride = width * bpp in
  let out = Bytes.create (Bytes.length raw) in
  for row = 0 to height - 1 do
    for i = 0 to stride - 1 do
      let cur = Bytes.get_uint8 raw ((row * stride) + i) in
      let left = if i >= bpp then Bytes.get_uint8 raw ((row * stride) + i - bpp) else 0 in
      Bytes.set_uint8 out ((row * stride) + i) ((cur - left) land 0xff)
    done
  done;
  out

let unfilter_scanlines ~width ~height filtered =
  let bpp = 3 in
  let stride = width * bpp in
  let out = Bytes.create (Bytes.length filtered) in
  for row = 0 to height - 1 do
    for i = 0 to stride - 1 do
      let v = Bytes.get_uint8 filtered ((row * stride) + i) in
      let left = if i >= bpp then Bytes.get_uint8 out ((row * stride) + i - bpp) else 0 in
      Bytes.set_uint8 out ((row * stride) + i) ((v + left) land 0xff)
    done
  done;
  out

let encode ?(compressor = Deflate.compress_fixed) img =
  let raw = Bytes.create (img.width * img.height * 3) in
  Array.iteri
    (fun i px ->
      Bytes.set_uint8 raw (3 * i) ((px lsr 16) land 0xff);
      Bytes.set_uint8 raw ((3 * i) + 1) ((px lsr 8) land 0xff);
      Bytes.set_uint8 raw ((3 * i) + 2) (px land 0xff))
    img.pixels;
  let filtered = filter_scanlines ~width:img.width ~height:img.height raw in
  let payload = compressor filtered in
  let out = Bytes.make (20 + Bytes.length payload) '\000' in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.set_int32_le out 4 (Int32.of_int img.width);
  Bytes.set_int32_le out 8 (Int32.of_int img.height);
  Bytes.set_int32_le out 12 (Int32.of_int (adler32 raw));
  Bytes.set_int32_le out 16 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 out 20 (Bytes.length payload);
  out

let decode data =
  if Bytes.length data < 20 || not (String.equal (Bytes.sub_string data 0 4) magic)
  then Error "pnglite: bad magic"
  else begin
    let width = Hw.Le.get_uint32 data 4 and height = Hw.Le.get_uint32 data 8 in
    let checksum = Hw.Le.get_uint32 data 12 in
    let plen = Hw.Le.get_uint32 data 16 in
    if width <= 0 || height <= 0 || width > 8192 || height > 8192 then
      Error "pnglite: bad dimensions"
    else if Bytes.length data < 20 + plen then Error "pnglite: truncated"
    else begin
      match Deflate.inflate (Bytes.sub data 20 plen) with
      | exception Deflate.Corrupt msg -> Error msg
      | filtered ->
          if Bytes.length filtered <> width * height * 3 then
            Error "pnglite: wrong payload size"
          else begin
            let raw = unfilter_scanlines ~width ~height filtered in
            if adler32 raw <> checksum then Error "pnglite: checksum mismatch"
            else begin
              let pixels =
                Array.init (width * height) (fun i ->
                    (Bytes.get_uint8 raw (3 * i) lsl 16)
                    lor (Bytes.get_uint8 raw ((3 * i) + 1) lsl 8)
                    lor Bytes.get_uint8 raw ((3 * i) + 2))
              in
              Ok { width; height; pixels }
            end
          end
    end
  end

(* Decode cost: inflate + unfilter + pixel packing. *)
let decode_cycles ~payload_bytes ~pixels =
  (payload_bytes * Deflate.cycles_per_byte) + (pixels * 4)
