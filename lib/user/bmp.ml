(** BMP (Windows BITMAPINFOHEADER, 24bpp) — a real codec for the slider's
    slide decks: users drop BMPs onto the FAT partition from any OS. *)

type image = { width : int; height : int; pixels : int array }

let row_stride width = (width * 3 + 3) / 4 * 4

let encode img =
  let stride = row_stride img.width in
  let data_bytes = stride * img.height in
  let file_bytes = 54 + data_bytes in
  let out = Bytes.make file_bytes '\000' in
  Bytes.set out 0 'B';
  Bytes.set out 1 'M';
  Bytes.set_int32_le out 2 (Int32.of_int file_bytes);
  Bytes.set_int32_le out 10 54l (* pixel data offset *);
  Bytes.set_int32_le out 14 40l (* BITMAPINFOHEADER *);
  Bytes.set_int32_le out 18 (Int32.of_int img.width);
  Bytes.set_int32_le out 22 (Int32.of_int img.height);
  Bytes.set_uint16_le out 26 1 (* planes *);
  Bytes.set_uint16_le out 28 24 (* bpp *);
  Bytes.set_int32_le out 34 (Int32.of_int data_bytes);
  (* rows bottom-up, BGR *)
  for row = 0 to img.height - 1 do
    let src_row = img.height - 1 - row in
    for col = 0 to img.width - 1 do
      let px = img.pixels.((src_row * img.width) + col) in
      let off = 54 + (row * stride) + (col * 3) in
      Bytes.set_uint8 out off (px land 0xff);
      Bytes.set_uint8 out (off + 1) ((px lsr 8) land 0xff);
      Bytes.set_uint8 out (off + 2) ((px lsr 16) land 0xff)
    done
  done;
  out

let decode data =
  if Bytes.length data < 54 then Error "bmp: truncated header"
  else if Bytes.get data 0 <> 'B' || Bytes.get data 1 <> 'M' then
    Error "bmp: bad magic"
  else begin
    let offset = Hw.Le.get_uint32 data 10 in
    let width = Hw.Le.get_uint32 data 18 and height = Hw.Le.get_uint32 data 22 in
    let bpp = Bytes.get_uint16_le data 28 in
    if bpp <> 24 then Error "bmp: only 24bpp supported"
    else if width <= 0 || height <= 0 || width > 8192 || height > 8192 then
      Error "bmp: bad dimensions"
    else begin
      let stride = row_stride width in
      if Bytes.length data < offset + (stride * height) then
        Error "bmp: truncated pixels"
      else begin
        let pixels = Array.make (width * height) 0 in
        for row = 0 to height - 1 do
          let src_row = height - 1 - row in
          for col = 0 to width - 1 do
            let off = offset + (src_row * stride) + (col * 3) in
            pixels.((row * width) + col) <-
              Bytes.get_uint8 data off
              lor (Bytes.get_uint8 data (off + 1) lsl 8)
              lor (Bytes.get_uint8 data (off + 2) lsl 16)
          done
        done;
        Ok { width; height; pixels }
      end
    end
  end
