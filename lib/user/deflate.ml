(** DEFLATE (RFC 1951) — the decompression engine behind the PNG-style
    image loading the slider app does (the paper's userspace ports LODE
    for this; we implement the format directly).

    The inflater handles all three block types: stored, fixed-Huffman and
    dynamic-Huffman, with full LZ77 back-reference resolution. Two real
    (if unambitious) compressors are provided — stored blocks and
    fixed-Huffman literals — enough to author valid streams for assets and
    round-trip tests.

    [cycles_per_byte] lets apps charge simulated CPU for decode work. *)

let cycles_per_byte = 14 (* inflate cost on the A53, no NEON path *)

exception Corrupt of string

(* ---- bit reader, LSB first ---- *)

type reader = { data : Bytes.t; mutable pos : int; mutable bit : int }

let make_reader data = { data; pos = 0; bit = 0 }

let read_bit r =
  if r.pos >= Bytes.length r.data then raise (Corrupt "deflate: eof");
  let b = (Bytes.get_uint8 r.data r.pos lsr r.bit) land 1 in
  if r.bit = 7 then begin
    r.bit <- 0;
    r.pos <- r.pos + 1
  end
  else r.bit <- r.bit + 1;
  b

let read_bits r n =
  let v = ref 0 in
  for i = 0 to n - 1 do
    v := !v lor (read_bit r lsl i)
  done;
  !v

let align_byte r = if r.bit <> 0 then begin r.bit <- 0; r.pos <- r.pos + 1 end

(* ---- canonical Huffman decoding ----
   Decode bit-by-bit against the canonical code built from code lengths:
   at each length, codes are assigned in symbol order. *)

type huffman = { counts : int array; symbols : int array }

let build_huffman lengths =
  let max_bits = 15 in
  let counts = Array.make (max_bits + 1) 0 in
  Array.iter
    (fun l ->
      if l < 0 || l > max_bits then raise (Corrupt "deflate: bad code length");
      counts.(l) <- counts.(l) + 1)
    lengths;
  counts.(0) <- 0;
  (* over-subscription check *)
  let left = ref 1 in
  for l = 1 to max_bits do
    left := (!left * 2) - counts.(l);
    if !left < 0 then raise (Corrupt "deflate: over-subscribed code")
  done;
  let offsets = Array.make (max_bits + 2) 0 in
  for l = 1 to max_bits do
    offsets.(l + 1) <- offsets.(l) + counts.(l)
  done;
  let symbols = Array.make (Array.length lengths) 0 in
  Array.iteri
    (fun sym l ->
      if l > 0 then begin
        symbols.(offsets.(l)) <- sym;
        offsets.(l) <- offsets.(l) + 1
      end)
    lengths;
  { counts; symbols }

let decode_symbol r h =
  let code = ref 0 and first = ref 0 and index = ref 0 in
  let result = ref (-1) in
  let len = ref 1 in
  while !result < 0 do
    if !len > 15 then raise (Corrupt "deflate: bad symbol");
    code := !code lor read_bit r;
    let count = h.counts.(!len) in
    if !code - !first < count then result := h.symbols.(!index + !code - !first)
    else begin
      index := !index + count;
      first := (!first + count) lsl 1;
      code := !code lsl 1;
      incr len
    end
  done;
  !result

(* ---- inflate ---- *)

let length_base =
  [| 3; 4; 5; 6; 7; 8; 9; 10; 11; 13; 15; 17; 19; 23; 27; 31; 35; 43; 51; 59;
     67; 83; 99; 115; 131; 163; 195; 227; 258 |]

let length_extra =
  [| 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 1; 2; 2; 2; 2; 3; 3; 3; 3; 4; 4; 4; 4;
     5; 5; 5; 5; 0 |]

let dist_base =
  [| 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257; 385;
     513; 769; 1025; 1537; 2049; 3073; 4097; 6145; 8193; 12289; 16385; 24577 |]

let dist_extra =
  [| 0; 0; 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7; 8; 8; 9; 9; 10;
     10; 11; 11; 12; 12; 13; 13 |]

let fixed_lit_lengths =
  Array.init 288 (fun i ->
      if i < 144 then 8 else if i < 256 then 9 else if i < 280 then 7 else 8)

let fixed_dist_lengths = Array.make 30 5

let clen_order = [| 16; 17; 18; 0; 8; 7; 9; 6; 10; 5; 11; 4; 12; 3; 13; 2; 14; 1; 15 |]

let inflate_block r out lit_h dist_h =
  let stop = ref false in
  while not !stop do
    let sym = decode_symbol r lit_h in
    if sym < 256 then Buffer.add_char out (Char.chr sym)
    else if sym = 256 then stop := true
    else begin
      let li = sym - 257 in
      if li >= Array.length length_base then raise (Corrupt "deflate: bad length");
      let len = length_base.(li) + read_bits r length_extra.(li) in
      let dsym = decode_symbol r dist_h in
      if dsym >= Array.length dist_base then raise (Corrupt "deflate: bad dist");
      let dist = dist_base.(dsym) + read_bits r dist_extra.(dsym) in
      let have = Buffer.length out in
      if dist > have then raise (Corrupt "deflate: dist too far");
      for _ = 1 to len do
        Buffer.add_char out (Buffer.nth out (Buffer.length out - dist))
      done
    end
  done

let read_dynamic_tables r =
  let hlit = read_bits r 5 + 257 in
  let hdist = read_bits r 5 + 1 in
  let hclen = read_bits r 4 + 4 in
  let clen_lengths = Array.make 19 0 in
  for i = 0 to hclen - 1 do
    clen_lengths.(clen_order.(i)) <- read_bits r 3
  done;
  let clen_h = build_huffman clen_lengths in
  let lengths = Array.make (hlit + hdist) 0 in
  let i = ref 0 in
  while !i < hlit + hdist do
    let sym = decode_symbol r clen_h in
    if sym < 16 then begin
      lengths.(!i) <- sym;
      incr i
    end
    else if sym = 16 then begin
      if !i = 0 then raise (Corrupt "deflate: repeat at start");
      let prev = lengths.(!i - 1) in
      let n = 3 + read_bits r 2 in
      for _ = 1 to n do
        if !i >= hlit + hdist then raise (Corrupt "deflate: repeat overflow");
        lengths.(!i) <- prev;
        incr i
      done
    end
    else begin
      let n = if sym = 17 then 3 + read_bits r 3 else 11 + read_bits r 7 in
      i := !i + n;
      if !i > hlit + hdist then raise (Corrupt "deflate: zero-run overflow")
    end
  done;
  let lit_h = build_huffman (Array.sub lengths 0 hlit) in
  let dist_h = build_huffman (Array.sub lengths hlit hdist) in
  (lit_h, dist_h)

let inflate data =
  let r = make_reader data in
  let out = Buffer.create (Bytes.length data * 3) in
  let final = ref false in
  while not !final do
    final := read_bit r = 1;
    let btype = read_bits r 2 in
    match btype with
    | 0 ->
        align_byte r;
        if r.pos + 4 > Bytes.length r.data then raise (Corrupt "deflate: stored header");
        let len =
          Bytes.get_uint8 r.data r.pos lor (Bytes.get_uint8 r.data (r.pos + 1) lsl 8)
        in
        let nlen =
          Bytes.get_uint8 r.data (r.pos + 2)
          lor (Bytes.get_uint8 r.data (r.pos + 3) lsl 8)
        in
        if len land 0xffff <> lnot nlen land 0xffff then
          raise (Corrupt "deflate: stored len check");
        r.pos <- r.pos + 4;
        if r.pos + len > Bytes.length r.data then raise (Corrupt "deflate: stored eof");
        Buffer.add_subbytes out r.data r.pos len;
        r.pos <- r.pos + len
    | 1 ->
        inflate_block r out
          (build_huffman fixed_lit_lengths)
          (build_huffman fixed_dist_lengths)
    | 2 ->
        let lit_h, dist_h = read_dynamic_tables r in
        inflate_block r out lit_h dist_h
    | _ -> raise (Corrupt "deflate: bad block type")
  done;
  Buffer.to_bytes out

(* ---- compressors ---- *)

(* Stored blocks: valid DEFLATE, ratio 1. *)
let compress_stored data =
  let out = Buffer.create (Bytes.length data + 16) in
  let len = Bytes.length data in
  let pos = ref 0 in
  let emit_block last chunk_len =
    Buffer.add_char out (if last then '\001' else '\000');
    Buffer.add_char out (Char.chr (chunk_len land 0xff));
    Buffer.add_char out (Char.chr ((chunk_len lsr 8) land 0xff));
    Buffer.add_char out (Char.chr (lnot chunk_len land 0xff));
    Buffer.add_char out (Char.chr ((lnot chunk_len lsr 8) land 0xff));
    Buffer.add_subbytes out data !pos chunk_len;
    pos := !pos + chunk_len
  in
  if len = 0 then emit_block true 0
  else
    while !pos < len do
      let chunk = min 65535 (len - !pos) in
      emit_block (!pos + chunk >= len) chunk
    done;
  Buffer.to_bytes out

(* Fixed-Huffman literals (no matches): a real entropy coder; compresses
   ASCII-ish data slightly, valid everywhere. [fixed_codes] holds RFC
   1951's fixed code of each literal and of end-of-block as
   [(bit-reversed code lsl 4) lor length]: Huffman codes go out
   MSB-first, so the reversed code can be packed LSB-first like every
   other field. *)
let fixed_codes =
  let reverse code n =
    let r = ref 0 in
    for i = 0 to n - 1 do
      if code land (1 lsl i) <> 0 then r := !r lor (1 lsl (n - 1 - i))
    done;
    !r
  in
  Array.init 257 (fun sym ->
      let code, n =
        if sym < 144 then (0x30 + sym, 8)
        else if sym < 256 then (0x190 + sym - 144, 9)
        else (sym - 256, 7)
      in
      (reverse code n lsl 4) lor n)

let compress_fixed data =
  let out = Buffer.create 1024 in
  (* pending bits, LSB first; fewer than 8 between symbols *)
  let acc = ref 0 and nbits = ref 0 in
  let put code_len =
    acc := !acc lor ((code_len lsr 4) lsl !nbits);
    nbits := !nbits + (code_len land 0xf);
    while !nbits >= 8 do
      Buffer.add_char out (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      nbits := !nbits - 8
    done
  in
  (* final block, type 01 (fixed), LSB first *)
  put ((0b011 lsl 4) lor 3);
  for i = 0 to Bytes.length data - 1 do
    put fixed_codes.(Bytes.get_uint8 data i)
  done;
  put fixed_codes.(256);
  if !nbits > 0 then Buffer.add_char out (Char.unsafe_chr !acc);
  Buffer.to_bytes out
