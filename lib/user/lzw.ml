(** LZW with variable-width codes — the GIF compression scheme, used by
    the slider's GIF-lite decoder. Both directions are implemented: the
    encoder mirrors what GIF authoring tools emit (code widths growing
    from [min_code_size]+1 up to 12 bits, clear and end codes), the
    decoder is the standard table-rebuilding loop. *)

let cycles_per_byte = 9

exception Corrupt of string

let max_bits = 12

(* ---- encode ---- *)

(* The code table maps (prefix code, next byte) to the code of the
   longer string, keyed by [(prefix lsl 8) lor byte]: every string in
   the table is a coded prefix plus one byte, so the key names it. *)
module Codes = Hashtbl.Make (Int)

let encode ~min_code_size data =
  assert (min_code_size >= 2 && min_code_size <= 8);
  let clear_code = 1 lsl min_code_size in
  let end_code = clear_code + 1 in
  let out = Buffer.create (Bytes.length data) in
  let bitbuf = ref 0 and bitcnt = ref 0 in
  let code_size = ref (min_code_size + 1) in
  let emit code =
    bitbuf := !bitbuf lor (code lsl !bitcnt);
    bitcnt := !bitcnt + !code_size;
    while !bitcnt >= 8 do
      Buffer.add_char out (Char.chr (!bitbuf land 0xff));
      bitbuf := !bitbuf lsr 8;
      bitcnt := !bitcnt - 8
    done
  in
  let table = Codes.create 4096 in
  let next_code = ref (end_code + 1) in
  let reset_table () =
    Codes.clear table;
    next_code := end_code + 1;
    code_size := min_code_size + 1
  in
  reset_table ();
  emit clear_code;
  let n = Bytes.length data in
  if n > 0 then begin
    (* the code of the string matched so far; a single byte is its own *)
    let prefix = ref (Bytes.get_uint8 data 0) in
    (* The width check rides each emit and runs *before* the pending
       table insert. At that instant the decoder (whose insert for this
       code also hasn't happened yet) counts exactly as many entries, so
       the two sides widen for the same code — including the clear/end
       codes, which follow an emit with no insert of their own. Checking
       after the insert instead desynced the end code's width whenever
       the final data code landed on a power-of-two boundary. *)
    let emit_prefix code =
      emit code;
      if !next_code >= 1 lsl !code_size && !code_size < max_bits then
        incr code_size
    in
    for i = 1 to n - 1 do
      let c = Bytes.get_uint8 data i in
      let key = (!prefix lsl 8) lor c in
      match Codes.find_opt table key with
      | Some code -> prefix := code
      | None ->
          emit_prefix !prefix;
          if !next_code < 1 lsl max_bits then begin
            Codes.replace table key !next_code;
            incr next_code
          end
          else begin
            emit clear_code;
            reset_table ()
          end;
          prefix := c
    done;
    emit_prefix !prefix
  end;
  emit end_code;
  if !bitcnt > 0 then Buffer.add_char out (Char.chr (!bitbuf land 0xff));
  Buffer.to_bytes out

(* ---- decode ---- *)

let decode ~min_code_size data =
  let clear_code = 1 lsl min_code_size in
  let end_code = clear_code + 1 in
  let out = Buffer.create (Bytes.length data * 3) in
  let pos = ref 0 and bitbuf = ref 0 and bitcnt = ref 0 in
  let code_size = ref (min_code_size + 1) in
  let read_code () =
    while !bitcnt < !code_size do
      if !pos >= Bytes.length data then raise (Corrupt "lzw: eof");
      bitbuf := !bitbuf lor (Bytes.get_uint8 data !pos lsl !bitcnt);
      bitcnt := !bitcnt + 8;
      incr pos
    done;
    let code = !bitbuf land ((1 lsl !code_size) - 1) in
    bitbuf := !bitbuf lsr !code_size;
    bitcnt := !bitcnt - !code_size;
    code
  in
  (* table: code -> byte list *)
  let table = Array.make (1 lsl max_bits) None in
  let next_code = ref (end_code + 1) in
  let reset_table () =
    Array.fill table 0 (Array.length table) None;
    for i = 0 to clear_code - 1 do
      table.(i) <- Some [ i ]
    done;
    next_code := end_code + 1;
    code_size := min_code_size + 1
  in
  reset_table ();
  let prev = ref None in
  let stop = ref false in
  while not !stop do
    let code = read_code () in
    if code = end_code then stop := true
    else if code = clear_code then begin
      reset_table ();
      prev := None
    end
    else begin
      let entry =
        match table.(code) with
        | Some seq -> seq
        | None -> (
            (* the KwKwK case *)
            match !prev with
            | Some p when code = !next_code -> p @ [ List.hd p ]
            | Some _ | None -> raise (Corrupt "lzw: bad code"))
      in
      List.iter (fun b -> Buffer.add_char out (Char.chr b)) entry;
      (match !prev with
      | Some p when !next_code < 1 lsl max_bits ->
          table.(!next_code) <- Some (p @ [ List.hd entry ]);
          incr next_code;
          (* post-insert here lines up with the encoder's pre-insert
             check: the decoder's insert for code k happens one code
             later than the encoder's, so both see the same table size
             when deciding the width of code k+1 *)
          if !next_code >= 1 lsl !code_size && !code_size < max_bits then
            incr code_size
      | Some _ | None -> ());
      prev := Some entry
    end
  done;
  Buffer.to_bytes out
