(** VELF — the executable format VOS loads with exec().

    In the real system exec() parses an ELF from the filesystem and copies
    its segments into a fresh address space. Here an executable file is a
    VELF image: a header naming the registered program plus segment sizes,
    padded with deterministic filler to the stated size — so load cost
    (reading the file, mapping its pages) scales with program size exactly
    as for real binaries, while the program body itself is OCaml code found
    in the program registry. *)

let magic = "VELF"
let header_bytes = 16

type t = { prog_name : string; code_bytes : int; data_bytes : int }

let total_bytes t = header_bytes + String.length t.prog_name + t.code_bytes + t.data_bytes

let code_pages t = ((t.code_bytes + t.data_bytes) / Kalloc.page_bytes) + 1

(* Header: "VELF" | name_len u32 | code u32 | data u32 | name | filler *)
let build t =
  let name_len = String.length t.prog_name in
  let image = Bytes.make (total_bytes t) '\000' in
  Bytes.blit_string magic 0 image 0 4;
  Bytes.set_int32_le image 4 (Int32.of_int name_len);
  Bytes.set_int32_le image 8 (Int32.of_int t.code_bytes);
  Bytes.set_int32_le image 12 (Int32.of_int t.data_bytes);
  Bytes.blit_string t.prog_name 0 image header_bytes name_len;
  (* deterministic filler standing in for machine code *)
  for i = header_bytes + name_len to Bytes.length image - 1 do
    Bytes.set_uint8 image i ((i * 31) land 0xff)
  done;
  image

let parse image =
  if Bytes.length image < header_bytes then Error "velf: truncated header"
  else if not (String.equal (Bytes.sub_string image 0 4) magic) then
    Error "velf: bad magic"
  else begin
    let name_len = Hw.Le.get_uint32 image 4 in
    if Bytes.length image < header_bytes + name_len then
      Error "velf: truncated name"
    else
      Ok
        {
          prog_name = Bytes.sub_string image header_bytes name_len;
          code_bytes = Hw.Le.get_uint32 image 8;
          data_bytes = Hw.Le.get_uint32 image 12;
        }
  end
