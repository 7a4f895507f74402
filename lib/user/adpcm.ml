(** IMA ADPCM — the audio codec behind "VOGG" files, the reproduction's
    stand-in for OGG/Vorbis (see DESIGN.md's substitution table). 4 bits
    per sample, real step-size adaptation; what matters for the paper's
    pipeline is that decode does genuine per-sample work feeding the
    /dev/sb producer-consumer chain. *)

let cycles_per_sample = 28 (* decode cost, scalar A53 *)

let step_table =
  [| 7; 8; 9; 10; 11; 12; 13; 14; 16; 17; 19; 21; 23; 25; 28; 31; 34; 37;
     41; 45; 50; 55; 60; 66; 73; 80; 88; 97; 107; 118; 130; 143; 157; 173;
     190; 209; 230; 253; 279; 307; 337; 371; 408; 449; 494; 544; 598; 658;
     724; 796; 876; 963; 1060; 1166; 1282; 1411; 1552; 1707; 1878; 2066;
     2272; 2499; 2749; 3024; 3327; 3660; 4026; 4428; 4871; 5358; 5894;
     6484; 7132; 7845; 8630; 9493; 10442; 11487; 12635; 13899; 15289;
     16818; 18500; 20350; 22385; 24623; 27086; 29794; 32767 |]

let index_table = [| -1; -1; -1; -1; 2; 4; 6; 8; -1; -1; -1; -1; 2; 4; 6; 8 |]

let clamp lo hi (v : int) = if v < lo then lo else if v > hi then hi else v

type state = { mutable predictor : int; mutable step_index : int }

let fresh_state () = { predictor = 0; step_index = 0 }

let encode_sample st sample =
  let step = step_table.(st.step_index) in
  let diff = sample - st.predictor in
  let nibble = ref (if diff < 0 then 8 else 0) in
  let diff = abs diff in
  let d = ref diff and delta = ref (step lsr 3) in
  if !d >= step then begin
    nibble := !nibble lor 4;
    d := !d - step;
    delta := !delta + step
  end;
  if !d >= step lsr 1 then begin
    nibble := !nibble lor 2;
    d := !d - (step lsr 1);
    delta := !delta + (step lsr 1)
  end;
  if !d >= step lsr 2 then begin
    nibble := !nibble lor 1;
    delta := !delta + (step lsr 2)
  end;
  st.predictor <-
    clamp (-32768) 32767
      (if !nibble land 8 <> 0 then st.predictor - !delta
       else st.predictor + !delta);
  st.step_index <- clamp 0 88 (st.step_index + index_table.(!nibble));
  !nibble

let decode_nibble st nibble =
  let step = step_table.(st.step_index) in
  let delta = ref (step lsr 3) in
  if nibble land 4 <> 0 then delta := !delta + step;
  if nibble land 2 <> 0 then delta := !delta + (step lsr 1);
  if nibble land 1 <> 0 then delta := !delta + (step lsr 2);
  st.predictor <-
    clamp (-32768) 32767
      (if nibble land 8 <> 0 then st.predictor - !delta
       else st.predictor + !delta);
  st.step_index <- clamp 0 88 (st.step_index + index_table.(nibble));
  st.predictor

(* Encode 16-bit samples to packed nibbles (low nibble first). *)
let encode samples =
  let st = fresh_state () in
  let n = Array.length samples in
  let out = Bytes.make ((n + 1) / 2) '\000' in
  for i = 0 to n - 1 do
    let nib = encode_sample st samples.(i) in
    let byte = Bytes.get_uint8 out (i / 2) in
    Bytes.set_uint8 out (i / 2)
      (if i land 1 = 0 then byte lor nib else byte lor (nib lsl 4))
  done;
  out

let decode data ~samples =
  let st = fresh_state () in
  Array.init samples (fun i ->
      let byte = Bytes.get_uint8 data (i / 2) in
      let nib = if i land 1 = 0 then byte land 0xf else byte lsr 4 in
      decode_nibble st nib)

(* ---- the VOGG container: header + nibble payload ---- *)

let magic = "VOGG"

let pack ~rate samples =
  let payload = encode samples in
  let n = Array.length samples in
  let out = Bytes.make (16 + Bytes.length payload) '\000' in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.set_int32_le out 4 (Int32.of_int rate);
  Bytes.set_int32_le out 8 (Int32.of_int n);
  Bytes.blit payload 0 out 16 (Bytes.length payload);
  out

let unpack data =
  if Bytes.length data < 16 || not (String.equal (Bytes.sub_string data 0 4) magic)
  then Error "vogg: bad magic"
  else begin
    let rate = Hw.Le.get_uint32 data 4 and n = Hw.Le.get_uint32 data 8 in
    if Bytes.length data < 16 + ((n + 1) / 2) then Error "vogg: truncated"
    else Ok (rate, n, Bytes.sub data 16 (Bytes.length data - 16))
  end
