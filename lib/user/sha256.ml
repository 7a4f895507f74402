(** SHA-256 (FIPS 180-4) — the blockchain miner's proof-of-work hash.
    A real implementation, verified against the standard test vectors in
    the test suite. Words are native OCaml ints holding 32-bit values, so
    the rounds never box: every sum is masked back to 32 bits before it
    feeds a rotate.

    The rotates run on a duplicated word [d = x lor (x lsl 32)]. Bit [j]
    of [d] is bit [j mod 32] of [x] for every [j <= 62], the top bit of a
    63-bit int, so [(d lsr n) land mask] is exactly [rotr x n] whenever
    bits [n .. n+31] all stay at or below 62, i.e. for [n <= 31]. Each
    Σ/σ function therefore builds [d] once, shifts it three times and
    masks once. *)

let cycles_per_block = 2_600 (* one 64-byte compression on the A53 *)

let mask = 0xffff_ffff

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
     0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 2) lxor (d lsr 13) lxor (d lsr 22)) land mask

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 6) lxor (d lsr 11) lxor (d lsr 25)) land mask

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 7) lxor (d lsr 18) lxor (x lsr 3)) land mask

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 17) lxor (d lsr 19) lxor (x lsr 10)) land mask

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))

(* One 64-byte block at [off] of [data] into [state] (8 words), using
   [w] (64 words) as the message schedule. Both arrays belong to the
   caller, so hashing allocates nothing here. *)
let compress state w data off =
  for i = 0 to 15 do
    let o = off + (4 * i) in
    w.(i) <- (Bytes.get_uint16_be data o lsl 16) lor Bytes.get_uint16_be data (o + 2)
  done;
  for i = 16 to 63 do
    w.(i) <-
      (w.(i - 16) + small_sigma0 w.(i - 15) + w.(i - 7) + small_sigma1 w.(i - 2))
      land mask
  done;
  let a = ref state.(0) and b = ref state.(1) and c = ref state.(2) in
  let d = ref state.(3) and e = ref state.(4) and f = ref state.(5) in
  let g = ref state.(6) and h = ref state.(7) in
  (* Eight rounds per iteration. Instead of shifting a..h down each
     round, the names rotate: a round only writes the word that becomes
     the next round's [e] (into the old [d]) and its [a] (into the old
     [h]), and after eight rounds every name is back in place. *)
  let i = ref 0 in
  while !i < 64 do
    let r = !i in
    let t = !h + big_sigma1 !e + ch !e !f !g + k.(r) + w.(r) in
    d := (!d + t) land mask;
    h := (t + big_sigma0 !a + maj !a !b !c) land mask;
    let t = !g + big_sigma1 !d + ch !d !e !f + k.(r + 1) + w.(r + 1) in
    c := (!c + t) land mask;
    g := (t + big_sigma0 !h + maj !h !a !b) land mask;
    let t = !f + big_sigma1 !c + ch !c !d !e + k.(r + 2) + w.(r + 2) in
    b := (!b + t) land mask;
    f := (t + big_sigma0 !g + maj !g !h !a) land mask;
    let t = !e + big_sigma1 !b + ch !b !c !d + k.(r + 3) + w.(r + 3) in
    a := (!a + t) land mask;
    e := (t + big_sigma0 !f + maj !f !g !h) land mask;
    let t = !d + big_sigma1 !a + ch !a !b !c + k.(r + 4) + w.(r + 4) in
    h := (!h + t) land mask;
    d := (t + big_sigma0 !e + maj !e !f !g) land mask;
    let t = !c + big_sigma1 !h + ch !h !a !b + k.(r + 5) + w.(r + 5) in
    g := (!g + t) land mask;
    c := (t + big_sigma0 !d + maj !d !e !f) land mask;
    let t = !b + big_sigma1 !g + ch !g !h !a + k.(r + 6) + w.(r + 6) in
    f := (!f + t) land mask;
    b := (t + big_sigma0 !c + maj !c !d !e) land mask;
    let t = !a + big_sigma1 !f + ch !f !g !h + k.(r + 7) + w.(r + 7) in
    e := (!e + t) land mask;
    a := (t + big_sigma0 !b + maj !b !c !d) land mask;
    i := r + 8
  done;
  state.(0) <- (state.(0) + !a) land mask;
  state.(1) <- (state.(1) + !b) land mask;
  state.(2) <- (state.(2) + !c) land mask;
  state.(3) <- (state.(3) + !d) land mask;
  state.(4) <- (state.(4) + !e) land mask;
  state.(5) <- (state.(5) + !f) land mask;
  state.(6) <- (state.(6) + !g) land mask;
  state.(7) <- (state.(7) + !h) land mask

(* Compression blocks for a message of [len] bytes — the cost model of
   [digest_with_blocks] without hashing anything, so callers can price
   work before (or without) doing it. *)
let blocks_of_length len = ((len + 8) / 64) + 1

(* Pads the [len]-byte message at the start of [buf] in place (which
   must hold [64 * blocks_of_length len] bytes), hashes it into [state]
   from the initial value, and returns the block count. *)
let absorb state w buf len =
  let nblocks = blocks_of_length len in
  let total = nblocks * 64 in
  Bytes.set_uint8 buf len 0x80;
  Bytes.fill buf (len + 1) (total - len - 9) '\000';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    Bytes.set_uint8 buf (total - 1 - i) ((bitlen lsr (8 * i)) land 0xff)
  done;
  Array.blit iv 0 state 0 8;
  for b = 0 to nblocks - 1 do
    compress state w buf (b * 64)
  done;
  nblocks

(* The state as the 32-byte big-endian digest, at the start of [out]. *)
let store state out =
  for i = 0 to 7 do
    Bytes.set_uint16_be out (4 * i) (state.(i) lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (state.(i) land 0xffff)
  done

(* Returns (digest, blocks processed) so callers can charge cycles. *)
let digest_with_blocks input =
  let len = Bytes.length input in
  let buf = Bytes.create (64 * blocks_of_length len) in
  Bytes.blit input 0 buf 0 len;
  let state = Array.make 8 0 in
  let nblocks = absorb state (Array.make 64 0) buf len in
  let out = Bytes.create 32 in
  store state out;
  (out, nblocks)

let digest input = fst (digest_with_blocks input)

let hex digest =
  String.concat ""
    (List.init (Bytes.length digest) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 digest i)))

(* Count leading zero bits, the miner's difficulty test. *)
let leading_zero_bits digest =
  let rec go i acc =
    if i >= Bytes.length digest then acc
    else begin
      let byte = Bytes.get_uint8 digest i in
      if byte = 0 then go (i + 1) (acc + 8)
      else begin
        let rec bits b n = if b land 0x80 <> 0 then n else bits (b lsl 1) (n + 1) in
        acc + bits byte 0
      end
    end
  in
  go 0 0

(* ---- scratch: many short messages, no allocation per hash ---- *)

(* Everything [double] touches. The fields are never reassigned, only
   written through, so a scratch is safe to hand to a helper on a
   worker domain as long as the domain allocated it. *)
type scratch = {
  state : int array;  (** 8 words: the result of the last [double] *)
  sched : int array;  (** 64-word message schedule *)
  msg : Bytes.t;  (** the caller writes the message at offset 0 *)
  second : Bytes.t;  (** the second round's one block, padding preset *)
}

(* A scratch for messages of up to [max_len] bytes. *)
let scratch max_len =
  let second = Bytes.make 64 '\000' in
  Bytes.set_uint8 second 32 0x80;
  Bytes.set_uint16_be second 62 256;
  {
    state = Array.make 8 0;
    sched = Array.make 64 0;
    msg = Bytes.create (64 * blocks_of_length max_len);
    second;
  }

(* [sha256 (sha256 m)] of the [len]-byte message at the start of
   [s.msg], left in [s.state]; the bytes after [m] are overwritten by
   its padding. The second round's input is the first digest: 32 bytes,
   one block whose padding never changes. *)
let double s len =
  ignore (absorb s.state s.sched s.msg len);
  store s.state s.second;
  Array.blit iv 0 s.state 0 8;
  compress s.state s.sched s.second 0

let rec clz32 x n = if x land 0x8000_0000 <> 0 then n else clz32 (x lsl 1) (n + 1)

let rec zero_words state i =
  if i = 8 then 256
  else if state.(i) = 0 then zero_words state (i + 1)
  else (32 * i) + clz32 state.(i) 0

(* [leading_zero_bits] of the digest [double] left, read off the state
   words without materializing it. *)
let zero_bits s = zero_words s.state 0

(* The digest [double] left, as bytes — the miner wants it only for a
   winner. *)
let result s =
  let out = Bytes.create 32 in
  store s.state out;
  out
