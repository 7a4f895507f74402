type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = create (next t)

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let float t bound =
  (* 53 bits of mantissa from the top of the raw value. *)
  let raw = Int64.shift_right_logical (next t) 11 in
  Int64.to_float raw /. 9007199254740992.0 *. bound

let bool t p = float t 1.0 < p
