(* fixture kernel module committing one sin per rule *)
let uses (c : Kconfig.t) = c.Kconfig.knob_used && c.Kconfig.knob_undoc

let explode () = failwith "R003: kernel code must not throw this"

let check n = if n < 0 then invalid_arg "R003 again"

let state_name = function Task.Runnable -> "runnable" | _ -> "?"

let event_char = function Ktrace.Tick -> 't' | _ -> '?'

let bucket = function Task.Sleeping -> 0 | _ -> 1
