(* R008: module-level mutable state, flagged at any module depth *)
let next_id = ref 0
let names : (int, string) Hashtbl.t = Hashtbl.create 8
let per_domain = Stdlib.Domain.DLS.new_key (fun () -> 0)

module Inner = struct
  let scratch = Bytes.create 16
end

(* not flagged: a function makes fresh state per call, and an immutable
   table built once is not state *)
let counter () = ref 0
let squares = Array.init 4 (fun i -> i * i)
