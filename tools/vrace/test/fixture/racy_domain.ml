(* R102: non-atomic mutable state shared with worker domains. *)

type cell = { mutable hits : int }

let shared = { hits = 0 }

(* findings: the spawned closure reads and writes [shared.hits] without
   Atomic or a mutex *)
let bad_spawn () =
  let d = Domain.spawn (fun () -> shared.hits <- shared.hits + 1) in
  Domain.join d

(* finding: [@vrace.worker] marks a lambda that some pool will run on a
   worker domain even though no spawn is visible here *)
let bad_marked () =
  let worker = (fun () -> shared.hits <- 0) [@vrace.worker] in
  worker ()

(* correct: domain-confined state allocated inside the closure *)
let good_spawn () =
  let d =
    Domain.spawn (fun () ->
        let local = { hits = 0 } in
        local.hits <- 1;
        local.hits)
  in
  Domain.join d

let scratch = Array.make 4 0

let fill a = a.(1) <- 2

(* finding: [fill] mutates its parameter, so handing it the module-level
   [scratch] from a worker closure is the same race as writing
   [scratch.(1)] in the closure itself *)
let bad_scratch () =
  let d = Domain.spawn (fun () -> fill scratch; scratch.(0)) in
  Domain.join d

(* correct: the scratch [fill] mutates is allocated inside the closure *)
let good_scratch () =
  let d =
    Domain.spawn (fun () ->
        let local = Array.make 4 0 in
        fill local;
        local.(1))
  in
  Domain.join d
