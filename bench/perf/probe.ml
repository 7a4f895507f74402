(** A host-speed probe, used to express measured host time in
    reference-host seconds.

    The benchmark host (a shared 2-vCPU VM) runs at full speed only part
    of the time. For stretches of 0.1 s to minutes it runs at 0.5–0.9 of
    that, and user+sys CPU time stretches with wall time. Whole-run
    totals varied by 10–30% between identical runs. So the benchmark
    times a fixed piece of OCaml work right before each measured chunk,
    and scales the chunk by how much slower than the reference the probe
    ran:

    {v chunk_ref = chunk_measured * reference / probe v}

    The probe is allocation-free, so it leaves the GC and the minor-word
    counts alone. It mixes the operations the simulator spends its time
    on: hash lookups, a closure-driven list fold, string compares,
    streaming writes through fresh memory like allocation, and an
    integer multiply-accumulate loop like the codecs' transforms. Both
    halves take about the same time: on the reference host the first tracked the
    kernel-bound workloads best and the second the codec-bound ones. Its
    data is built once at start-up and is the same in every commit, so a
    change to the simulator cannot change what the probe measures.

    Single-thread only: it sees the speed of the vCPU it runs on, which
    is why every workload runs at [sim_domains = 1]. *)

(* the probe's median time on the reference host, a 2-vCPU x86 VM, at
   full speed *)
let reference = 4.5e-4

let keys = Hashtbl.create 4096
let () = for i = 0 to 2999 do Hashtbl.replace keys (i * 7) (string_of_int i) done
let items = List.init 3000 Fun.id
let strings = Array.init 256 (fun i -> string_of_int (i * 7919))
let scratch : int array = Array.make 262144 0
let cursor = ref 0
let coeffs = Array.init 4096 (fun i -> (i * 37) land 255)

let work () =
  let acc = ref 0 in
  let base = !cursor in
  for i = 0 to 4095 do
    Array.unsafe_set scratch ((base + i) land 262143) (i + !acc)
  done;
  cursor := (base + 4096) land 262143;
  for i = 0 to 5999 do
    if Hashtbl.mem keys (i * 7 / 2) then incr acc
  done;
  acc := List.fold_left (fun a x -> a + (x land 7)) !acc items;
  for i = 0 to 1499 do
    if String.compare strings.(i land 255) strings.((i * 13) land 255) < 0 then incr acc
  done;
  for r = 0 to 40 do
    for i = 0 to 4095 do
      acc := !acc + ((coeffs.(i) * ((i land 15) + r)) asr 3)
    done
  done;
  ignore (Sys.opaque_identity !acc)

(** [run ()] times one probe, in seconds. *)
let run () =
  let t0 = Span.now () in
  work ();
  Span.now () -. t0

(** [scale probe] converts host seconds measured while the probe took
    [probe] seconds into reference-host seconds. *)
let scale probe = reference /. Float.max probe 1e-6
