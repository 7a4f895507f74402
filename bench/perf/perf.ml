(** perfbench: the host cost of running VOS workloads, end to end and
    layer by layer.

    {v
    perf.exe [WORKLOAD] [--workload W] [--seed N] [--seconds S]
             [--trace [0|1]] [--smoke] [--root DIR]
    v}

    With no workload all four run, one after another. Each run happens
    in fresh child processes of this executable: untraced, one child
    does set-up and the timed phase and two more children repeat only
    the set-up, so [setup_s] is a median of three; traced ([--trace]),
    one untraced child gives the reference rate and digest and a traced
    child gives the per-layer metrics and writes
    [BENCH_perf_<workload>.trace.json]. The run writes [BENCH_perf.json]
    and prints, as its last line, one JSON object:
    [{"correct", "attempted", "failed", "metrics"}].

    [--smoke] runs every workload at smoke length in this process,
    untraced and traced, plus the held-out seed once, and fails unless
    the smoke goldens
    match, traced and untraced digests agree and every metric named in
    BENCHMARK.json is printed. [--root] is the repository root holding
    BENCHMARK.json and bench/perf (default: the current directory). *)

let default_seed = 42
let heldout_seed = 7
let setup_samples = 3

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  root : string;
  child : string option;  (** internal: "run" or "setup" *)
}

let usage () =
  prerr_endline
    "usage: perf.exe [miner|media|desktop|fuzz] [--workload W] [--seed N] \
     [--seconds S] [--trace [0|1]] [--smoke] [--root DIR]";
  exit 2

let parse argv =
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> go { o with seed = int_arg n } rest
    | "--seconds" :: n :: rest -> go { o with seconds = int_arg n } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest | "--trace" :: rest -> go { o with trace = true } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--root" :: d :: rest -> go { o with root = d } rest
    | "--child" :: c :: rest -> go { o with child = Some c } rest
    | w :: rest when Workload.find w <> None -> go { o with workload = Some w } rest
    | _ -> usage ()
  in
  let o =
    go
      {
        workload = None;
        seed = default_seed;
        seconds = 8;
        trace = false;
        smoke = false;
        root = ".";
        child = None;
      }
      (List.tl (Array.to_list argv))
  in
  if o.seconds < 1 then usage ();
  o

let data o file = Filename.concat (Filename.concat o.root "bench/perf") file
let length o = if o.smoke then Workload.Smoke else Workload.Full o.seconds

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* ---- child side: one workload run, reported as tab-separated lines ---- *)

let child o kind w =
  let inputs = data o "fuzz_inputs.txt" in
  match kind with
  | "setup" ->
      let s = Workload.setup_only w ~inputs ~seed:o.seed ~length:(length o) in
      Printf.printf "setup\t%s\n" (fmt_float s)
  | _ ->
      let r = Workload.run w ~inputs ~seed:o.seed ~length:(length o) ~traced:o.trace in
      Printf.printf "setup\t%s\n" (fmt_float r.Workload.setup_s);
      List.iter
        (fun (name, v, u) -> Printf.printf "metric\t%s\t%s\t%s\n" name (fmt_float v) u)
        r.Workload.metrics;
      List.iter
        (fun (name, ok) -> Printf.printf "check\t%s\t%b\n" name ok)
        r.Workload.checks;
      Printf.printf "digest\t%s\n" r.Workload.digest;
      if o.trace then begin
        let file = Printf.sprintf "BENCH_perf_%s.trace.json" w.Workload.name in
        Span.write_chrome file ~process:("perfbench " ^ w.Workload.name);
        List.iter
          (fun (name, n, s) -> Printf.printf "self\t%s\t%d\t%s\n" name n (fmt_float s))
          (Span.self_seconds (Span.all ()));
        (* user/offload spans past the storage budget: timed, but their
           time shows up in their parents' self time *)
        if Span.dropped () > 0 then Printf.printf "self\t(unstored)\t%d\t0\n" (Span.dropped ())
      end

(* ---- parent side ---- *)

let exe = Sys.executable_name

(* Runs one child and parses its report; also returns the span
   self-time table a traced child prints. *)
let spawn_child o ~kind ~trace ~seed w =
  let args =
    [ exe; "--child"; kind; "--workload"; w.Workload.name; "--seed"; string_of_int seed;
      "--seconds"; string_of_int o.seconds; "--root"; o.root;
      "--trace"; (if trace then "1" else "0") ]
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Printf.eprintf "perf: %s child for %s failed (status %d)\n" kind w.Workload.name n;
      exit 1);
  List.fold_left
    (fun ((r : Workload.result), self) line ->
      match String.split_on_char '\t' line with
      | [ "setup"; v ] -> ({ r with setup_s = float_of_string v }, self)
      | [ "metric"; name; v; u ] ->
          ({ r with metrics = r.metrics @ [ (name, float_of_string v, u) ] }, self)
      | [ "check"; name; ok ] ->
          ({ r with checks = r.checks @ [ (name, bool_of_string ok) ] }, self)
      | [ "digest"; d ] -> ({ r with digest = d }, self)
      | [ "self"; name; n; s ] -> (r, self @ [ (name, int_of_string n, float_of_string s) ])
      | _ -> (r, self))
    ({ Workload.setup_s = 0.; metrics = []; checks = []; digest = "" }, [])
    lines

(* golden.tsv: workload, length, seed ("*" = any), digest *)
let golden o w ~seed =
  let key = Workload.length_key (length o) in
  In_channel.with_open_text (data o "golden.tsv") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char '\t' line with
         | [ name; len; s; d ]
           when String.equal name w.Workload.name && String.equal len key
                && (String.equal s "*" || String.equal s (string_of_int seed)) ->
             Some d
         | _ -> None)

type outcome = {
  w : Workload.t;
  seed : int;
  metrics : (string * float * string) list;
  checks : (string * bool) list;
  digest : string;
  golden : string option;
}

let metric_value metrics name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) metrics with
  | Some (_, v, _) -> v
  | None -> 0.

(* What a run reports: untraced, the end-to-end metrics with set-up time
   as the median of [setups]; traced, the per-layer metrics and the
   tracing overhead against the untraced [base] run. *)
let combine o w ~seed ~setups (base : Workload.result) traced =
  let golden = golden o w ~seed in
  let golden_check =
    match golden with Some g -> [ ("golden", String.equal g base.digest) ] | None -> []
  in
  match (traced : Workload.result option) with
  | None ->
      {
        w;
        seed;
        metrics =
          ("setup_s", Workload.(percentile (sorted (Array.of_list setups)) 0.5), "s")
          :: base.metrics;
        checks = base.checks @ golden_check;
        digest = base.digest;
        golden;
      }
  | Some t ->
      let overhead = (metric_value t.metrics "vrate" /. metric_value base.metrics "vrate") -. 1. in
      {
        w;
        seed;
        metrics =
          List.filter (fun (n, _, _) -> List.mem_assoc n Workload.layer_metrics) t.metrics
          @ [ ("trace.overhead", overhead, "ratio") ];
        checks =
          base.checks @ t.checks @ golden_check
          @ [ ("traced_digest_matches", String.equal base.digest t.digest) ];
        digest = base.digest;
        golden;
      }

(* One measured run, each part in a fresh child process. *)
let measure o ~seed ~trace w =
  let base, _ = spawn_child o ~kind:"run" ~trace:false ~seed w in
  if not trace then
    let setups =
      List.init (setup_samples - 1) (fun _ ->
          (fst (spawn_child o ~kind:"setup" ~trace:false ~seed w)).setup_s)
    in
    combine o w ~seed ~setups:(base.setup_s :: setups) base None
  else begin
    let traced, self = spawn_child o ~kind:"run" ~trace:true ~seed w in
    Printf.printf "%s: self time by span name (traced run)\n" w.Workload.name;
    List.iter (fun (name, n, s) -> Printf.printf "  %-10s %8d spans %10.4f s\n" name n s) self;
    combine o w ~seed ~setups:[] base (Some traced)
  end

(* CPUs listed in /proc/cpuinfo; 0 where there is none *)
let host_cpus () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | s ->
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> 0

let host_line () =
  Printf.sprintf "host: cpus=%d recommended_domain_count=%d ocaml=%s" (host_cpus ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let describe o w ~seed =
  let work = Workload.timed_work w (length o) in
  match w.Workload.kind with
  | Workload.Sim s ->
      Printf.sprintf "%s: sim_domains=%d seed=%d warmup=%.2f vs timed=%.2f vs (%s)"
        w.Workload.name (Workload.sim_domains w) seed (Workload.warmup_s s (length o)) work
        (Workload.length_key (length o))
  | Workload.Fuzz ->
      Printf.sprintf "%s: sim_domains=%d seed=%d timed=%.0f sessions (%s)" w.Workload.name
        (Workload.sim_domains w) seed work (Workload.length_key (length o))

let print_outcome ?(metrics = true) o r =
  print_endline (describe o r.w ~seed:r.seed);
  if metrics then
    List.iter (fun (n, v, u) -> Printf.printf "  %-32s %14.6g %s\n" n v u) r.metrics;
  List.iter
    (fun (n, ok) -> if not ok then Printf.printf "  FAILED check: %s\n" n)
    r.checks;
  Printf.printf "  digest %s (%s)\n%!" r.digest
    (match r.golden with
    | None -> "no golden for this seed and length"
    | Some g when String.equal g r.digest -> "matches golden"
    | Some _ -> "DIFFERS from golden")

let failed r = List.length (List.filter (fun (_, ok) -> not ok) r.checks)

let json_metrics ~prefix rs =
  String.concat ", "
    (List.concat_map
       (fun r ->
         List.map
           (fun (n, v, u) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}"
               (if prefix then r.w.Workload.name ^ "." ^ n else n)
               (fmt_float v) u)
           r.metrics)
       rs)

let write_bench_json o rs =
  let oc = open_out "BENCH_perf.json" in
  Printf.fprintf oc
    "{\n  \"host\": {\"cpus\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S},\n\
    \  \"seconds\": %d,\n  \"trace\": %b,\n  \"workloads\": {\n%s\n  }\n}\n"
    (host_cpus ()) (Domain.recommended_domain_count ()) Sys.ocaml_version o.seconds o.trace
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    %S: {\"seed\": %d, \"sim_domains\": %d, \"warmup_vs\": %s, \
               \"timed_work\": %s, \"digest\": %S, \"golden\": %s, \"attempted\": %d, \
               \"failed\": %d, \"metrics\": {%s}}"
              r.w.Workload.name r.seed (Workload.sim_domains r.w)
              (fmt_float
                 (match r.w.Workload.kind with
                 | Workload.Sim s -> Workload.warmup_s s (length o)
                 | Workload.Fuzz -> 0.))
              (fmt_float (Workload.timed_work r.w (length o)))
              r.digest
              (match r.golden with Some g -> Printf.sprintf "%S" g | None -> "null")
              (List.length r.checks) (failed r)
              (json_metrics ~prefix:false [ r ]))
          rs));
  close_out oc

let final_line ~prefix rs =
  let attempted = List.fold_left (fun acc r -> acc + List.length r.checks) 0 rs in
  let nfailed = List.fold_left (fun acc r -> acc + failed r) 0 rs in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (nfailed = 0) attempted nfailed (json_metrics ~prefix rs)

(* ---- smoke ---- *)

(* Metric names listed in BENCHMARK.json's [key] array. *)
let benchmark_names o key =
  let text =
    In_channel.with_open_text (Filename.concat o.root "BENCHMARK.json") In_channel.input_all
  in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 (Printf.sprintf "%S" key) with
  | None -> []
  | Some start ->
      let stop =
        match find_from start "]" with Some j -> j | None -> String.length text
      in
      let rec names i acc =
        match find_from i "\"name\"" with
        | Some j when j < stop -> (
            match find_from (j + 6) "\"" with
            | Some q ->
                let e = String.index_from text (q + 1) '"' in
                names e (String.sub text (q + 1) (e - q - 1) :: acc)
            | None -> acc)
        | Some _ | None -> List.rev acc
      in
      names start []

(* The smoke runs in this process, so the assets are built once: per
   workload an untraced and a traced run at the default seed and an
   untraced run at the held-out seed. The traced run goes last because
   tracing, once enabled, stays on. *)
let smoke o ws =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let printed = Hashtbl.create 128 in
  let inputs = data o "fuzz_inputs.txt" in
  List.iter
    (fun w ->
      let run ~seed ~traced = Workload.run w ~inputs ~seed ~length:Workload.Smoke ~traced in
      let base = run ~seed:default_seed ~traced:false in
      let held = run ~seed:heldout_seed ~traced:false in
      let traced = run ~seed:default_seed ~traced:true in
      List.iter
        (fun (seed, r) ->
          print_outcome ~metrics:false o r;
          List.iter (fun (n, _, _) -> Hashtbl.replace printed n ()) r.metrics;
          if failed r > 0 then fail "%s seed %d: failed checks" w.Workload.name seed;
          if seed = default_seed && r.golden = None then
            fail "%s: no smoke golden for seed %d" w.Workload.name seed)
        [
          (default_seed, combine o w ~seed:default_seed ~setups:[ base.setup_s ] base None);
          (default_seed, combine o w ~seed:default_seed ~setups:[] base (Some traced));
          (heldout_seed, combine o w ~seed:heldout_seed ~setups:[ held.setup_s ] held None);
        ])
    ws;
  List.iter
    (fun key ->
      let names = benchmark_names o key in
      if names = [] then fail "BENCHMARK.json lists no %s metrics" key;
      List.iter (fun n -> if not (Hashtbl.mem printed n) then fail "metric %s not printed" n) names)
    [ "end_to_end"; "per_layer" ];
  match !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev ps);
      exit 1

let () =
  let o = parse Sys.argv in
  let ws =
    match o.workload with
    | Some name -> ( match Workload.find name with Some w -> [ w ] | None -> usage ())
    | None -> Workload.all
  in
  match (o.child, ws) with
  | Some kind, [ w ] -> child o kind w
  | Some _, _ -> usage ()
  | None, _ when o.smoke -> smoke o ws
  | None, _ ->
      (* Kernel.boot applies the variable to every config left at
         sim_domains = 1, which would silently change every workload;
         the smoke may ignore it, as digests do not depend on it *)
      if Sys.getenv_opt "VOS_SIM_DOMAINS" <> None then begin
        prerr_endline "perf: unset VOS_SIM_DOMAINS; the workloads fix their own sim_domains";
        exit 2
      end;
      print_endline (host_line ());
      let rs =
        List.map
          (fun w ->
            let r = measure o ~seed:o.seed ~trace:o.trace w in
            print_outcome o r;
            r)
          ws
      in
      write_bench_json o rs;
      final_line ~prefix:(List.length rs > 1) rs
