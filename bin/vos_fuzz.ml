(* vos_fuzz — deterministic scenario fuzzing for the simulated OS.

     vos_fuzz --seed 0x2a                 one session, verbose
     vos_fuzz --sessions 1000             campaign of 1000 sessions
     vos_fuzz --corpus test/fuzz_corpus.txt   replay the regression corpus

   Every session is a pure function of its seed: the same seed boots the
   same kernel-config variant, generates the same op list and produces a
   byte-identical trace digest. On a failure the op list is delta-
   debugged down to a minimal repro and written out as a corpus-format
   entry plus the machine-readable ktrace of the failing run. *)

open Cmdliner

let derive_seeds base n =
  let rng = Sim.Rng.create base in
  List.init n (fun _ -> Sim.Rng.next rng)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let dump_failure ~out ~name scen result failure =
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let entry = Fuzz.Corpus.entry_of_scenario ~name scen in
  let txt =
    Printf.sprintf "# %s\n# config variant %d (%s)\n%s"
      (Fuzz.Session.failure_to_string failure)
      scen.Fuzz.Gen.sc_variant
      Fuzz.Session.variant_names.(scen.Fuzz.Gen.sc_variant
                                  mod Array.length Fuzz.Session.variant_names)
      (Fuzz.Corpus.render_entry entry)
  in
  let base = Filename.concat out name in
  write_file (base ^ ".txt") txt;
  let oc = open_out (base ^ ".ktrace") in
  Core.Ktrace.write_machine oc result.Fuzz.Session.r_trace;
  close_out oc;
  Printf.printf "  wrote %s.txt and %s.ktrace\n%!" base base

(* Run one scenario; on failure shrink it and dump artifacts. Returns
   true when the session passed. *)
let run_and_report ~out ~shrink_budget scen =
  let result = Fuzz.Session.run scen in
  match result.Fuzz.Session.r_outcome with
  | Fuzz.Session.Pass -> true
  | Fuzz.Session.Fail failure ->
      Printf.printf "seed 0x%Lx (variant %d): %s\n%!" scen.Fuzz.Gen.sc_seed
        scen.Fuzz.Gen.sc_variant
        (Fuzz.Session.failure_to_string failure);
      let shrunk, stats =
        Fuzz.Shrink.minimize ~budget:shrink_budget
          ~run:(fun ops ->
            (Fuzz.Session.run { scen with Fuzz.Gen.sc_ops = ops })
              .Fuzz.Session.r_outcome)
          ~failure scen
      in
      Printf.printf "  shrunk %d ops -> %d in %d runs\n%!"
        stats.Fuzz.Shrink.sh_ops_before stats.Fuzz.Shrink.sh_ops_after
        stats.Fuzz.Shrink.sh_runs;
      let final = Fuzz.Session.run shrunk in
      let name = Printf.sprintf "FUZZ_failure_seed%Lx" scen.Fuzz.Gen.sc_seed in
      (match final.Fuzz.Session.r_outcome with
      | Fuzz.Session.Fail f -> dump_failure ~out ~name shrunk final f
      | Fuzz.Session.Pass ->
          (* shrinking is deterministic, so the minimum must still fail;
             if it doesn't, dump the unshrunk scenario instead *)
          dump_failure ~out ~name scen result failure);
      false

let run_seed_mode ~out ~ops ~faults ~shrink_budget seed =
  let scen = Fuzz.Gen.generate ~ops ~faults seed in
  let result = Fuzz.Session.run scen in
  Printf.printf "seed 0x%Lx: variant %d (%s), %d ops, digest %s\n%!" seed
    scen.Fuzz.Gen.sc_variant
    Fuzz.Session.variant_names.(scen.Fuzz.Gen.sc_variant)
    (List.length scen.Fuzz.Gen.sc_ops)
    result.Fuzz.Session.r_digest;
  match result.Fuzz.Session.r_outcome with
  | Fuzz.Session.Pass ->
      Printf.printf "pass (%.1f virtual ms)\n"
        (Int64.to_float result.Fuzz.Session.r_vtime_ns /. 1e6);
      0
  | Fuzz.Session.Fail _ ->
      ignore (run_and_report ~out ~shrink_budget scen);
      1

let run_campaign ~out ~ops ~faults ~shrink_budget ~base_seed sessions =
  let seeds = derive_seeds base_seed sessions in
  let failures = ref 0 in
  List.iteri
    (fun i seed ->
      let scen = Fuzz.Gen.generate ~ops ~faults seed in
      if not (run_and_report ~out ~shrink_budget scen) then incr failures;
      if (i + 1) mod 100 = 0 then
        Printf.printf "%d/%d sessions, %d failures\n%!" (i + 1) sessions
          !failures)
    seeds;
  Printf.printf "campaign: %d sessions from base seed 0x%Lx, %d failures\n%!"
    sessions base_seed !failures;
  if !failures > 0 then 1 else 0

let run_corpus ~out ~shrink_budget path =
  match Fuzz.Corpus.load path with
  | Error e ->
      Printf.eprintf "corpus: %s\n" e;
      2
  | Ok entries ->
      let failures = ref 0 in
      List.iter
        (fun entry ->
          let scen = Fuzz.Corpus.scenario_of_entry entry in
          let result = Fuzz.Session.run scen in
          match result.Fuzz.Session.r_outcome with
          | Fuzz.Session.Pass ->
              Printf.printf "corpus %-28s pass  %s\n%!" entry.Fuzz.Corpus.e_name
                result.Fuzz.Session.r_digest
          | Fuzz.Session.Fail f ->
              incr failures;
              Printf.printf "corpus %-28s FAIL  %s\n%!" entry.Fuzz.Corpus.e_name
                (Fuzz.Session.failure_to_string f);
              ignore (run_and_report ~out ~shrink_budget scen))
        entries;
      Printf.printf "corpus: %d entries, %d failures\n%!" (List.length entries)
        !failures;
      if !failures > 0 then 1 else 0

let cmd =
  let seed_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~doc:"run the single session for this seed")
  in
  let sessions_arg =
    Arg.(
      value & opt int 0 & info [ "sessions" ] ~doc:"campaign of N sessions")
  in
  let base_seed_arg =
    Arg.(
      value & opt string "0x5eed" & info [ "base-seed" ] ~doc:"campaign base seed")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~doc:"replay a regression corpus file")
  in
  let ops_arg =
    Arg.(value & opt int 0 & info [ "ops" ] ~doc:"ops per session (0 = the default)")
  in
  let no_faults_arg =
    Arg.(value & flag & info [ "no-faults" ] ~doc:"disable device fault injection")
  in
  let out_arg =
    Arg.(value & opt string "." & info [ "out" ] ~doc:"artifact output directory")
  in
  let shrink_budget_arg =
    Arg.(
      value
      & opt int Fuzz.Shrink.default_budget
      & info [ "shrink-budget" ] ~doc:"max candidate runs while shrinking")
  in
  let main seed sessions base_seed corpus ops no_faults out shrink_budget =
    let ops = if ops > 0 then ops else Fuzz.Gen.default_ops in
    let faults = not no_faults in
    let parse_seed s =
      match Int64.of_string_opt s with
      | Some v -> v
      | None ->
          Printf.eprintf "bad seed: %s\n" s;
          Stdlib.exit 2
    in
    let code =
      match (seed, corpus) with
      | Some s, _ -> run_seed_mode ~out ~ops ~faults ~shrink_budget (parse_seed s)
      | None, Some path -> run_corpus ~out ~shrink_budget path
      | None, None ->
          if sessions <= 0 then begin
            Printf.eprintf
              "nothing to do: pass --seed, --sessions or --corpus\n";
            2
          end
          else
            run_campaign ~out ~ops ~faults ~shrink_budget
              ~base_seed:(parse_seed base_seed) sessions
    in
    Stdlib.exit code
  in
  Cmd.v
    (Cmd.info "vos_fuzz" ~doc:"deterministic scenario fuzzing for VOS")
    Term.(
      const main $ seed_arg $ sessions_arg $ base_seed_arg $ corpus_arg
      $ ops_arg $ no_faults_arg $ out_arg $ shrink_budget_arg)

let () = Stdlib.exit (Cmd.eval cmd)
