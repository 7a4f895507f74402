(** fuzzbench — throughput and determinism numbers for the scenario
    fuzzer itself.

    Three questions, one seeded run:

    - {b throughput}: full boot→monkey→shutdown sessions per host
      second — this prices the CI budget (how many hostile sessions a
      bounded job can afford);
    - {b cleanliness}: every session in the sweep is expected to pass —
      a failure here is a real finding and fails the bench;
    - {b shrink cost}: a synthetic crash (the [Canary] op spliced into
      the middle of an otherwise ordinary scenario) is delta-debugged
      down; the candidate-run count and the final op count are reported
      and stable, since shrinking is as deterministic as the sessions
      it replays.

    [f_run_hash] digests every session's trace digest in order, so two
    hosts running the same seed must print the same hash — the
    fuzzer-level analogue of the engine's determinism checks. *)

type summary = {
  f_seed : int64;
  f_sessions : int;
  f_ops : int;  (** generated ops across the sweep *)
  f_failures : int;
  f_wall_s : float;
  f_sessions_per_s : float;
  f_shrink_runs : int;  (** candidate sessions ddmin executed *)
  f_shrink_ops_before : int;
  f_shrink_ops_after : int;  (** ops surviving the shrink (expect 1: the canary) *)
  f_run_hash : string;
}

let sessions = 100
let seed = 0xf00dL

(* Splice the canary into the middle of a generated scenario: the
   shrinker has to strip both flanks to isolate it. *)
let canary_scenario seed =
  let scen = Fuzz.Gen.generate ~faults:false seed in
  let ops = scen.Fuzz.Gen.sc_ops in
  let n = List.length ops in
  let before = List.filteri (fun i _ -> i < n / 2) ops in
  let after = List.filteri (fun i _ -> i >= n / 2) ops in
  { scen with Fuzz.Gen.sc_ops = before @ [ Fuzz.Gen.Canary ] @ after }

let run () =
  let rng = Sim.Rng.create seed in
  let digests = Buffer.create (sessions * 36) in
  let failures = ref 0 in
  let ops = ref 0 in
  let (), wall =
    Report.timed (fun () ->
        for _ = 1 to sessions do
          let scen = Fuzz.Gen.generate (Sim.Rng.next rng) in
          ops := !ops + List.length scen.Fuzz.Gen.sc_ops;
          let r = Fuzz.Session.run scen in
          (match r.Fuzz.Session.r_outcome with
          | Fuzz.Session.Pass -> ()
          | Fuzz.Session.Fail f ->
              incr failures;
              Printf.printf "  FAIL seed 0x%Lx: %s\n%!" scen.Fuzz.Gen.sc_seed
                (Fuzz.Session.failure_to_string f));
          Buffer.add_string digests r.Fuzz.Session.r_digest;
          Buffer.add_char digests '\n'
        done)
  in
  (* shrink-cost probe: plant a canary, measure the ddmin bill *)
  let scen = canary_scenario (Int64.logxor seed 0xca4a11L) in
  let failure =
    match (Fuzz.Session.run scen).Fuzz.Session.r_outcome with
    | Fuzz.Session.Fail f -> f
    | Fuzz.Session.Pass -> Fuzz.Session.Crash "canary did not fire"
  in
  let _, stats =
    Fuzz.Shrink.minimize
      ~run:(fun ops ->
        (Fuzz.Session.run { scen with Fuzz.Gen.sc_ops = ops })
          .Fuzz.Session.r_outcome)
      ~failure scen
  in
  {
    f_seed = seed;
    f_sessions = sessions;
    f_ops = !ops;
    f_failures = !failures;
    f_wall_s = wall;
    f_sessions_per_s = (if wall > 0. then float_of_int sessions /. wall else 0.);
    f_shrink_runs = stats.Fuzz.Shrink.sh_runs;
    f_shrink_ops_before = stats.Fuzz.Shrink.sh_ops_before;
    f_shrink_ops_after = stats.Fuzz.Shrink.sh_ops_after;
    f_run_hash = Digest.to_hex (Digest.string (Buffer.contents digests));
  }

let render s =
  Printf.sprintf
    "  seed %Ld: %d sessions, %d ops, %d failures\n\
    \  %.1f sessions/s (%.1fs wall)\n\
    \  canary shrink: %d -> %d ops in %d candidate runs\n\
    \  run hash %s\n"
    s.f_seed s.f_sessions s.f_ops s.f_failures s.f_sessions_per_s s.f_wall_s
    s.f_shrink_ops_before s.f_shrink_ops_after s.f_shrink_runs s.f_run_hash

let report s =
  Report.
    ( [
        ("benchmark", String "fuzzbench"); ("seed", Int64 s.f_seed);
        ("sessions", Int s.f_sessions); ("ops", Int s.f_ops);
        ("failures", Int s.f_failures); ("shrink_runs", Int s.f_shrink_runs);
        ("shrink_ops_before", Int s.f_shrink_ops_before);
        ("shrink_ops_after", Int s.f_shrink_ops_after);
        ("run_hash", String s.f_run_hash);
      ],
      [
        ("wall_s", Fixed (3, s.f_wall_s));
        ("sessions_per_s", Fixed (1, s.f_sessions_per_s));
      ] )
