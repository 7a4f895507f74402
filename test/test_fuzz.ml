(** vfuzz: generator and session determinism, op/corpus serialization,
    ddmin shrinking, regression-corpus replay, and direct syscall
    witnesses for the hostile-argument fixes the fuzzer flushed out. *)

open Tharness

let op_strings ops = List.map Fuzz.Gen.op_to_string ops
let einval = -Core.Errno.einval
let esrch = -Core.Errno.esrch
let eisdir = -Core.Errno.eisdir

(* ---- generator ---- *)

let gen_deterministic () =
  let a = Fuzz.Gen.generate 0xdeadL in
  let b = Fuzz.Gen.generate 0xdeadL in
  check_int "same variant" a.Fuzz.Gen.sc_variant b.Fuzz.Gen.sc_variant;
  check_bool "same op list" true
    (op_strings a.Fuzz.Gen.sc_ops = op_strings b.Fuzz.Gen.sc_ops);
  let c = Fuzz.Gen.generate 0xbeefL in
  check_bool "different seed, different ops" true
    (op_strings a.Fuzz.Gen.sc_ops <> op_strings c.Fuzz.Gen.sc_ops)

let op_roundtrip () =
  List.iter
    (fun seed ->
      let scen = Fuzz.Gen.generate seed in
      check_bool "scenario has ops" true (scen.Fuzz.Gen.sc_ops <> []);
      List.iter
        (fun op ->
          let s = Fuzz.Gen.op_to_string op in
          match Fuzz.Gen.op_of_string s with
          | Some op' ->
              check_string ("round-trip " ^ s) s (Fuzz.Gen.op_to_string op')
          | None -> Alcotest.failf "op %S did not parse back" s)
        scen.Fuzz.Gen.sc_ops)
    [ 1L; 2L; 3L; 0x5eedL ];
  (* never generated, but both must survive the corpus text format: the
     shrinker fixture and the empty path (which names the fs root) *)
  check_bool "canary parses" true
    (Fuzz.Gen.op_of_string "canary" = Some Fuzz.Gen.Canary);
  check_bool "empty-path open parses" true
    (Fuzz.Gen.op_of_string "open  1" = Some (Fuzz.Gen.Open ("", 1)))

let corpus_roundtrip () =
  let scen = Fuzz.Gen.generate 0x77L in
  let entry = Fuzz.Corpus.entry_of_scenario ~name:"rt" scen in
  match Fuzz.Corpus.parse (Fuzz.Corpus.render_entry entry) with
  | Error e -> Alcotest.failf "render/parse: %s" e
  | Ok [ e ] ->
      let scen' = Fuzz.Corpus.scenario_of_entry e in
      check_bool "seed survives" true
        (Int64.equal scen'.Fuzz.Gen.sc_seed scen.Fuzz.Gen.sc_seed);
      check_int "variant survives" scen.Fuzz.Gen.sc_variant
        scen'.Fuzz.Gen.sc_variant;
      check_bool "ops survive" true
        (op_strings scen'.Fuzz.Gen.sc_ops = op_strings scen.Fuzz.Gen.sc_ops)
  | Ok l -> Alcotest.failf "expected one entry, got %d" (List.length l)

(* ---- sessions ---- *)

(* The digest covers the whole machine-format trace, the UART output and
   the outcome tag, so the pinned values hold the trace renderer and the
   dump order byte-identical, not just repeatable. *)
let session_deterministic () =
  let r1 = Fuzz.Session.run_seed 0xbeefL in
  let r2 = Fuzz.Session.run_seed 0xbeefL in
  check_string "same seed, same digest" r1.Fuzz.Session.r_digest
    r2.Fuzz.Session.r_digest;
  check_string "seed 0xbeef digest is pinned"
    "151069388d080f1c4205901d589fa1d0" r1.Fuzz.Session.r_digest;
  (match r1.Fuzz.Session.r_outcome with
  | Fuzz.Session.Pass -> ()
  | Fuzz.Session.Fail f ->
      Alcotest.failf "seed 0xbeef failed: %s" (Fuzz.Session.failure_to_string f));
  check_bool "session consumed virtual time" true
    (Int64.compare r1.Fuzz.Session.r_vtime_ns 0L > 0);
  let r3 = Fuzz.Session.run_seed 0xcafeL in
  check_string "seed 0xcafe digest is pinned"
    "70c5a672e897f3c162611c9135dc4851" r3.Fuzz.Session.r_digest;
  check_bool "different seed, different digest" true
    (not (String.equal r1.Fuzz.Session.r_digest r3.Fuzz.Session.r_digest))

(* ---- shrinking ---- *)

let shrink_canary () =
  let scen = Benchlib.Fuzzbench.canary_scenario 0x51edL in
  let failure =
    match (Fuzz.Session.run scen).Fuzz.Session.r_outcome with
    | Fuzz.Session.Fail f -> f
    | Fuzz.Session.Pass -> Alcotest.fail "canary scenario passed"
  in
  check_bool "canary dies as a Crash" true
    (match failure with
    | Fuzz.Session.Crash _ -> true
    | Fuzz.Session.Violation _ | Fuzz.Session.Invariant _
    | Fuzz.Session.Wedge _ ->
        false);
  let shrink () =
    Fuzz.Shrink.minimize
      ~run:(fun ops ->
        (Fuzz.Session.run { scen with Fuzz.Gen.sc_ops = ops })
          .Fuzz.Session.r_outcome)
      ~failure scen
  in
  let s1, st1 = shrink () in
  let s2, st2 = shrink () in
  check_int "minimum is one op" 1 st1.Fuzz.Shrink.sh_ops_after;
  check_string "minimum is exactly the canary" "canary"
    (String.concat ";" (op_strings s1.Fuzz.Gen.sc_ops));
  (* shrinking is as deterministic as the sessions it replays *)
  check_int "same candidate count" st1.Fuzz.Shrink.sh_runs
    st2.Fuzz.Shrink.sh_runs;
  check_bool "same minimum" true
    (op_strings s1.Fuzz.Gen.sc_ops = op_strings s2.Fuzz.Gen.sc_ops);
  check_bool "shrink stayed within budget" true
    (st1.Fuzz.Shrink.sh_runs <= Fuzz.Shrink.default_budget)

(* ---- regression corpus ---- *)

(* dune runtest runs in the test stanza's directory; dune exec runs in
   the workspace root — accept either *)
let corpus_path () =
  if Sys.file_exists "fuzz_corpus.txt" then "fuzz_corpus.txt"
  else Filename.concat "test" "fuzz_corpus.txt"

let corpus_replay () =
  match Fuzz.Corpus.load (corpus_path ()) with
  | Error e -> Alcotest.failf "corpus load: %s" e
  | Ok entries ->
      check_bool "corpus is non-trivial" true (List.length entries >= 8);
      List.iter
        (fun e ->
          let scen = Fuzz.Corpus.scenario_of_entry e in
          match (Fuzz.Session.run scen).Fuzz.Session.r_outcome with
          | Fuzz.Session.Pass -> ()
          | Fuzz.Session.Fail f ->
              Alcotest.failf "corpus entry %s regressed: %s"
                e.Fuzz.Corpus.e_name
                (Fuzz.Session.failure_to_string f))
        entries

(* ---- syscall witnesses for the fixes the fuzzer found ----

   Each of these is the minimal direct form of a corpus entry: the
   corpus replays the whole hostile session, these pin the exact errno
   contract so a regression fails with a readable message. *)

let lseek_edges () =
  in_kernel (fun _ ->
      let fd = User.Usys.open_ "/t.dat" Core.Abi.(o_create lor o_rdwr) in
      check_bool "open" true (fd >= 0);
      check_int "write" 100 (User.Usys.write fd (Bytes.make 100 'x'));
      check_int "unknown whence" einval (User.Usys.lseek fd 0 7);
      check_int "negative whence" einval (User.Usys.lseek fd 0 (-1));
      check_int "negative resulting offset" einval
        (User.Usys.lseek fd (-4096) Core.Abi.seek_set);
      check_int "seek to end still works" 100
        (User.Usys.lseek fd 0 Core.Abi.seek_end))

let read_bounded () =
  in_kernel (fun _ ->
      let fd = User.Usys.open_ "/t.dat" Core.Abi.(o_create lor o_rdwr) in
      ignore (User.Usys.write fd (Bytes.make 100 'x'));
      ignore (User.Usys.lseek fd 0 Core.Abi.seek_set);
      (match User.Usys.read fd (1 lsl 30) with
      | Ok b ->
          check_bool "giant read bounded by file size" true
            (Bytes.length b <= 100)
      | Error e -> Alcotest.failf "giant read failed with errno %d" e);
      match User.Usys.read fd (-1) with
      | Ok _ -> Alcotest.fail "negative-length read succeeded"
      | Error e -> check_int "negative length" Core.Errno.einval e)

let procfs_eof_read () =
  in_kernel (fun _ ->
      let fd = User.Usys.open_ "/proc/uptime" Core.Abi.o_rdonly in
      check_bool "open /proc/uptime" true (fd >= 0);
      let pos = User.Usys.lseek fd 1_048_576 Core.Abi.seek_end in
      check_bool "seek far past end" true (pos > 0);
      match User.Usys.read fd 17 with
      | Ok b -> check_int "read past EOF is empty" 0 (Bytes.length b)
      | Error e -> Alcotest.failf "read past EOF errored with %d" e)

let dir_open_eisdir () =
  in_kernel (fun _ ->
      check_int "mkdir" 0 (User.Usys.mkdir "/td");
      check_int "O_WRONLY dir" eisdir (User.Usys.open_ "/td" Core.Abi.o_wronly);
      check_int "O_RDWR dir" eisdir (User.Usys.open_ "/td" Core.Abi.o_rdwr);
      check_int "empty path names the root dir" eisdir
        (User.Usys.open_ "" Core.Abi.o_wronly);
      let fd = User.Usys.open_ "/td" Core.Abi.o_rdonly in
      check_bool "read-only dir open still allowed" true (fd >= 0))

let sem_edges () =
  in_kernel (fun _ ->
      check_int "sem_open(-1)" einval (User.Usys.sem_open (-1));
      check_int "sem_open(-100)" einval (User.Usys.sem_open (-100));
      let id = User.Usys.sem_open 1 in
      check_bool "sem_open(1)" true (id >= 0);
      check_int "banked token consumed without blocking" 0
        (User.Usys.sem_wait id);
      check_int "post" 0 (User.Usys.sem_post id);
      check_int "wait" 0 (User.Usys.sem_wait id);
      check_int "close" 0 (User.Usys.sem_close id);
      check_int "wait after close" einval (User.Usys.sem_wait id);
      check_int "bogus id" einval (User.Usys.sem_wait 99))

let sem_close_wakes_waiter () =
  in_kernel (fun _ ->
      let id = User.Usys.sem_open 0 in
      check_bool "sem_open" true (id >= 0);
      let tid = User.Usys.clone (fun () -> User.Usys.sem_wait id) in
      check_bool "clone" true (tid > 0);
      (* let the thread block on the empty semaphore *)
      ignore (User.Usys.sleep 2);
      check_int "close with a waiter parked" 0 (User.Usys.sem_close id);
      (* the waiter rescans, finds the id dead and fails — it must not
         sleep forever on the orphaned channel *)
      check_int "waiter woken with EINVAL" einval (User.Usys.join tid))

let kill_edges () =
  in_kernel (fun _ ->
      check_int "kill(0)" einval (User.Usys.kill 0);
      check_int "kill(-1)" einval (User.Usys.kill (-1));
      check_int "kill(garbage pid)" esrch (User.Usys.kill 99999);
      let pid = User.Usys.fork (fun () -> 0) in
      check_bool "fork" true (pid > 0);
      (* child runs to exit and becomes a zombie *)
      ignore (User.Usys.sleep 2);
      check_int "kill(zombie)" esrch (User.Usys.kill pid);
      check_int "wait reaps it" pid (User.Usys.wait ());
      check_int "kill after reap" esrch (User.Usys.kill pid))

let self_kill_reapable () =
  in_kernel (fun _ ->
      let pid =
        User.Usys.fork (fun () ->
            ignore (User.Usys.kill (User.Usys.getpid ()));
            (* the killed flag lands at the next preemption point; this
               sleep must never complete *)
            ignore (User.Usys.sleep 1000);
            7)
      in
      check_bool "fork" true (pid > 0);
      check_int "self-killed child is reapable" pid (User.Usys.wait ()))

(* A seed picks the workload, never the machine: in every config variant,
   two scenarios that differ only in their seed boot to the same trace,
   UART text and clock. Forking each session from one booted kernel per
   variant rests on this. *)
let boot_ignores_seed () =
  let boot seed v =
    let kernel =
      Core.Kernel.boot
        (Fuzz.Session.spec_of_scenario
           { Fuzz.Gen.sc_seed = seed; sc_variant = v; sc_ops = [] })
    in
    ( List.map Core.Ktrace.machine_line
        (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace),
      Core.Kernel.uart_output kernel,
      Core.Kernel.now kernel )
  in
  Array.iteri
    (fun v name ->
      let t1, u1, n1 = boot 1L v and t2, u2, n2 = boot 0xdeadbeefL v in
      check_bool (name ^ ": boot is traced") true (t1 <> []);
      Alcotest.(check (list string)) (name ^ ": same trace") t1 t2;
      check_string (name ^ ": same UART") u1 u2;
      check_bool (name ^ ": same clock") true (Int64.equal n1 n2))
    Fuzz.Session.variant_names

let suite_fuzz =
  ( "fuzz.engine",
    [
      quick "generator is seed-deterministic" gen_deterministic;
      quick "ops serialize and parse back" op_roundtrip;
      quick "corpus entries round-trip" corpus_roundtrip;
      quick "the seed does not reach boot" boot_ignores_seed;
      slow "same seed, same session digest" session_deterministic;
      slow "canary shrinks to itself, deterministically" shrink_canary;
    ] )

let suite_regress =
  ( "fuzz.regressions",
    [
      slow "corpus replays clean" corpus_replay;
      quick "lseek rejects wild whence and negative offsets" lseek_edges;
      quick "read bounds hostile lengths" read_bounded;
      quick "procfs read past EOF is empty, not a crash" procfs_eof_read;
      quick "writable directory opens are EISDIR" dir_open_eisdir;
      quick "sem_open rejects negative values" sem_edges;
      quick "sem_close wakes parked waiters" sem_close_wakes_waiter;
      quick "kill edge cases" kill_edges;
      quick "self-kill terminates cleanly" self_kill_reapable;
    ] )
