(** The power-cut crash-injection harness.

    One seeded workload runs against a journaled xv6fs image through the
    buffer cache; a dry run counts every sector the medium absorbs. Each
    trial then replays the identical workload but schedules a power cut
    after a randomized number of media sectors — including mid-block, so
    torn writes happen — revives the rail, remounts (replaying the
    journal), and checks:

    - fsck is clean: the journal never exposes a half-applied transaction;
    - every file's content is a state the workload actually passed
      through, no earlier than the last acknowledged sync — i.e. no
      acked-fsync data is lost and no frankenstein states appear.

    Everything is derived from one seed ({!default_seed} unless given),
    so a run is reproducible byte for byte: {!summary.s_run_hash}
    digests every trial's outcome. *)

let nfiles = 6
let nops = 120
let max_write_bytes = 12 * 1024

(* Per-file model: the timeline of content states the workload has
   produced (oldest first), as hex digests; [gone] marks non-existence.
   [fm_acked] indexes the last state known durable (a sync completed
   while power was still up). A post-crash file must match some state at
   or after [fm_acked]. Chunked writes append every block-boundary
   prefix, because a group commit may land mid-[writei]. *)
type fmodel = {
  fm_path : string;
  mutable fm_exists : bool;
  mutable fm_ver : int;
  mutable fm_timeline : string list;
  mutable fm_acked : int;
}

let gone = "-"
let hex_of_bytes b = Digest.to_hex (Digest.bytes b)
let digest_empty = Digest.to_hex (Digest.string "")

let fresh_files () =
  let path i = if i < 4 then Printf.sprintf "/f%d" i else Printf.sprintf "/sub/f%d" i in
  Array.init nfiles (fun i ->
      {
        fm_path = path i;
        fm_exists = false;
        fm_ver = 0;
        fm_timeline = [ gone ];
        fm_acked = 0;
      })

let push f state = f.fm_timeline <- f.fm_timeline @ [ state ]

(* deterministic content for (file, version): no RNG draws per byte *)
let content ~fi ~ver ~len =
  Bytes.init len (fun i -> Char.chr (((fi * 37) + (ver * 11) + i) land 0xff))

(* ---- the workload ----

   Identical op sequence for the dry run and every trial (one RNG seeded
   the same way); a trial just stops once the rail is dead. *)

let run_workload fs bc supply files rng =
  let sync () =
    ignore (Fs.Xv6fs.commit fs);
    Core.Bufcache.barrier bc;
    if Hw.Power.alive supply then
      Array.iter (fun f -> f.fm_acked <- List.length f.fm_timeline - 1) files
  in
  let node_of f =
    match Fs.Xv6fs.lookup fs f.fm_path with
    | Ok node -> node
    | Error e ->
        invalid_arg ("crashbench: " ^ f.fm_path ^ ": " ^ Fs.Error.to_string e)
  in
  (match Fs.Xv6fs.create fs "/sub" Fs.Xv6fs.Dir with
  | Ok _ -> ()
  | Error e -> invalid_arg ("crashbench: mkdir /sub: " ^ Fs.Error.to_string e));
  (try
     for _op = 1 to nops do
       if not (Hw.Power.alive supply) then raise Exit;
       let fi = Sim.Rng.int rng nfiles in
       let f = files.(fi) in
       let k = Sim.Rng.int rng 100 in
       let len = 512 + Sim.Rng.int rng max_write_bytes in
       if k < 55 then begin
         (* whole-file rewrite: create if needed, truncate, write *)
         if not f.fm_exists then begin
           (match Fs.Xv6fs.create fs f.fm_path Fs.Xv6fs.Reg with
           | Ok _ -> ()
           | Error e ->
               invalid_arg ("crashbench: create: " ^ Fs.Error.to_string e));
           f.fm_exists <- true;
           push f digest_empty
         end;
         let node = node_of f in
         Fs.Xv6fs.truncate fs node;
         push f digest_empty;
         f.fm_ver <- f.fm_ver + 1;
         let data = content ~fi ~ver:f.fm_ver ~len in
         (* a group commit can land at any block boundary inside writei,
            so every whole-block prefix is an observable durable state *)
         let blocks = len / Fs.Xv6fs.block_bytes in
         for j = 1 to blocks do
           push f (hex_of_bytes (Bytes.sub data 0 (j * Fs.Xv6fs.block_bytes)))
         done;
         if len mod Fs.Xv6fs.block_bytes <> 0 then push f (hex_of_bytes data);
         match Fs.Xv6fs.writei fs node ~off:0 ~data with
         | Ok n when n = len -> ()
         | Ok _ | Error _ -> invalid_arg "crashbench: short write"
       end
       else if k < 70 then begin
         if f.fm_exists then begin
           Fs.Xv6fs.truncate fs (node_of f);
           push f digest_empty
         end
       end
       else if k < 80 then begin
         if f.fm_exists then begin
           (match Fs.Xv6fs.unlink fs f.fm_path with
           | Ok () -> ()
           | Error e ->
               invalid_arg ("crashbench: unlink: " ^ Fs.Error.to_string e));
           f.fm_exists <- false;
           push f gone
         end
       end
       else sync ()
     done;
     sync ()
   with Exit -> ())

(* ---- verification after the cut ---- *)

let suffix_from l i =
  let rec drop n = function
    | l when n <= 0 -> l
    | [] -> []
    | _ :: tl -> drop (n - 1) tl
  in
  drop i l

(* Remount through a fresh (cold) cache — the crashed kernel's RAM is
   gone — replaying the journal, then fsck + per-file content check.
   Returns (blocks replayed, findings). *)
let verify board image files =
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:2 ()
  in
  match Fs.Xv6fs.mount (Core.Bufcache.xv6_io bc) with
  | Error e -> (0, [ "remount failed: " ^ Fs.Error.to_string e ], [])
  | Ok fs ->
      let findings = ref [] in
      let report = Fs.Xv6fs.fsck fs in
      if not report.Fs.Xv6fs.fsck_clean then
        findings :=
          List.map (fun e -> "fsck: " ^ e) report.Fs.Xv6fs.fsck_errors
          @ !findings;
      let states =
        Array.to_list files
        |> List.map (fun f ->
               let observed =
                 match Fs.Xv6fs.lookup fs f.fm_path with
                 | Error _ -> gone
                 | Ok node -> (
                     let size = (Fs.Xv6fs.stat_of fs node).Fs.Xv6fs.st_size in
                     if size < 0 || size > Fs.Xv6fs.max_file_bytes_ext then
                       "unreadable: implausible size"
                     else
                       match Fs.Xv6fs.readi fs node ~off:0 ~len:size with
                       | Ok b -> hex_of_bytes b
                       | Error e -> "unreadable: " ^ Fs.Error.to_string e)
               in
               let allowed = suffix_from f.fm_timeline f.fm_acked in
               if not (List.mem observed allowed) then
                 findings :=
                   Printf.sprintf
                     "%s: state %s not reachable from last ack (ack index %d \
                      of %d states)"
                     f.fm_path observed f.fm_acked
                     (List.length f.fm_timeline)
                   :: !findings;
               (f.fm_path, observed))
      in
      (Fs.Xv6fs.log_replayed fs, List.rev !findings, states)

(* ---- trials ---- *)

let mkfs_base () =
  Fs.Xv6fs.mkfs ~nlog:120 ~ext:true ~total_blocks:2048 ~ninodes:128 ()

(* One run of the workload over a fresh copy of [base]; [cut_after]
   schedules the power cut that many media sectors in (None = dry run).
   Returns (board, image, files, fs commits). *)
let run_once ~seed ~base ~cut_after =
  let board = Hw.Board.create ~sd_mib:1 () in
  let supply = board.Hw.Board.supply in
  (match cut_after with
  | Some sectors -> Hw.Power.cut_after_media_writes supply ~sectors
  | None -> ());
  let image = Bytes.copy base in
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:2 ~capacity:64
      ~writeback:true ()
  in
  let fs =
    match Fs.Xv6fs.mount (Core.Bufcache.xv6_io bc) with
    | Ok fs -> fs
    | Error e -> invalid_arg ("crashbench: mount: " ^ Fs.Error.to_string e)
  in
  let files = fresh_files () in
  run_workload fs bc supply files (Sim.Rng.create seed);
  (board, image, files, Fs.Xv6fs.log_commits fs)

type summary = {
  s_seed : int64;
  s_trials : int;
  s_media_sectors : int;  (** cut-point space (sectors written by a clean run) *)
  s_commits : int;  (** journal commits across all trials *)
  s_replayed_trials : int;  (** trials whose remount installed a committed tx *)
  s_replayed_blocks : int;
  s_fsck_failures : int;
  s_invariant_failures : int;
  s_run_hash : string;  (** digest of every trial's outcome, for determinism *)
}

let default_trials = 1000
let failure_dump = "BENCH_crash_failure.txt"

let trials_from_env () =
  match Sys.getenv_opt "VOS_CRASH_TRIALS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None -> default_trials)
  | None -> default_trials

let default_seed = 7L

let run ?(seed = default_seed) ?trials () =
  let trials = match trials with Some t -> t | None -> trials_from_env () in
  let base = mkfs_base () in
  (* dry run: learn how many sectors a clean run puts on the medium *)
  let board, _, _, _ = run_once ~seed ~base ~cut_after:None in
  let total = Hw.Power.media_writes board.Hw.Board.supply in
  assert (total > 0);
  let cut_rng = Sim.Rng.create (Int64.logxor seed 0x9e3779b97f4a7c15L) in
  let records = Buffer.create (trials * 64) in
  let commits = ref 0 in
  let replayed_trials = ref 0 and replayed_blocks = ref 0 in
  let fsck_failures = ref 0 and invariant_failures = ref 0 in
  let dumps = ref [] in
  for trial = 1 to trials do
    let cut = 1 + Sim.Rng.int cut_rng total in
    let board, image, files, c = run_once ~seed ~base ~cut_after:(Some cut) in
    Hw.Power.revive board.Hw.Board.supply;
    let replayed, findings, states = verify board image files in
    commits := !commits + c;
    if replayed > 0 then begin
      incr replayed_trials;
      replayed_blocks := !replayed_blocks + replayed
    end;
    let fsck_bad = List.exists (fun f -> String.length f >= 4 && String.sub f 0 4 = "fsck") findings in
    let inv_bad = List.exists (fun f -> not (String.length f >= 4 && String.sub f 0 4 = "fsck")) findings in
    if fsck_bad then incr fsck_failures;
    if inv_bad then incr invariant_failures;
    if findings <> [] then
      dumps :=
        Printf.sprintf "trial %d (cut after %d sectors):\n%s" trial cut
          (String.concat "\n" (List.map (fun f -> "  " ^ f) findings))
        :: !dumps;
    Buffer.add_string records
      (Printf.sprintf "trial=%d cut=%d replayed=%d commits=%d %s\n" trial cut
         replayed c
         (String.concat " " (List.map (fun (p, s) -> p ^ "=" ^ s) states)))
  done;
  if !dumps <> [] then begin
    let oc = open_out failure_dump in
    output_string oc (String.concat "\n" (List.rev !dumps));
    close_out oc
  end;
  {
    s_seed = seed;
    s_trials = trials;
    s_media_sectors = total;
    s_commits = !commits;
    s_replayed_trials = !replayed_trials;
    s_replayed_blocks = !replayed_blocks;
    s_fsck_failures = !fsck_failures;
    s_invariant_failures = !invariant_failures;
    s_run_hash = Digest.to_hex (Digest.string (Buffer.contents records));
  }

(* ---- reporting ---- *)

let render s =
  Printf.sprintf
    "  seed %Ld: %d power cuts over %d media sectors\n\
    \  journal commits %d; %d remounts replayed (%d blocks installed)\n\
    \  fsck failures %d, invariant failures %d\n\
    \  run hash %s%s\n"
    s.s_seed s.s_trials s.s_media_sectors s.s_commits s.s_replayed_trials
    s.s_replayed_blocks s.s_fsck_failures s.s_invariant_failures s.s_run_hash
    (if s.s_fsck_failures + s.s_invariant_failures > 0 then
       "\n  FAILURES dumped to " ^ failure_dump
     else "")

let report s =
  Report.
    ( [
        ("benchmark", String "crashbench"); ("seed", Int64 s.s_seed);
        ("trials", Int s.s_trials); ("media_sectors", Int s.s_media_sectors);
        ("journal_commits", Int s.s_commits);
        ("replayed_trials", Int s.s_replayed_trials);
        ("replayed_blocks", Int s.s_replayed_blocks);
        ("fsck_failures", Int s.s_fsck_failures);
        ("invariant_failures", Int s.s_invariant_failures);
        ("run_hash", String s.s_run_hash);
      ],
      [] )
