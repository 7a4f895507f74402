(** The block I/O ablation ladder: sequential read, random 4 KB write and
    a mixed workload on the FAT32 partition, stepping from the seed's
    write-through cache to the full write-back + read-ahead + coalescing
    fast path.

    The ladder keeps the paper's §5.2 row (the range bypass) so the old
    comparison stays reproducible, and measures what the new path buys on
    top of it. Each configuration boots its own kernel — the knob flows
    through {!Core.Kconfig} exactly as a rebuilt kernel would, never as a
    special case in the workload. Results go to stdout as a table and to
    [BENCH_io.json] for the driver. *)

type config_row = { cf_name : string; cf_config : Core.Kconfig.t }

(* The write-through row. Every row arms the sampling profiler: it
   charges zero virtual cycles, so the I/O numbers must be byte-identical
   to an unarmed run. *)
let base =
  {
    Core.Kconfig.full with
    Core.Kconfig.range_io_bypass = false;
    sd_coalescing = false;
    profile_hz = 100;
  }

(* The ladder. "write-through" is the pre-§5.2 cache (every range through
   the single-block path): the seed baseline the acceptance ratios are
   against. "+range-bypass" is the seed's shipping default. The last three
   rows are this PR's path; they route ranges through the cache again
   because read-ahead supersedes the bypass (one command per 32 sectors
   instead of one per range, and it also serves the single-block reads the
   bypass never helped). *)
let ladder =
  let open Core.Kconfig in
  [
    { cf_name = "write-through"; cf_config = base };
    {
      cf_name = "+range-bypass (5.2)";
      cf_config = { base with range_io_bypass = true };
    };
    { cf_name = "+write-back"; cf_config = { base with writeback = true } };
    {
      cf_name = "+read-ahead";
      cf_config = { base with writeback = true; readahead_blocks = 32 };
    };
    {
      cf_name = "+coalescing (full)";
      cf_config =
        {
          base with
          writeback = true;
          readahead_blocks = 32;
          sd_coalescing = true;
        };
    };
  ]

(* ---- workloads ---- *)

let file_bytes = 256 * 1024
let chunk = 4096
let rand_writes = 64
let path = "/d/io.dat"

(* Random 4 KB overwrites at cluster-aligned offsets; reports the mean
   per-operation latency in ms. Under write-through each op pays the
   device's polled range write; under write-back it marks blocks dirty
   and the daemon pays the device later. *)
let rand_write_ms kernel ~seed ~iters =
  let rng = Sim.Rng.create seed in
  let clusters = file_bytes / chunk in
  let data = Bytes.make chunk 'w' in
  match
    Measure.run_task kernel ~name:"iobench-randwrite" (fun () ->
        let fd = User.Usys.open_ path Core.Abi.o_rdwr in
        assert (fd >= 0);
        for _ = 1 to iters do
          let c = Sim.Rng.int rng clusters in
          ignore (User.Usys.lseek fd (c * chunk) Core.Abi.seek_set);
          let n = User.Usys.write fd data in
          assert (n = chunk)
        done;
        ignore (User.Usys.close fd);
        0)
  with
  | Ok (_, ns) -> Sim.Engine.to_ms ns /. float_of_int iters
  | Error e -> invalid_arg e

(* Alternating sequential reads and overwrites across the whole file;
   reports aggregate KB/s. *)
let mixed_kbps kernel =
  let data = Bytes.make chunk 'm' in
  let chunks = file_bytes / chunk in
  match
    Measure.run_task kernel ~name:"iobench-mixed" (fun () ->
        let fd = User.Usys.open_ path Core.Abi.o_rdwr in
        assert (fd >= 0);
        for i = 0 to chunks - 1 do
          if i mod 2 = 0 then (
            match User.Usys.read fd chunk with
            | Ok b -> assert (Bytes.length b = chunk)
            | Error _ -> assert false)
          else begin
            ignore (User.Usys.lseek fd (i * chunk) Core.Abi.seek_set);
            let n = User.Usys.write fd data in
            assert (n = chunk)
          end
        done;
        ignore (User.Usys.close fd);
        0)
  with
  | Ok (_, ns) -> float_of_int file_bytes /. 1024.0 /. Sim.Engine.to_sec ns
  | Error e -> invalid_arg e

(* ---- per-configuration run ---- *)

type row = {
  r_config : config_row;
  seq_kbps : float;
  randw_ms : float;
  mixed_kbps : float;
  hits : int;
  misses : int;
  prefetched : int;
  flush_batches : int;
  flushed_blocks : int;
  sd_merged : int;
}

let run_config row =
  let kernel = Micro.fresh_kernel ~config:row.cf_config () in
  Micro.prepare_file kernel ~path ~bytes:file_bytes;
  let seq_kbps =
    Micro.fs_throughput_kbps kernel ~path ~bytes:file_bytes ~chunk
      ~direction:`Read
  in
  let randw_ms = rand_write_ms kernel ~seed:11L ~iters:rand_writes in
  let mixed = mixed_kbps kernel in
  (* everything dirty reaches the card before we read the stats *)
  Core.Kernel.shutdown kernel;
  let bc = Option.get kernel.Core.Kernel.fat_bc in
  {
    r_config = row;
    seq_kbps;
    randw_ms;
    mixed_kbps = mixed;
    hits = Core.Bufcache.hits bc;
    misses = Core.Bufcache.misses bc;
    prefetched = Core.Bufcache.prefetched bc;
    flush_batches = Core.Bufcache.flush_batches bc;
    flushed_blocks = Core.Bufcache.flushed_blocks bc;
    sd_merged = Hw.Sd.merged_count kernel.Core.Kernel.board.Hw.Board.sd;
  }

let run () = List.map run_config ladder

(* ---- the journal ladder ----

   Same fsync-heavy workload on the xv6 rootfs with the write-ahead
   journal off (the paper's filesystem) and on: 64 x 4 KB appends with an
   fsync every 8 writes. Reports throughput plus what the journal did. *)

type journal_row = {
  j_name : string;
  j_journal : bool;
  j_kbps : float;
  j_commits : int;
  j_replayed : int;
  j_barriers : int;
}

let journal_writes = 64
let journal_fsync_every = 8

let run_journal_config ~journal =
  let config =
    {
      Core.Kconfig.full with
      Core.Kconfig.journal;
      writeback = journal;
      profile_hz = 100;
    }
  in
  let kernel = Micro.fresh_kernel ~config () in
  let data = Bytes.make chunk 'j' in
  let kbps =
    match
      Measure.run_task kernel ~name:"iobench-journal" (fun () ->
          let fd =
            User.Usys.open_ "/j.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
          in
          assert (fd >= 0);
          for i = 1 to journal_writes do
            let n = User.Usys.write fd data in
            assert (n = chunk);
            if i mod journal_fsync_every = 0 then
              assert (User.Usys.fsync fd = 0)
          done;
          ignore (User.Usys.close fd);
          0)
    with
    | Ok (_, ns) ->
        float_of_int (journal_writes * chunk) /. 1024.0 /. Sim.Engine.to_sec ns
    | Error e -> invalid_arg e
  in
  let rootfs = kernel.Core.Kernel.rootfs in
  let commits = Fs.Xv6fs.log_commits rootfs in
  let replayed = Fs.Xv6fs.log_replayed rootfs in
  let barriers = Core.Bufcache.barrier_count kernel.Core.Kernel.root_bc in
  Core.Kernel.shutdown kernel;
  {
    j_name = (if journal then "journal" else "no-journal");
    j_journal = journal;
    j_kbps = kbps;
    j_commits = commits;
    j_replayed = replayed;
    j_barriers = barriers;
  }

let run_journal () =
  [ run_journal_config ~journal:false; run_journal_config ~journal:true ]

(* ---- reporting ---- *)

let baseline rows = List.hd rows
let final rows = List.nth rows (List.length rows - 1)

let seq_speedup rows = (final rows).seq_kbps /. (baseline rows).seq_kbps
let randw_speedup rows = (baseline rows).randw_ms /. (final rows).randw_ms

let render_journal jrows =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "  %-22s %10s %8s %9s %9s\n" "rootfs config" "KB/s"
       "commits" "replayed" "barriers");
  List.iter
    (fun j ->
      Buffer.add_string b
        (Printf.sprintf "  %-22s %10.0f %8d %9d %9d\n" j.j_name j.j_kbps
           j.j_commits j.j_replayed j.j_barriers))
    jrows;
  Buffer.contents b

let render rows =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "  %-22s %10s %12s %10s %7s %7s %6s %7s %7s %7s\n" "config"
       "seq KB/s" "randw ms/op" "mix KB/s" "hits" "misses" "pref" "batches"
       "blocks" "merged");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-22s %10.0f %12.3f %10.0f %7d %7d %6d %7d %7d %7d\n"
           r.r_config.cf_name r.seq_kbps r.randw_ms r.mixed_kbps r.hits r.misses
           r.prefetched r.flush_batches r.flushed_blocks r.sd_merged))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "  full vs write-through: %.2fx sequential read, %.2fx random-write latency\n"
       (seq_speedup rows) (randw_speedup rows));
  Buffer.contents b

let report ~journal rows =
  let config r =
    let c = r.r_config.cf_config in
    Report.(
      Obj
        [
          ("name", String r.r_config.cf_name);
          ("writeback", Bool c.Core.Kconfig.writeback);
          ("readahead_blocks", Int c.Core.Kconfig.readahead_blocks);
          ("sd_coalescing", Bool c.Core.Kconfig.sd_coalescing);
          ("range_io_bypass", Bool c.Core.Kconfig.range_io_bypass);
          ("seq_read_kbps", Fixed (1, r.seq_kbps));
          ("rand_write_ms_per_op", Fixed (4, r.randw_ms));
          ("mixed_kbps", Fixed (1, r.mixed_kbps)); ("cache_hits", Int r.hits);
          ("cache_misses", Int r.misses);
          ("prefetched_blocks", Int r.prefetched);
          ("flush_batches", Int r.flush_batches);
          ("flushed_blocks", Int r.flushed_blocks);
          ("sd_merged_requests", Int r.sd_merged);
        ])
  in
  let journal_config j =
    Report.(
      Obj
        [
          ("name", String j.j_name); ("journal", Bool j.j_journal);
          ("fsync_kbps", Fixed (1, j.j_kbps)); ("commits", Int j.j_commits);
          ("replayed", Int j.j_replayed); ("barriers", Int j.j_barriers);
        ])
  in
  Report.
    ( [
        ("benchmark", String "iobench"); ("file_bytes", Int file_bytes);
        ("chunk_bytes", Int chunk); ("rand_writes", Int rand_writes);
        ("configs", List (List.map config rows));
        ("journal_configs", List (List.map journal_config journal));
        ("seq_read_speedup_vs_writethrough", Fixed (3, seq_speedup rows));
        ( "rand_write_latency_speedup_vs_writethrough",
          Fixed (3, randw_speedup rows) );
      ],
      [] )
