(* Crash consistency: the write-ahead journal, the power-cut harness and
   the fsck checker — plus the two kernel-level contracts (fsync's
   ordered barrier, clean shutdown leaving nothing to replay). *)

open Tharness

let bb = Fs.Xv6fs.block_bytes
let sb_field img off = Hw.Le.get_uint32 img (bb + off)
let logstart img = sb_field img 24
let datastart img = sb_field img 20
let bmapstart img = sb_field img 16

(* FNV-1a over a header block with the checksum field zeroed — the same
   function the journal uses, reimplemented so the test is an independent
   witness of the on-disk format *)
let log_cksum b =
  let h = ref 0x811c9dc5 in
  for i = 0 to Bytes.length b - 1 do
    let c = if i >= 12 && i < 16 then 0 else Bytes.get_uint8 b i in
    h := (!h lxor c) * 0x01000193 land 0xffffffff
  done;
  !h land 0x7fffffff

let log_magic = 0x564f4c47

(* Stamp a commit record for [blocks] into the image's log header;
   [good_cksum:false] simulates a record torn mid-write. *)
let stamp_header img ~good_cksum ~seq ~blocks =
  let h = Bytes.make bb '\000' in
  Bytes.set_int32_le h 0 (Int32.of_int log_magic);
  Bytes.set_int32_le h 4 (Int32.of_int seq);
  Bytes.set_int32_le h 8 (Int32.of_int (List.length blocks));
  List.iteri (fun i bno -> Bytes.set_int32_le h (16 + (4 * i)) (Int32.of_int bno)) blocks;
  let ck = log_cksum h in
  Bytes.set_int32_le h 12 (Int32.of_int (if good_cksum then ck else ck lxor 1));
  Bytes.blit h 0 img (logstart img * bb) bb

let mount_image img =
  check_fs_ok "mount" (Fs.Xv6fs.mount (Fs.Xv6fs.io_of_image img))

let check_fsck name fs =
  let r = Fs.Xv6fs.fsck fs in
  if not r.Fs.Xv6fs.fsck_clean then
    Alcotest.failf "%s: fsck: %s" name
      (String.concat "; " r.Fs.Xv6fs.fsck_errors)

(* ---- the journal format ---- *)

let journaled_mount_is_clean () =
  let img = Fs.Xv6fs.mkfs ~nlog:32 ~total_blocks:512 ~ninodes:16 () in
  let t = mount_image img in
  check_bool "journaled" true (Fs.Xv6fs.journaled t);
  check_int "nothing to replay" 0 (Fs.Xv6fs.log_replayed t);
  check_int "no commits yet" 0 (Fs.Xv6fs.log_commits t);
  check_fsck "fresh image" t;
  (* and the journal-free format is untouched by the feature *)
  let legacy = Fs.Xv6fs.mkfs ~total_blocks:512 ~ninodes:16 () in
  check_bool "legacy not journaled" false (Fs.Xv6fs.journaled (mount_image legacy))

let replay_installs_committed_tx () =
  let img = Fs.Xv6fs.mkfs ~nlog:8 ~total_blocks:256 ~ninodes:8 () in
  (* a committed-but-uninstalled transaction: one log slot destined for a
     free data block the crash interrupted on its way home *)
  let dest = datastart img + 10 in
  let payload = Bytes.make bb 'J' in
  Bytes.blit payload 0 img ((logstart img + 1) * bb) bb;
  stamp_header img ~good_cksum:true ~seq:3 ~blocks:[ dest ];
  let t = mount_image img in
  check_int "replayed one block" 1 (Fs.Xv6fs.log_replayed t);
  check_bool "slot installed home" true
    (Bytes.equal payload (Bytes.sub img (dest * bb) bb));
  (* the record is cleared: a second mount replays nothing *)
  check_int "idempotent" 0 (Fs.Xv6fs.log_replayed (mount_image img));
  check_fsck "after replay" t

let torn_commit_record_is_ignored () =
  let img = Fs.Xv6fs.mkfs ~nlog:8 ~total_blocks:256 ~ninodes:8 () in
  let dest = datastart img + 10 in
  let before = Bytes.sub img (dest * bb) bb in
  Bytes.blit (Bytes.make bb 'J') 0 img ((logstart img + 1) * bb) bb;
  stamp_header img ~good_cksum:false ~seq:3 ~blocks:[ dest ];
  let t = mount_image img in
  check_int "bad checksum means no commit" 0 (Fs.Xv6fs.log_replayed t);
  check_bool "home block untouched" true
    (Bytes.equal before (Bytes.sub img (dest * bb) bb));
  check_fsck "old state intact" t

(* ---- write-ahead: pinning defers home blocks until commit ---- *)

let pinning_defers_until_commit () =
  let board = Hw.Board.create ~sd_mib:1 () in
  let base = Fs.Xv6fs.mkfs ~nlog:32 ~total_blocks:512 ~ninodes:16 () in
  let image = Bytes.copy base in
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:2 ~capacity:64
      ~writeback:true ()
  in
  let fs = check_fs_ok "mount" (Fs.Xv6fs.mount (Core.Bufcache.xv6_io bc)) in
  let f = check_fs_ok "create" (Fs.Xv6fs.create fs "/p" Fs.Xv6fs.Reg) in
  let data = Bytes.make 3000 'p' in
  ignore (check_fs_ok "write" (Fs.Xv6fs.writei fs f ~off:0 ~data));
  check_bool "tx open" true (Fs.Xv6fs.log_pending fs > 0);
  check_bool "home blocks pinned" true (Core.Bufcache.pinned_blocks bc > 0);
  (* the medium still holds the pre-transaction state *)
  let snap = mount_image (Bytes.copy image) in
  check_fsck "media consistent pre-commit" snap;
  check_fs_err "file not durable yet" (Fs.Error.No_entry "xv6fs: no such entry: p")
    (Fs.Xv6fs.lookup snap "/p");
  (* commit + barrier: everything lands, pins drop *)
  check_bool "commit wrote blocks" true (Fs.Xv6fs.commit fs > 0);
  Core.Bufcache.barrier bc;
  check_int "no pins after commit" 0 (Core.Bufcache.pinned_blocks bc);
  let snap2 = mount_image (Bytes.copy image) in
  check_int "clean commit leaves no replay" 0 (Fs.Xv6fs.log_replayed snap2);
  let f2 = check_fs_ok "durable" (Fs.Xv6fs.lookup snap2 "/p") in
  check_bool "content durable" true
    (Bytes.equal data (check_fs_ok "read" (Fs.Xv6fs.readi snap2 f2 ~off:0 ~len:3000)));
  check_fsck "media consistent post-commit" snap2

(* ---- exhaustive power-cut sweep ----

   A short workload through the cache; then one trial per media sector a
   clean run writes, cutting the rail there (tearing multi-sector block
   writes in half) and requiring every remount to be fsck-clean. *)

let sweep_base () = Fs.Xv6fs.mkfs ~nlog:32 ~total_blocks:512 ~ninodes:16 ()

let sweep_once ~base ~cut =
  let board = Hw.Board.create ~sd_mib:1 () in
  (match cut with
  | Some sectors -> Hw.Power.cut_after_media_writes board.Hw.Board.supply ~sectors
  | None -> ());
  let image = Bytes.copy base in
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Ram image) ~block_sectors:2 ~capacity:32
      ~writeback:true ()
  in
  let fs = check_fs_ok "mount" (Fs.Xv6fs.mount (Core.Bufcache.xv6_io bc)) in
  let sync () =
    ignore (Fs.Xv6fs.commit fs);
    Core.Bufcache.barrier bc
  in
  let f = check_fs_ok "create /a" (Fs.Xv6fs.create fs "/a" Fs.Xv6fs.Reg) in
  ignore (check_fs_ok "w1" (Fs.Xv6fs.writei fs f ~off:0 ~data:(Bytes.make 3000 'a')));
  sync ();
  Fs.Xv6fs.truncate fs f;
  ignore (check_fs_ok "w2" (Fs.Xv6fs.writei fs f ~off:0 ~data:(Bytes.make 5000 'b')));
  ignore (check_fs_ok "create /b" (Fs.Xv6fs.create fs "/b" Fs.Xv6fs.Reg));
  sync ();
  (board, image)

let exhaustive_cut_sweep () =
  let base = sweep_base () in
  let board, _ = sweep_once ~base ~cut:None in
  let total = Hw.Power.media_writes board.Hw.Board.supply in
  check_bool "clean run hits the medium" true (total > 0);
  let replays = ref 0 in
  for cut = 1 to total do
    let board, image = sweep_once ~base ~cut:(Some cut) in
    Hw.Power.revive board.Hw.Board.supply;
    let bc =
      Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
        ~backing:(Core.Bufcache.Ram image) ~block_sectors:2 ()
    in
    match Fs.Xv6fs.mount (Core.Bufcache.xv6_io bc) with
    | Error e ->
        Alcotest.failf "cut %d/%d: remount: %s" cut total (Fs.Error.to_string e)
    | Ok fs ->
        if Fs.Xv6fs.log_replayed fs > 0 then incr replays;
        let r = Fs.Xv6fs.fsck fs in
        if not r.Fs.Xv6fs.fsck_clean then
          Alcotest.failf "cut %d/%d: fsck: %s" cut total
            (String.concat "; " r.Fs.Xv6fs.fsck_errors)
  done;
  check_bool "some cuts landed inside a commit" true (!replays > 0)

(* ---- the randomized harness is deterministic ---- *)

let crashbench_deterministic () =
  let a = Benchlib.Crashbench.run ~seed:99L ~trials:150 () in
  let b = Benchlib.Crashbench.run ~seed:99L ~trials:150 () in
  check_int "no fsck failures" 0 a.Benchlib.Crashbench.s_fsck_failures;
  check_int "no invariant failures" 0 a.Benchlib.Crashbench.s_invariant_failures;
  check_string "same seed, same run hash" a.Benchlib.Crashbench.s_run_hash
    b.Benchlib.Crashbench.s_run_hash;
  check_bool "replays observed" true
    (a.Benchlib.Crashbench.s_replayed_trials > 0);
  (* the deterministic half of BENCH_crash.json for this configuration,
     pinned: a change that moves any cut, commit or replay shows here *)
  check_string "deterministic report"
    "{\n\
    \  \"benchmark\": \"crashbench\",\n\
    \  \"seed\": 99,\n\
    \  \"trials\": 150,\n\
    \  \"media_sectors\": 1976,\n\
    \  \"journal_commits\": 1683,\n\
    \  \"replayed_trials\": 74,\n\
    \  \"replayed_blocks\": 1953,\n\
    \  \"fsck_failures\": 0,\n\
    \  \"invariant_failures\": 0,\n\
    \  \"run_hash\": \"3d678aa57538d517ac427d1a51624350\"\n\
     }"
    (Benchlib.Report.to_string
       (Benchlib.Report.Obj (fst (Benchlib.Crashbench.report a))))

(* ---- fsck detects what the journal cannot prevent ---- *)

let fsck_flags_bitmap_corruption () =
  let img = Fs.Xv6fs.mkfs ~nlog:8 ~total_blocks:256 ~ninodes:8 () in
  (* the root directory's data block is in use; clear its bitmap bit *)
  let blk = datastart img in
  let off = (bmapstart img * bb) + (blk mod (bb * 8) / 8) in
  let bit = blk mod 8 in
  Bytes.set_uint8 img off (Bytes.get_uint8 img off land lnot (1 lsl bit));
  let r = Fs.Xv6fs.fsck (mount_image img) in
  check_bool "in-use block marked free is flagged" false r.Fs.Xv6fs.fsck_clean

let fsck_flags_leaked_block () =
  let img = Fs.Xv6fs.mkfs ~nlog:8 ~total_blocks:256 ~ninodes:8 () in
  (* mark a block no file references as allocated *)
  let blk = datastart img + 20 in
  let off = (bmapstart img * bb) + (blk mod (bb * 8) / 8) in
  let bit = blk mod 8 in
  Bytes.set_uint8 img off (Bytes.get_uint8 img off lor (1 lsl bit));
  let r = Fs.Xv6fs.fsck (mount_image img) in
  check_bool "leaked block is flagged" false r.Fs.Xv6fs.fsck_clean

let suite_journal =
  ( "fs.journal",
    [
      quick "journaled image mounts clean" journaled_mount_is_clean;
      quick "replay installs a committed tx" replay_installs_committed_tx;
      quick "torn commit record is ignored" torn_commit_record_is_ignored;
      quick "pinning defers home writes until commit" pinning_defers_until_commit;
      quick "exhaustive power-cut sweep stays fsck-clean" exhaustive_cut_sweep;
      slow "crash harness is deterministic" crashbench_deterministic;
      quick "fsck flags bitmap corruption" fsck_flags_bitmap_corruption;
      quick "fsck flags leaked blocks" fsck_flags_leaked_block;
    ] )

(* ---- kernel-level contracts ---- *)

let journal_config =
  { test_config with Core.Kconfig.journal = true; writeback = true }

(* fsync on the journaled rootfs commits the open transaction and drops
   every pin; the ack means the data is on the medium. *)
let fsync_commits_rootfs () =
  in_kernel ~config:journal_config (fun kernel ->
      let fd =
        User.Usys.open_ "/f.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
      in
      check_bool "open" true (fd >= 0);
      check_int "write" 6000 (User.Usys.write fd (Bytes.make 6000 'x'));
      let rootfs = kernel.Core.Kernel.rootfs in
      let c0 = Fs.Xv6fs.log_commits rootfs in
      check_int "fsync" 0 (User.Usys.fsync fd);
      check_bool "fsync committed" true (Fs.Xv6fs.log_commits rootfs > c0);
      check_int "no open tx after fsync" 0 (Fs.Xv6fs.log_pending rootfs);
      check_int "no pins after fsync" 0
        (Core.Bufcache.pinned_blocks kernel.Core.Kernel.root_bc);
      ignore (User.Usys.close fd))

(* fsync's barrier drains the whole device queue: a write queued before
   the fsync cannot be reordered past the ack. Regression for the
   ordering audit — the FAT32 cache sits on the real SD queue. *)
let fsync_barriers_device_queue () =
  in_kernel ~config:{ test_config with Core.Kconfig.writeback = true }
    (fun kernel ->
      let sd = kernel.Core.Kernel.board.Hw.Board.sd in
      let fd =
        User.Usys.open_ "/d/f.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
      in
      check_bool "open" true (fd >= 0);
      check_int "write" 4096 (User.Usys.write fd (Bytes.make 4096 'q'));
      (* an unrelated write sits in the device queue ahead of the fsync *)
      check_ok "backlog"
        (Hw.Sd.enqueue_write sd ~lba:(Hw.Sd.sectors sd - 1)
           ~data:(Bytes.make Hw.Disk.sector_bytes 'z'));
      check_bool "queue non-empty" true (Hw.Sd.queued sd > 0);
      let b0 = Hw.Sd.barrier_count sd in
      check_int "fsync" 0 (User.Usys.fsync fd);
      check_int "queue drained through the barrier" 0 (Hw.Sd.queued sd);
      check_bool "a barrier was issued" true (Hw.Sd.barrier_count sd > b0);
      ignore (User.Usys.close fd))

(* clean shutdown checkpoints the journal: remounting the medium replays
   nothing and the data is all there *)
let clean_shutdown_replays_nothing () =
  let kernel = boot_kernel ~config:journal_config () in
  (match
     Benchlib.Measure.run_task kernel ~name:"writer" (fun () ->
         let fd =
           User.Usys.open_ "/s.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
         in
         check_int "write" 9000 (User.Usys.write fd (Bytes.make 9000 's'));
         ignore (User.Usys.close fd))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Core.Kernel.shutdown kernel;
  let image =
    match Core.Bufcache.backing_image kernel.Core.Kernel.root_bc with
    | Some i -> Bytes.copy i
    | None -> Alcotest.fail "rootfs cache is not RAM-backed"
  in
  let t = mount_image image in
  check_bool "journaled" true (Fs.Xv6fs.journaled t);
  check_int "nothing to replay after clean shutdown" 0 (Fs.Xv6fs.log_replayed t);
  check_fsck "clean shutdown" t;
  let f = check_fs_ok "file durable" (Fs.Xv6fs.lookup t "/s.dat") in
  check_bool "content durable" true
    (Bytes.equal (Bytes.make 9000 's')
       (check_fs_ok "read" (Fs.Xv6fs.readi t f ~off:0 ~len:9000)))

(* a power cut mid-run leaves a medium every remount accepts *)
let kernel_power_cut_is_recoverable () =
  let kernel = boot_kernel ~config:journal_config () in
  let supply = kernel.Core.Kernel.board.Hw.Board.supply in
  (match
     Benchlib.Measure.run_task kernel ~name:"writer" (fun () ->
         let fd =
           User.Usys.open_ "/c.dat" (Core.Abi.o_create lor Core.Abi.o_rdwr)
         in
         check_int "write" 4096 (User.Usys.write fd (Bytes.make 4096 'c'));
         check_int "fsync" 0 (User.Usys.fsync fd);
         (* the rail dies 37 sectors into whatever comes next *)
         Hw.Power.cut_after_media_writes supply ~sectors:37;
         ignore (User.Usys.write fd (Bytes.make 8192 'd'));
         ignore (User.Usys.fsync fd))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_bool "the cut fired" false (Hw.Power.alive supply);
  let image =
    match Core.Bufcache.backing_image kernel.Core.Kernel.root_bc with
    | Some i -> Bytes.copy i
    | None -> Alcotest.fail "rootfs cache is not RAM-backed"
  in
  let t = mount_image image in
  check_fsck "post-cut medium" t;
  (* the acked pre-cut write is never lost *)
  let f = check_fs_ok "file survives" (Fs.Xv6fs.lookup t "/c.dat") in
  let size = (Fs.Xv6fs.stat_of t f).Fs.Xv6fs.st_size in
  check_bool "at least the acked bytes" true (size >= 4096);
  let b = check_fs_ok "read" (Fs.Xv6fs.readi t f ~off:0 ~len:4096) in
  check_bool "acked prefix intact" true (Bytes.equal b (Bytes.make 4096 'c'))

let suite_kernel =
  ( "kernel.crash",
    [
      quick "fsync commits the rootfs journal" fsync_commits_rootfs;
      quick "fsync drains the device queue through a barrier"
        fsync_barriers_device_queue;
      quick "clean shutdown leaves nothing to replay"
        clean_shutdown_replays_nothing;
      quick "power cut mid-run is recoverable" kernel_power_cut_is_recoverable;
    ] )
