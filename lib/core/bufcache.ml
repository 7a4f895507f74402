(** The block buffer cache.

    The seed inherited xv6's design verbatim: fixed-size, single-block
    operations, write-through, an [int list] LRU — and the paper's §5.2
    bypass that sends FAT32 range reads straight to the SD driver because
    that cache bottlenecked multi-block access. This module keeps both of
    those paths selectable (the ablation bench still reproduces the §5.2
    comparison) and rebuilds the hot path around them:

    - an O(1) intrusive doubly-linked LRU (the seed's list LRU was O(n)
      per touch, O(n²) over a scan);
    - optional {e write-back}: [bwrite] marks the block dirty instead of
      paying the device's polling cost; dirty blocks reach the device via
      a periodic engine-scheduled flush daemon, an explicit [flush]
      (fsync / shutdown), or eviction;
    - flushes batch: the dirty set is sorted and fed block-by-block into
      the SD request queue, whose elevator sweep coalesces adjacent blocks
      into single commands ({!Hw.Sd.flush_queue});
    - optional sequential {e read-ahead}: a miss that continues a
      streaming miss pattern fetches [readahead] blocks in one device
      command instead of one.

    Time accounting: CPU cycles are charged to the current syscall context
    ([with_ctx] scopes it); device time is charged as IO time. Flushes run
    by the daemon carry no context — the daemon is a kernel thread polling
    on an otherwise-idle core, so its device time is not billed to the
    task that dirtied the blocks. That asynchrony (plus write absorption
    and command coalescing) is precisely the write-back win the iobench
    experiment measures. A ramdisk backing has no device time — only copy
    cycles. *)

type backing =
  | Ram of Bytes.t  (** the ramdisk image; sector-addressed *)
  | Card of Hw.Sd.t * int  (** SD card + partition start lba *)
  | Usb_msd of Hw.Usb.t  (** USB mass-storage bulk transfers *)

(* A cache entry is its own LRU link: [prev] is toward the MRU end,
   [next] toward the LRU end, so every touch/evict is O(1). *)
type entry = {
  e_key : int;
  mutable e_data : Bytes.t;
  mutable e_dirty : bool; [@locked_by "bclock"]
  mutable e_pinned : bool;
      (** owned by an open journal transaction: must not be evicted or
          reach the device until the transaction commits and unpins it *)
  mutable e_prev : entry option; [@locked_by "bclock"]
  mutable e_next : entry option; [@locked_by "bclock"]
}

type t = {
  backing : backing;
  board : Hw.Board.t;
  block_sectors : int;  (** cached unit: 2 for xv6fs (1 KB), 1 for FAT *)
  capacity : int;  (** blocks held; xv6's NBUF is 30 *)
  writeback : bool;
  readahead : int;  (** blocks prefetched on a streaming miss; 0 = off *)
  coalesce : bool;  (** flushes use the SD queue's adjacent-merge *)
  cache : (int, entry) Hashtbl.t;
  bclock : Spinlock.t;
      (** discipline-only leaf lock (no [~kcheck], no trace events) over
          the intrusive LRU links and the dirty accounting — the state a
          mid-traversal re-entry would corrupt; vrace R101 enforces the
          windows *)
  mutable mru : entry option; [@locked_by "bclock"]
  mutable lru : entry option; [@locked_by "bclock"]
      (** tail: next eviction victim *)
  mutable dirty_count : int; [@locked_by "bclock"]
  mutable next_expected : int;  (** streaming detector, miss-driven *)
  mutable ctx : Sched.ctx option;
  mutable daemon : Sim.Engine.event_id option;
      (** the flush daemon's next tick *)
  mutable hits : int;
  mutable misses : int;
  mutable prefetched : int;  (** blocks brought in by read-ahead *)
  mutable flush_batches : int;  (** device commands issued by flushes *)
  mutable flushed_blocks : int;
  mutable evict_writes : int;  (** dirty victims written synchronously *)
  mutable pinned_count : int;
  mutable barriers : int;  (** ordered-write barriers issued *)
  mutable pre_flush : (unit -> unit) option;
      (** group-commit hook: the flush daemon runs this before each
          periodic flush so an open journal transaction can commit and
          release its pins in the same sweep *)
  mutable in_pre_flush : bool;
  mutable obs : Sched.t option;
      (** kperf observer: when set, device requests record into the SD
          latency histogram and emit trace spans. Host-side bookkeeping
          only — never charges cycles, so BENCH output is unchanged. *)
}

let create ~board ~trace ~backing ~block_sectors ?(capacity = 30)
    ?(writeback = false) ?(readahead = 0) ?(coalesce = true) () =
  {
    backing;
    board;
    block_sectors;
    capacity;
    writeback;
    readahead;
    coalesce;
    cache = Hashtbl.create 64;
    bclock = Spinlock.create ~trace "bclock";
    mru = None;
    lru = None;
    dirty_count = 0;
    next_expected = min_int;
    ctx = None;
    daemon = None;
    hits = 0;
    misses = 0;
    prefetched = 0;
    flush_batches = 0;
    flushed_blocks = 0;
    evict_writes = 0;
    pinned_count = 0;
    barriers = 0;
    pre_flush = None;
    in_pre_flush = false;
    obs = None;
  }

let set_observer t sched = t.obs <- Some sched
let set_pre_flush t hook = t.pre_flush <- Some hook

let with_ctx t ctx f =
  let saved = t.ctx in
  t.ctx <- Some ctx;
  let finally () = t.ctx <- saved in
  match f () with
  | result ->
      finally ();
      result
  | exception e ->
      finally ();
      raise e

let charge_cycles t cycles =
  match t.ctx with Some ctx -> Sched.charge ctx cycles | None -> ()

let charge_io t ns =
  match t.ctx with
  | Some ctx -> Sched.charge_io ctx (Hw.Board.io_ns t.board ns)
  | None -> ()

(* A device request becomes a span [now, now + cost): the end event is
   stamped in the future because the request's virtual time is charged to
   the caller rather than simulated inline. The merged dump sorts by
   timestamp, so the pair still reads as a duration. *)
let observe_sd t ~op ~cost =
  match t.obs with
  | None -> ()
  | Some sched ->
      let io_ns = Hw.Board.io_ns t.board cost in
      Kperf.Hist.record sched.Sched.h_sd_req io_ns;
      let tr = sched.Sched.trace in
      let pid =
        match t.ctx with Some c -> c.Sched.task.Task.pid | None -> 0
      in
      let span = Ktrace.new_span tr in
      let now = Sched.now sched in
      Ktrace.emit tr ~ts_ns:now ~core:0 (Ktrace.Span_begin (span, pid, op));
      Ktrace.emit tr ~ts_ns:(Int64.add now io_ns) ~core:0 (Ktrace.Span_end span);
      (* vprobe's sd:issue and sd:complete, stamped now *)
      if Ktrace.probing tr then
        Ktrace.emit tr ~ts_ns:now ~core:0
          (Ktrace.Probe (Ktrace.Sd_request (pid, Int64.to_int io_ns)))

(* bufcache:hit / bufcache:miss, with the block number as arg0. *)
let observe_lookup t ~hit ~block =
  match t.obs with
  | Some sched when Ktrace.probing sched.Sched.trace ->
      let pid =
        match t.ctx with Some c -> c.Sched.task.Task.pid | None -> 0
      in
      Sched.trace_emit sched
        (Ktrace.Probe
           (if hit then Ktrace.Cache_hit (pid, block)
            else Ktrace.Cache_miss (pid, block)))
  | Some _ | None -> ()

let block_bytes t = t.block_sectors * Fs.Blockdev.sector_bytes

(* Read commands issued for one block before a persistent error is
   fatal; real SDHCI drivers carry the same small CRC-retry budget. *)
let sd_read_attempts = 4

(* raw device access in sectors *)
let device_read t ~lba ~count =
  match t.backing with
  | Ram image ->
      charge_cycles t (Kcost.copy_cycles ~bytes:(count * Fs.Blockdev.sector_bytes));
      Bytes.sub image (lba * Fs.Blockdev.sector_bytes)
        (count * Fs.Blockdev.sector_bytes)
  | Card (sd, first) ->
      (* A failed read is retried like a real polled driver re-issues a
         command after a CRC error — each attempt still pays the wire
         time. Transient faults (the fuzzer's marginal-card injection)
         clear within the budget; a persistent error is fatal as
         before, just [sd_read_attempts] commands later. *)
      let rec attempt n =
        match Hw.Sd.read sd ~lba:(first + lba) ~count with
        | Ok (data, cost) ->
            charge_io t cost;
            observe_sd t ~op:"sd:read" ~cost;
            data
        | Error e ->
            let cost = Hw.Sd.cost_ns ~count in
            charge_io t cost;
            observe_sd t ~op:"sd:read-retry" ~cost;
            if n + 1 < sd_read_attempts then attempt (n + 1)
            else Kpanic.panicf "%s (after %d attempts)" e sd_read_attempts
      in
      attempt 0
  | Usb_msd usb -> (
      match Hw.Usb.msd_read usb ~lba ~count with
      | Ok (data, cost) ->
          charge_io t cost;
          observe_sd t ~op:"usb:read" ~cost;
          data
      | Error e -> Kpanic.panicf "%s" e)

let device_write t ~lba data =
  match t.backing with
  | Ram image ->
      charge_cycles t (Kcost.copy_cycles ~bytes:(Bytes.length data));
      (* The ramdisk image plays the role of the medium for crash
         injection: the power rail budgets its sectors exactly like the
         card's, so a cut freezes the image at a write prefix. With no
         cut scheduled the budget always grants in full. *)
      let sectors = Bytes.length data / Fs.Blockdev.sector_bytes in
      let granted =
        Hw.Power.media_budget t.board.Hw.Board.supply ~sectors
      in
      if granted > 0 then
        Bytes.blit data 0 image
          (lba * Fs.Blockdev.sector_bytes)
          (granted * Fs.Blockdev.sector_bytes)
  | Card (sd, first) -> (
      match Hw.Sd.write sd ~lba:(first + lba) ~data with
      | Ok cost ->
          charge_io t cost;
          observe_sd t ~op:"sd:write" ~cost
      | Error e -> Kpanic.panicf "%s" e)
  | Usb_msd usb -> (
      match Hw.Usb.msd_write usb ~lba ~data with
      | Ok cost ->
          charge_io t cost;
          observe_sd t ~op:"usb:write" ~cost
      | Error e -> Kpanic.panicf "%s" e)

let device_sectors t =
  match t.backing with
  | Ram image -> Bytes.length image / Fs.Blockdev.sector_bytes
  | Card (sd, first) -> Hw.Sd.sectors sd - first
  | Usb_msd usb -> Hw.Usb.msd_sectors usb

(* ---- the O(1) LRU list ---- *)

let lru_unlink t e =
  Spinlock.protect t.bclock (fun () ->
      (match e.e_prev with
      | Some p -> p.e_next <- e.e_next
      | None -> t.mru <- e.e_next);
      (match e.e_next with
      | Some n -> n.e_prev <- e.e_prev
      | None -> t.lru <- e.e_prev);
      e.e_prev <- None;
      e.e_next <- None)

let lru_push_front t e =
  Spinlock.protect t.bclock (fun () ->
      e.e_next <- t.mru;
      (match t.mru with
      | Some m -> m.e_prev <- Some e
      | None -> t.lru <- Some e);
      t.mru <- Some e)

let lru_touch t e =
  match t.mru with
  | Some m when m == e -> ()
  | _ ->
      lru_unlink t e;
      lru_push_front t e

let set_dirty t e d =
  if e.e_dirty <> d then
    Spinlock.protect t.bclock (fun () ->
        e.e_dirty <- d;
        t.dirty_count <- t.dirty_count + (if d then 1 else -1))

(* Evict the LRU victim; a dirty victim pays its deferred device write
   synchronously (the honest backpressure path when the flush daemon has
   fallen behind or is not running). Pinned blocks are journal-owned and
   skipped — evicting (and thus writing) one before its transaction
   commits would break the write-ahead invariant. Returns whether a
   victim was found. *)
let evict_victim t =
  let rec unpinned = function
    | None -> None
    | Some v when v.e_pinned -> unpinned v.e_prev
    | Some v -> Some v
  in
  match unpinned t.lru with
  | None -> false
  | Some v ->
      if v.e_dirty then begin
        t.evict_writes <- t.evict_writes + 1;
        t.flushed_blocks <- t.flushed_blocks + 1;
        set_dirty t v false;
        device_write t ~lba:(v.e_key * t.block_sectors) v.e_data
      end;
      lru_unlink t v;
      Hashtbl.remove t.cache v.e_key;
      true

let insert t key data ~dirty =
  (* if every block is pinned the cache temporarily overflows its
     capacity rather than violate the journal's write ordering *)
  while Hashtbl.length t.cache >= t.capacity && evict_victim t do
    ()
  done;
  let e =
    {
      e_key = key;
      e_data = data;
      e_dirty = false;
      e_pinned = false;
      e_prev = None;
      e_next = None;
    }
  in
  if dirty then set_dirty t e true;
  Hashtbl.replace t.cache key e;
  lru_push_front t e

(* ---- flush ---- *)

(* Push every dirty block to the device. Blocks are sorted and grouped so
   that contiguous runs become single commands: through the SD request
   queue (elevator + coalescing) for a card backing, or a direct merged
   range write otherwise. Returns the number of device commands issued. *)
let flush t =
  (* pinned dirty blocks stay behind: they belong to an uncommitted
     journal transaction and may only reach the device after its commit
     record is on media (the commit path unpins them) *)
  let dirty =
    Hashtbl.fold
      (fun _ e acc -> if e.e_dirty && not e.e_pinned then e :: acc else acc)
      t.cache []
  in
  if dirty = [] then 0
  else begin
    let dirty = List.sort (fun a b -> compare a.e_key b.e_key) dirty in
    let n = List.length dirty in
    charge_cycles t (Kcost.bufcache_flush_setup + (n * Kcost.bufcache_flush_block));
    let batches =
      match t.backing with
      | Card (sd, first) ->
          List.iter
            (fun e ->
              match
                Hw.Sd.enqueue_write sd
                  ~lba:(first + (e.e_key * t.block_sectors))
                  ~data:e.e_data
              with
              | Ok () -> ()
              | Error msg -> Kpanic.panicf "%s" msg)
            dirty;
          (match Hw.Sd.flush_queue ~coalesce:t.coalesce sd with
          | Ok (cost, commands) ->
              charge_io t cost;
              observe_sd t ~op:"sd:flush" ~cost;
              commands
          | Error msg -> Kpanic.panicf "%s" msg)
      | Ram _ | Usb_msd _ ->
          (* group contiguous keys into one range write per run *)
          let runs =
            List.fold_left
              (fun acc e ->
                match acc with
                | (last :: _ as run) :: rest
                  when t.coalesce && last.e_key + 1 = e.e_key ->
                    (e :: run) :: rest
                | _ -> [ e ] :: acc)
              [] dirty
            |> List.rev_map List.rev
          in
          List.iter
            (fun run ->
              let bytes = block_bytes t in
              let data = Bytes.create (List.length run * bytes) in
              List.iteri
                (fun i e -> Bytes.blit e.e_data 0 data (i * bytes) bytes)
                run;
              device_write t
                ~lba:((List.hd run).e_key * t.block_sectors)
                data)
            runs;
          List.length runs
    in
    List.iter (fun e -> set_dirty t e false) dirty;
    t.flush_batches <- t.flush_batches + batches;
    t.flushed_blocks <- t.flushed_blocks + n;
    batches
  end

(* A flush on behalf of the daemon: device time goes to the daemon's
   core, not to whatever syscall context happens to be live. The
   pre-flush hook gives the journal its group-commit ride: the daemon
   commits whatever transaction blocks have accumulated, which unpins
   them, and the flush right after carries them out. The hook itself
   drives flushes (commit barriers), so re-entry is suppressed. *)
let flush_async t =
  let saved = t.ctx in
  t.ctx <- None;
  (match t.pre_flush with
  | Some hook when not t.in_pre_flush ->
      t.in_pre_flush <- true;
      let finally () = t.in_pre_flush <- false in
      (try hook ()
       with e ->
         finally ();
         raise e);
      finally ()
  | Some _ | None -> ());
  let batches = flush t in
  t.ctx <- saved;
  batches

(* The write paths wake the flusher early once half the cache is dirty,
   like a real write-back cache's watermark; only meaningful when the
   daemon exists (otherwise eviction provides the backpressure). *)
let maybe_wake_flusher t =
  if t.daemon <> None && t.dirty_count >= max 1 (t.capacity / 2) then
    ignore (flush_async t)

let stop_flush_daemon t =
  match t.daemon with
  | Some id ->
      Sim.Engine.cancel t.board.Hw.Board.engine id;
      t.daemon <- None
  | None -> ()

(* Flush, then schedule the next tick a period out. A stop or restart
   from inside the flush (the pre-flush hook runs journal code) has
   replaced [daemon] by then, and ends this chain. *)
let start_flush_daemon t ~interval_ms =
  let engine = t.board.Hw.Board.engine in
  let period = Sim.Engine.ms (max 1 interval_ms) in
  stop_flush_daemon t;
  let rec tick () =
    let self = t.daemon in
    ignore (flush_async t);
    if t.daemon == self then
      t.daemon <- Some (Sim.Engine.schedule_after engine period tick)
  in
  t.daemon <- Some (Sim.Engine.schedule_after engine period tick)

(* ---- reads ---- *)

(* Block numbers arrive from on-disk metadata, which a hostile or
   corrupt image controls; an out-of-range block must die as a clean
   panic naming the block, not as Bytes.sub blowing up inside the
   backing store. *)
let check_block t n =
  let blocks = device_sectors t / t.block_sectors in
  if n < 0 || n >= blocks then
    Kpanic.panicf "bufcache: block %d out of range (device has %d blocks)" n
      blocks

(* Single-block read through the cache (block number in cache units). *)
let bread t n =
  check_block t n;
  charge_cycles t Kcost.bufcache_hit;
  match Hashtbl.find_opt t.cache n with
  | Some e ->
      t.hits <- t.hits + 1;
      observe_lookup t ~hit:true ~block:n;
      lru_touch t e;
      Bytes.copy e.e_data
  | None ->
      t.misses <- t.misses + 1;
      observe_lookup t ~hit:false ~block:n;
      charge_cycles t Kcost.bufcache_miss_extra;
      let streaming = n = t.next_expected in
      let ra =
        if streaming && t.readahead > 1 then
          (* don't let one prefetch wash out the cache, or run off the
             end of the device *)
          min
            (min t.readahead (max 2 (t.capacity / 2)))
            ((device_sectors t / t.block_sectors) - n)
        else 0
      in
      if ra > 1 then begin
        (* streaming: fetch [n, n+ra) in one device command *)
        charge_cycles t Kcost.readahead_setup;
        let data = device_read t ~lba:(n * t.block_sectors) ~count:(ra * t.block_sectors) in
        let bytes = block_bytes t in
        (* insert back-to-front so the demanded block ends up MRU *)
        for i = ra - 1 downto 0 do
          let key = n + i in
          let blk = Bytes.sub data (i * bytes) bytes in
          match Hashtbl.find_opt t.cache key with
          | Some e ->
              (* never clobber a dirty block with stale device data *)
              if not e.e_dirty then e.e_data <- blk
          | None ->
              insert t key blk ~dirty:false;
              if i > 0 then t.prefetched <- t.prefetched + 1
        done;
        t.next_expected <- n + ra;
        Bytes.sub data 0 bytes
      end
      else begin
        t.next_expected <- n + 1;
        let data = device_read t ~lba:(n * t.block_sectors) ~count:t.block_sectors in
        insert t n (Bytes.copy data) ~dirty:false;
        data
      end

(* ---- writes ---- *)

let bwrite t n data =
  assert (Bytes.length data = block_bytes t);
  check_block t n;
  charge_cycles t Kcost.bufcache_hit;
  if t.writeback then begin
    charge_cycles t Kcost.bufcache_dirty_mark;
    (match Hashtbl.find_opt t.cache n with
    | Some e ->
        e.e_data <- Bytes.copy data;
        set_dirty t e true;
        lru_touch t e
    | None -> insert t n (Bytes.copy data) ~dirty:true);
    maybe_wake_flusher t
  end
  else begin
    match Hashtbl.find_opt t.cache n with
    | Some e when e.e_pinned ->
        (* journal-owned: even a write-through cache must defer this
           block until its transaction commits and unpins it *)
        e.e_data <- Bytes.copy data;
        set_dirty t e true;
        lru_touch t e
    | Some e ->
        e.e_data <- Bytes.copy data;
        lru_touch t e;
        device_write t ~lba:(n * t.block_sectors) data
    | None ->
        insert t n (Bytes.copy data) ~dirty:false;
        device_write t ~lba:(n * t.block_sectors) data
  end

(* ---- journal support: pinning and the ordered-write barrier ---- *)

(* Pin (or release) a block on behalf of a journal transaction. Pinning
   faults the block in if needed — the transaction is about to overwrite
   it, and the pin must be in place before the write so neither the
   flush daemon nor eviction can push the uncommitted version. *)
let pin t n ~pin =
  match Hashtbl.find_opt t.cache n with
  | Some e ->
      if e.e_pinned <> pin then begin
        e.e_pinned <- pin;
        t.pinned_count <- t.pinned_count + (if pin then 1 else -1)
      end
  | None ->
      if pin then begin
        ignore (bread t n);
        match Hashtbl.find_opt t.cache n with
        | Some e ->
            e.e_pinned <- true;
            t.pinned_count <- t.pinned_count + 1
        | None -> Kpanic.panicf "bufcache: cannot pin block %d" n
      end

(* Ordered-write barrier: every unpinned dirty block is on the medium
   when this returns, and the device queue is drained so the elevator
   cannot reorder a later write ahead of an earlier one across the
   barrier. This is what makes the journal's commit point a real point:
   log data < commit record < install < clear. Free on a clean cache. *)
let barrier t =
  ignore (flush t);
  t.barriers <- t.barriers + 1;
  match t.backing with
  | Card (sd, _) -> (
      match Hw.Sd.barrier ~coalesce:t.coalesce sd with
      | Ok (cost, commands) ->
          if commands > 0 then begin
            charge_io t cost;
            observe_sd t ~op:"sd:barrier" ~cost;
            t.flush_batches <- t.flush_batches + commands
          end
      | Error msg -> Kpanic.panicf "%s" msg)
  | Ram _ | Usb_msd _ -> ()

(* The §5.2 bypass: a multi-sector read straight to the device, skipping
   the cache (and so paying the command overhead only once). Under
   write-back, cached dirty sectors shadow the device image. *)
let read_range_direct t ~lba ~count =
  let out = device_read t ~lba ~count in
  if t.writeback && t.block_sectors = 1 then
    for i = 0 to count - 1 do
      match Hashtbl.find_opt t.cache (lba + i) with
      | Some e when e.e_dirty ->
          Bytes.blit e.e_data 0 out (i * Fs.Blockdev.sector_bytes)
            Fs.Blockdev.sector_bytes
      | Some _ | None -> ()
    done;
  out

(* The pre-optimization path for ranges: sector-by-sector through the
   cache — one device command per miss, unless read-ahead batches the
   streaming pattern. *)
let read_range_cached t ~lba ~count =
  assert (t.block_sectors = 1);
  let out = Bytes.create (count * Fs.Blockdev.sector_bytes) in
  for i = 0 to count - 1 do
    let sector = bread t (lba + i) in
    Bytes.blit sector 0 out (i * Fs.Blockdev.sector_bytes)
      Fs.Blockdev.sector_bytes
  done;
  out

let write_range t ~lba data =
  let sectors = Bytes.length data / Fs.Blockdev.sector_bytes in
  if t.writeback && t.block_sectors = 1 && sectors <= max 1 (t.capacity / 4)
  then begin
    (* absorb small ranges as dirty blocks; the flush path batches them *)
    charge_cycles t (Kcost.bufcache_dirty_mark * sectors);
    for i = 0 to sectors - 1 do
      let key = lba + i in
      let blk =
        Bytes.sub data (i * Fs.Blockdev.sector_bytes) Fs.Blockdev.sector_bytes
      in
      match Hashtbl.find_opt t.cache key with
      | Some e ->
          e.e_data <- blk;
          set_dirty t e true;
          lru_touch t e
      | None -> insert t key blk ~dirty:true
    done;
    maybe_wake_flusher t
  end
  else begin
    (* large ranges go straight to the device in one command; cached
       copies are refreshed and now clean (they match the device) *)
    if t.block_sectors = 1 then
      for i = 0 to sectors - 1 do
        match Hashtbl.find_opt t.cache (lba + i) with
        | Some e ->
            e.e_data <-
              Bytes.sub data (i * Fs.Blockdev.sector_bytes)
                Fs.Blockdev.sector_bytes;
            set_dirty t e false
        | None -> ()
      done;
    device_write t ~lba data
  end

(* ---- filesystem adapters ---- *)

let xv6_io t : Fs.Xv6fs.io =
  assert (t.block_sectors = 2);
  {
    Fs.Xv6fs.bread = (fun n -> bread t n);
    bwrite = (fun n b -> bwrite t n b);
    bsync = (fun () -> barrier t);
    bpin = (fun n ~pin:p -> pin t n ~pin:p);
  }

let fat_io t ~range_bypass : Fs.Fat32.io =
  assert (t.block_sectors = 1);
  let read ~lba ~count =
    if count = 1 then bread t lba
    else if range_bypass then read_range_direct t ~lba ~count
    else read_range_cached t ~lba ~count
  in
  let write ~lba ~data =
    if Bytes.length data = Fs.Blockdev.sector_bytes then bwrite t lba data
    else write_range t ~lba data
  in
  { Fs.Fat32.read; write }

(* ---- stats ---- *)

let hits t = t.hits
let misses t = t.misses
let dirty_blocks t = t.dirty_count
let prefetched t = t.prefetched
let flush_batches t = t.flush_batches
let flushed_blocks t = t.flushed_blocks
let evict_writes t = t.evict_writes
let pinned_blocks t = t.pinned_count
let barrier_count t = t.barriers

(* The raw backing image of a ramdisk-backed cache — the crash tests
   remount it after a power cut, the way a real reboot would re-read the
   card. [None] for device backings (use the device's image instead). *)
let backing_image t = match t.backing with Ram i -> Some i | Card _ | Usb_msd _ -> None
