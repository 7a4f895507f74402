(* Polling-driver cost model, calibrated to the paper's Figure 8: a
   single-block polled transfer sustains ~300 KB/s; an 8+ block range
   amortizes the command overhead for a 2-3x win. *)
let cmd_overhead_ns = 1_100_000L
let per_sector_ns = 600_000L
let init_cost_ns = 180_000_000L (* card identify + switch to high speed *)

type pending = { p_lba : int; p_data : Bytes.t }

type t = {
  disk : Disk.t;
  mutable reads : int;
  mutable writes : int;
  mutable queue : pending list;  (** pending writes, most recent first *)
  mutable merged : int;  (** requests absorbed into a neighbour's command *)
  mutable psu : Power.supply option;
      (** when set, every media write asks the rail for a sector budget;
          a power cut drops (or tears) the write *)
  mutable barriers : int;
  mutable read_faults : int;
      (** pending injected transient read faults: each one makes the next
          read command fail with a CRC-style error, then clears *)
  mutable faulted_reads : int;
}

let create _engine ~size_mib =
  assert (size_mib > 0);
  {
    disk = Disk.create ~sectors:(size_mib * 1024 * 1024 / Disk.sector_bytes);
    reads = 0;
    writes = 0;
    queue = [];
    merged = 0;
    psu = None;
    barriers = 0;
    read_faults = 0;
    faulted_reads = 0;
  }

let set_supply t supply = t.psu <- Some supply

(* Transient read-fault injection (the fuzz harness's device hostility):
   the next [count] read commands fail the way a marginal card fails — a
   CRC error on the wire, data intact on the medium — so a driver that
   retries sees the original bytes on the next attempt. *)
let inject_read_faults t ~count = t.read_faults <- t.read_faults + max 0 count
let pending_read_faults t = t.read_faults

let sectors t = Disk.sectors t.disk

let cost_ns ~count =
  Int64.add cmd_overhead_ns (Int64.mul (Int64.of_int count) per_sector_ns)

let read t ~lba ~count =
  if count <= 0 then Error "sd: zero-length read"
  else if lba < 0 || lba > sectors t - count then Error "sd: read out of range"
  else if t.read_faults > 0 then begin
    (* the command was issued and paid for, the reply failed its CRC *)
    t.reads <- t.reads + 1;
    t.read_faults <- t.read_faults - 1;
    t.faulted_reads <- t.faulted_reads + 1;
    Error "sd: transient read fault (CRC)"
  end
  else begin
    t.reads <- t.reads + 1;
    Ok (Disk.read t.disk ~lba ~count, cost_ns ~count)
  end

let write t ~lba ~data =
  let len = Bytes.length data in
  if len = 0 || len mod Disk.sector_bytes <> 0 then
    Error "sd: write must be whole sectors"
  else begin
    let count = len / Disk.sector_bytes in
    if lba < 0 || lba > sectors t - count then Error "sd: write out of range"
    else begin
      t.writes <- t.writes + 1;
      (* The rail decides how many leading sectors the medium absorbs: all
         of them while power is up, a torn prefix at the cut, none after.
         The command itself still "completes" — a dying card does not
         report the loss, which is exactly the hazard the journal's
         commit barrier exists for. *)
      let granted =
        match t.psu with
        | None -> count
        | Some s -> Power.media_budget s ~sectors:count
      in
      Disk.write t.disk ~lba ~count:granted data;
      Ok (cost_ns ~count)
    end
  end

(* ---- request queue ----

   Pending writes accumulate here (the buffer cache's flush path feeds
   it one block at a time) and are issued by [flush_queue] in a single
   ascending-LBA elevator sweep, with adjacent transfers coalesced into
   one command — so a batch of contiguous dirty blocks pays the command
   overhead once, exactly like the range operations above. *)

let enqueue_write t ~lba ~data =
  let len = Bytes.length data in
  if len = 0 || len mod Disk.sector_bytes <> 0 then
    Error "sd: write must be whole sectors"
  else begin
    let count = len / Disk.sector_bytes in
    if lba < 0 || lba > sectors t - count then Error "sd: write out of range"
    else begin
      t.queue <- { p_lba = lba; p_data = Bytes.copy data } :: t.queue;
      Ok ()
    end
  end

let queued t = List.length t.queue

let flush_queue ?(coalesce = true) t =
  (* elevator order: one ascending sweep; stable so same-LBA requests
     keep submission order (the later write lands last) *)
  let reqs =
    List.stable_sort (fun a b -> compare a.p_lba b.p_lba) (List.rev t.queue)
  in
  t.queue <- [];
  let sectors_of r = Bytes.length r.p_data / Disk.sector_bytes in
  (* group exactly-adjacent requests into single commands *)
  let runs =
    if not coalesce then List.rev_map (fun r -> [ r ]) reqs |> List.rev
    else
      List.fold_left
        (fun acc r ->
          match acc with
          | (last :: _ as run) :: rest
            when last.p_lba + sectors_of last = r.p_lba ->
              t.merged <- t.merged + 1;
              (r :: run) :: rest
          | _ -> [ r ] :: acc)
        [] reqs
      |> List.rev_map List.rev
  in
  let rec issue cost commands = function
    | [] -> Ok (cost, commands)
    | run :: rest -> (
        let run_lba = (List.hd run).p_lba in
        let total = List.fold_left (fun a r -> a + sectors_of r) 0 run in
        let data = Bytes.create (total * Disk.sector_bytes) in
        ignore
          (List.fold_left
             (fun off r ->
               Bytes.blit r.p_data 0 data off (Bytes.length r.p_data);
               off + Bytes.length r.p_data)
             0 run);
        match write t ~lba:run_lba ~data with
        | Ok c -> issue (Int64.add cost c) (commands + 1) rest
        | Error e -> Error e)
  in
  issue 0L 0 runs

let merged_count t = t.merged

(* Ordered-write barrier: everything queued before the barrier is on the
   medium when it returns, and nothing issued after it can be reordered
   ahead by the elevator (the queue is empty). An empty queue costs
   nothing, so a barrier on an already-synced card is free. *)
let barrier ~coalesce t =
  t.barriers <- t.barriers + 1;
  if t.queue = [] then Ok (0L, 0) else flush_queue ~coalesce t

let barrier_count t = t.barriers

let read_count t = t.reads
let write_count t = t.writes
