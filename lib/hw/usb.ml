type report = { modifiers : int; keys : int list }

type t = {
  engine : Sim.Engine.t;
  intc : Intc.t;
  mutable ready : bool;
  mutable powered : bool;
  mutable modifiers : int;
  mutable held : int list;  (* usage codes, oldest first, max 6 *)
  mutable dirty : bool;
  mutable latched : report list;  (* newest first *)
  mutable msd : Disk.t option;  (* mass-storage medium *)
  mutable gen : int;  (* plug generation; a stale frame chain ends *)
}

let init_cost_ns = 1_100_000_000L
let frame_interval_ns = 8_000_000L

let create engine intc =
  {
    engine;
    intc;
    ready = false;
    powered = false;
    modifiers = 0;
    held = [];
    dirty = false;
    latched = [];
    msd = None;
    gen = 0;
  }

(* One host-controller frame: latch a report and raise the interrupt
   when keys changed, then schedule the next frame 8 ms out. The chain
   ends at the first frame after an unplug (the generation moved on). *)
let rec frame t gen () =
  if t.ready && t.gen = gen then begin
    if t.dirty then begin
      t.dirty <- false;
      t.latched <- { modifiers = t.modifiers; keys = t.held } :: t.latched;
      Intc.raise_line t.intc Irq.Usb_hc
    end;
    ignore (Sim.Engine.schedule_after t.engine frame_interval_ns (frame t gen))
  end

let power_on t =
  if not t.powered then begin
    t.powered <- true;
    let gen = t.gen in
    ignore
      (Sim.Engine.schedule_after t.engine init_cost_ns (fun () ->
           if t.powered && t.gen = gen then begin
             t.ready <- true;
             frame t gen ()
           end))
  end

let ready t = t.ready

(* Surprise removal of the keyboard function: the port drops, the frame
   service loop stops, and any half-latched state is gone. The model
   treats the mass-storage function as a separate port, so a mounted
   /usb volume survives a keyboard unplug (losing it mid-session would
   turn every fuzz run into a bufcache panic, which is a different
   experiment). [replug] re-enumerates from scratch and pays the full
   [init_cost_ns] again, exactly like a fresh [power_on]. *)
let unplug t =
  if t.powered || t.ready then begin
    t.gen <- t.gen + 1;
    t.ready <- false;
    t.powered <- false;
    t.modifiers <- 0;
    t.held <- [];
    t.dirty <- false;
    t.latched <- []
  end

let replug t = power_on t

let key_down t ?modifiers usage =
  (match modifiers with Some m -> t.modifiers <- m | None -> ());
  if not (List.mem usage t.held) then begin
    t.held <- t.held @ [ usage ];
    if List.length t.held > 6 then t.held <- List.tl t.held;
    t.dirty <- true
  end

let key_up t usage =
  if List.mem usage t.held then begin
    t.held <- List.filter (fun u -> u <> usage) t.held;
    if t.held = [] then t.modifiers <- 0;
    t.dirty <- true
  end

(* ---- mass storage: bulk-only transport over full-speed USB ---- *)

let msd_cmd_ns = 400_000L (* CBW + CSW round trip *)
let msd_bytes_per_sec = 2_000_000L (* the simple stack's bulk throughput *)

let attach_msd t disk = t.msd <- Some disk

let msd_attached t = t.msd <> None

let msd_sectors t =
  match t.msd with Some disk -> Disk.sectors disk | None -> 0

let msd_cost ~count =
  Int64.add msd_cmd_ns
    (Int64.div
       (Int64.mul (Int64.of_int (count * Disk.sector_bytes)) 1_000_000_000L)
       msd_bytes_per_sec)

let msd_read t ~lba ~count =
  match t.msd with
  | None -> Error "usb: no mass-storage device"
  | Some disk ->
      if count <= 0 || lba < 0 || lba > Disk.sectors disk - count then
        Error "usb: msd read out of range"
      else Ok (Disk.read disk ~lba ~count, msd_cost ~count)

let msd_write t ~lba ~data =
  match t.msd with
  | None -> Error "usb: no mass-storage device"
  | Some disk ->
      let len = Bytes.length data in
      if len = 0 || len mod Disk.sector_bytes <> 0 then
        Error "usb: msd write not sector-aligned"
      else begin
        let count = len / Disk.sector_bytes in
        if lba < 0 || lba > Disk.sectors disk - count then
          Error "usb: msd write out of range"
        else begin
          Disk.write disk ~lba ~count data;
          Ok (msd_cost ~count)
        end
      end

let take_reports t =
  let reports = List.rev t.latched in
  t.latched <- [];
  reports

let reports_pending t = List.length t.latched
