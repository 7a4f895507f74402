(** Keyboard input path: USB HID reports and GPIO buttons in, key events
    out through /dev/events (§4.4).

    The driver diffs successive HID reports into press/release events with
    modifiers — what UART cannot provide and games need (§4.3) — and queues
    them in a fixed ring. When a window manager is running it interposes
    as the sink and routes events to the focused window instead (§4.5).
    The ring and every window's queue are one {!queue}: the same cap, the
    same push and the same read. *)

type event = {
  ev_code : int;  (** HID usage code, or button pseudo-usage *)
  ev_pressed : bool;
  ev_modifiers : int;
  ev_ts_ns : int64;
}

(* 8-byte wire encoding read from /dev/events and /dev/event1:
   [pressed; code; modifiers; 0; ts_us as le32]. The stamp is the
   arrival time's low 32 bits of microseconds, so it wraps every 2^32 us
   (~71.6 virtual minutes). Nothing outside the tests reads a decoded
   stamp: Figure 11's input latency comes from the Kbd_report and
   Event_delivered trace stamps. *)
let event_bytes = 8

let encode ev =
  let b = Bytes.make event_bytes '\000' in
  Bytes.set_uint8 b 0 (if ev.ev_pressed then 1 else 0);
  Bytes.set_uint8 b 1 (ev.ev_code land 0xff);
  Bytes.set_uint8 b 2 (ev.ev_modifiers land 0xff);
  Bytes.set_int32_le b 4 (Int64.to_int32 (Int64.div ev.ev_ts_ns 1_000L));
  b

let decode b ~off =
  {
    ev_pressed = Bytes.get_uint8 b off = 1;
    ev_code = Bytes.get_uint8 b (off + 1);
    ev_modifiers = Bytes.get_uint8 b (off + 2);
    ev_ts_ns = Int64.mul 1_000L (Int64.of_int (Hw.Le.get_uint32 b (off + 4)));
  }

(* Game HAT buttons appear as pseudo-usages above the HID range. *)
let button_usage = function
  | Hw.Gpio.Up -> 0x52
  | Hw.Gpio.Down -> 0x51
  | Hw.Gpio.Left -> 0x50
  | Hw.Gpio.Right -> 0x4f
  | Hw.Gpio.A -> 0x04 (* 'a' *)
  | Hw.Gpio.B -> 0x05
  | Hw.Gpio.X -> 0x1b
  | Hw.Gpio.Y -> 0x1c
  | Hw.Gpio.Start -> 0x28 (* Enter *)
  | Hw.Gpio.Select -> 0x2b (* Tab *)

(* A bounded event queue: the raw keyboard ring, or one WM surface's.
   Its readers block on [chan]. *)
type queue = { events : event Queue.t; chan : Task.chan }

let queue_capacity = 64

let queue chan = { events = Queue.create (); chan }

(* Queue [ev], dropping the oldest event when the queue is full, and
   wake the queue's readers and every poller. Returns whether an event
   was dropped. *)
let push sched q ev =
  let full = Queue.length q.events >= queue_capacity in
  if full then ignore (Queue.pop q.events);
  Queue.add ev q.events;
  Sched.wake_all sched q.chan;
  Sched.poll_wake sched;
  full

let ready q = not (Queue.is_empty q.events)

type t = {
  board : Hw.Board.t;
  sched : Sched.t;
  ring : queue;
  mutable prev_keys : int list;
  mutable sink : (event -> bool) option;
      (** WM interposition: returns true when it consumed the event *)
  mutable dropped : int;
}

let push_event t ev =
  Sched.trace_emit t.sched Ktrace.Kbd_report;
  let consumed = match t.sink with Some f -> f ev | None -> false in
  if (not consumed) && push t.sched t.ring ev then t.dropped <- t.dropped + 1

let on_usb_irq t () =
  let reports = Hw.Usb.take_reports t.board.Hw.Board.usb in
  let now = Hw.Board.now t.board in
  List.iter
    (fun report ->
      let keys = report.Hw.Usb.keys in
      let mods = report.Hw.Usb.modifiers in
      (* presses: in the new report but not the old *)
      List.iter
        (fun code ->
          if not (List.mem code t.prev_keys) then
            push_event t
              { ev_code = code; ev_pressed = true; ev_modifiers = mods; ev_ts_ns = now })
        keys;
      (* releases: in the old report but not the new *)
      List.iter
        (fun code ->
          if not (List.mem code keys) then
            push_event t
              {
                ev_code = code;
                ev_pressed = false;
                ev_modifiers = mods;
                ev_ts_ns = now;
              })
        t.prev_keys;
      t.prev_keys <- keys)
    reports

let on_gpio_irq t () =
  let now = Hw.Board.now t.board in
  List.iter
    (fun (button, pressed) ->
      push_event t
        {
          ev_code = button_usage button;
          ev_pressed = pressed;
          ev_modifiers = 0;
          ev_ts_ns = now;
        })
    (Hw.Gpio.take_edges t.board.Hw.Board.gpio)

let create board sched =
  let t =
    {
      board;
      sched;
      ring = queue Task.Kbd_events;
      prev_keys = [];
      sink = None;
      dropped = 0;
    }
  in
  Sched.register_irq sched Hw.Irq.Usb_hc (on_usb_irq t);
  Sched.register_irq sched Hw.Irq.Gpio_bank (on_gpio_irq t);
  t

let set_sink t sink = t.sink <- Some sink

let pending t = Queue.length t.ring.events
let dropped t = t.dropped

(* Read whole events as bytes from the queue [find] names; [None] means
   the queue is gone (EBADF). [nonblock] peeks without waiting, the
   Prototype 5 enhancement DOOM's key polling needs (§4.5). A buffer
   shorter than one event is an error, not a truncated delivery. A
   blocked read looks its queue up again when woken. *)
let read ctx ~len ~nonblock find =
  if len < event_bytes then Sched.fail ctx Errno.einval
  else
    let rec attempt () =
      match find () with
      | None -> Sched.fail ctx Errno.ebadf
      | Some q when ready q ->
          let nev = min (len / event_bytes) (Queue.length q.events) in
          let buf = Buffer.create (nev * event_bytes) in
          for _ = 1 to nev do
            Buffer.add_bytes buf (encode (Queue.pop q.events))
          done;
          Sched.charge ctx (Kcost.event_copy * nev);
          Sched.trace_emit_task ctx.Sched.sched ctx.Sched.task
            (Ktrace.Event_delivered ctx.Sched.task.Task.pid);
          Sched.finish ctx (Abi.R_bytes (Buffer.to_bytes buf))
      | Some _ when nonblock -> Sched.fail ctx Errno.eagain
      | Some q -> Sched.block ctx ~chan:q.chan ~retry:attempt
    in
    attempt ()
