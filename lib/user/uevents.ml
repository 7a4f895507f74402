(** Input-event decoding and polling for apps.

    Events come from /dev/events (raw keyboard queue) or /dev/event1
    (WM-routed to the focused window) in the 8-byte wire format of
    {!Core.Kbd}. Key codes are HID usages; this module names the ones the
    apps use. *)

type key =
  | Up
  | Down
  | Left
  | Right
  | Enter
  | Escape
  | Tab
  | Space
  | Char of char
  | Other of int

let key_of_usage u =
  match u with
  | 0x52 -> Up
  | 0x51 -> Down
  | 0x50 -> Left
  | 0x4f -> Right
  | 0x28 -> Enter
  | 0x29 -> Escape
  | 0x2b -> Tab
  | 0x2c -> Space
  | u when u >= 0x04 && u <= 0x1d -> Char (Char.chr (Char.code 'a' + u - 4))
  | u when u >= 0x1e && u <= 0x26 -> Char (Char.chr (Char.code '1' + u - 0x1e))
  | 0x27 -> Char '0'
  | u -> Other u

type event = { key : key; pressed : bool }

let decode_bytes data =
  let n = Bytes.length data / Core.Kbd.event_bytes in
  List.init n (fun i ->
      let raw = Core.Kbd.decode data ~off:(i * Core.Kbd.event_bytes) in
      {
        key = key_of_usage raw.Core.Kbd.ev_code;
        pressed = raw.Core.Kbd.ev_pressed;
      })

(* Blocking read of at least one event. *)
let read_events fd =
  match Usys.read fd 256 with
  | Ok data -> decode_bytes data
  | Error _ -> []

(* Non-blocking poll (requires the fd opened with O_NONBLOCK). *)
let poll_events fd =
  match Usys.read fd 256 with
  | Ok data -> decode_bytes data
  | Error e when e = Core.Errno.eagain -> []
  | Error _ -> []
