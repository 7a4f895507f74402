(** miniSDL — the trimmed-down SDL the paper ports for Prototype 5 apps:
    a surface to draw on, an event queue, and the SDL audio model (a
    dedicated thread pulls samples from a callback and streams them to the
    device, §4.5 "Threading for SDL audio"). *)

type video_mode =
  | Fullscreen  (** direct rendering to /dev/fb *)
  | Window of { w : int; h : int; x : int; y : int; alpha : int }

type t = {
  gfx : Gfx.t;
  ev_fd : int;
  mutable audio_tid : int option;
  mutable audio_stop : bool;
}

let init env mode =
  let open Core in
  match mode with
  | Fullscreen -> (
      match Gfx.direct env with
      | Error e -> Error e
      | Ok gfx ->
          let fd = Usys.open_ "/dev/events" (Abi.o_rdonly lor Abi.o_nonblock) in
          if fd < 0 then Error (-fd)
          else Ok { gfx; ev_fd = fd; audio_tid = None; audio_stop = false })
  | Window { w; h; x; y; alpha } -> (
      match Gfx.windowed ~width:w ~height:h ~x ~y ~alpha () with
      | Error e -> Error e
      | Ok gfx ->
          (* WM-routed events for this window *)
          let fd = Usys.open_ "/dev/event1" (Abi.o_rdonly lor Abi.o_nonblock) in
          if fd < 0 then Error (-fd)
          else Ok { gfx; ev_fd = fd; audio_tid = None; audio_stop = false })

let surface t = t.gfx
let present t = Gfx.present t.gfx

let poll_events t = Uevents.poll_events t.ev_fd

let delay ms = ignore (Usys.sleep ms)

(* Block in poll(2) until an input event arrives or [timeout_ms] lapses,
   then drain the queue. On kernels without poll (xv6 config) degrade to
   the sleep-then-spin loop so callers keep their frame pacing. *)
let wait_events t ~timeout_ms =
  let r = Usys.poll [ t.ev_fd ] ~timeout_ms in
  if r > 0 then Uevents.read_events t.ev_fd
  else if r = 0 then []
  else begin
    delay (max 1 timeout_ms);
    Uevents.poll_events t.ev_fd
  end

(* SDL-style audio: [callback n] returns the next [n] samples; a dedicated
   thread keeps the device fed, running concurrently with the decoder. *)
let audio_chunk = 2048

let open_audio t callback =
  let body () =
    let fd = Usys.open_ "/dev/sb" Core.Abi.o_wronly in
    if fd < 0 then -fd
    else begin
      let buf = Bytes.create (audio_chunk * 2) in
      while not t.audio_stop do
        let samples = callback audio_chunk in
        let n = min audio_chunk (Array.length samples) in
        for i = 0 to n - 1 do
          Bytes.set_int16_le buf (2 * i) samples.(i)
        done;
        if n > 0 then ignore (Usys.write fd (Bytes.sub buf 0 (2 * n)))
        else ignore (Usys.sleep 10)
      done;
      ignore (Usys.close fd);
      0
    end
  in
  let tid = Usys.clone body in
  if tid > 0 then t.audio_tid <- Some tid;
  tid

let close_audio t =
  t.audio_stop <- true;
  match t.audio_tid with
  | Some tid ->
      ignore (Usys.join tid);
      t.audio_tid <- None
  | None -> ()

let quit t =
  close_audio t;
  ignore (Usys.close t.ev_fd);
  Gfx.close t.gfx
