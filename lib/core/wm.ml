(** The window manager (§4.5): a kernel thread that composites app
    surfaces onto the hardware framebuffer.

    Running the WM in the kernel (rather than as a user process, as
    Android does) avoids shared-memory IPC for frame exchange — the
    paper's simplicity tradeoff. Apps render {e indirectly}: they open
    /dev/surface, declare geometry, and write whole frames; the WM tracks
    z-order, dirty windows, the focus window (which alone receives input
    through /dev/event1), alpha for floating overlays like sysmon, and
    ctrl-key combinations for switching and moving windows.

    Dirty tracking is the paper's efficiency point: composition rounds
    that find no dirty window are free, and a round repaints only the rows
    dirty windows cover, plus those a closed or moved window uncovered.
    [track_dirty:false] disables this for the ablation bench. *)

type surface = {
  surf_id : int;
  owner_pid : int;
  width : int;
  height : int;
  pixels : Bytes.t;
      (** [4 * width * height] bytes, as /dev/surface carries them:
          little-endian XRGB8888, row-major *)
  mutable sx : int;
  mutable sy : int;
  mutable alpha : int;  (** 255 = opaque *)
  mutable dirty : bool;
  mutable always_on_top : bool;
  events : Kbd.queue;  (** WM-routed key events, read through /dev/event1 *)
  mutable frames : int;
}

type t = {
  sched : Sched.t;
  fb : Hw.Framebuffer.t;
  surfaces : (int, surface) Hashtbl.t;
  background_row : Bytes.t;  (** one screen row of [background] pixels *)
  mutable zorder : int list;  (** bottom first; top = focus candidates last *)
  mutable focus : int option;
  mutable next_id : int;
  track_dirty : bool;
  mutable composites : int;
  mutable skipped_rounds : int;
  mutable pixels_composited : int;
  mutable damage_y0 : int;
  mutable damage_y1 : int;
      (** screen rows [damage_y0, damage_y1) uncovered by a window that
          closed or moved since the last round; empty when y0 >= y1 *)
}

let background = 0x102030

let create sched fb ~track_dirty =
  let width = Hw.Framebuffer.width fb in
  let background_row = Bytes.create (4 * width) in
  for x = 0 to width - 1 do
    Bytes.set_int32_le background_row (4 * x) (Int32.of_int background)
  done;
  {
    sched;
    fb;
    surfaces = Hashtbl.create 16;
    background_row;
    zorder = [];
    focus = None;
    next_id = 1;
    track_dirty;
    composites = 0;
    skipped_rounds = 0;
    pixels_composited = 0;
    damage_y0 = Hw.Framebuffer.height fb;
    damage_y1 = 0;
  }

let surface t id = Hashtbl.find_opt t.surfaces id

let focused t =
  match t.focus with None -> None | Some id -> surface t id

(* z-order with always-on-top surfaces forced above the rest *)
let stacking t =
  let layers = List.filter_map (surface t) t.zorder in
  let normal, floating = List.partition (fun s -> not s.always_on_top) layers in
  normal @ floating

let create_surface t ~owner_pid ~width ~height ~x ~y ~alpha =
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    {
      surf_id = id;
      owner_pid;
      width;
      height;
      pixels = Bytes.make (4 * width * height) '\000';
      sx = x;
      sy = y;
      alpha;
      dirty = true;
      always_on_top = alpha < 255;
      events = Kbd.queue (Task.Wm_events id);
      frames = 0;
    }
  in
  Hashtbl.replace t.surfaces id s;
  t.zorder <- t.zorder @ [ id ];
  t.focus <- Some id;
  s

(* A frame written to /dev/surface: its first [width * height] pixels
   are stored as they came, 4 bytes each, and the surface is marked
   dirty. Returns the number of pixels stored. *)
let write_frame s data =
  let npx = min (Bytes.length data / 4) (s.width * s.height) in
  Bytes.blit data 0 s.pixels 0 (4 * npx);
  s.dirty <- true;
  s.frames <- s.frames + 1;
  npx

(* Add the screen rows [s] covers to the pending damage, just before it
   closes or moves: afterwards no surface may cover them, and only the
   damage gets them repainted. *)
let add_damage t s =
  let y0 = max 0 s.sy and y1 = min (Hw.Framebuffer.height t.fb) (s.sy + s.height) in
  if y1 > y0 then begin
    t.damage_y0 <- min t.damage_y0 y0;
    t.damage_y1 <- max t.damage_y1 y1
  end

let remove_surface t id =
  match surface t id with
  | None -> ()
  | Some s ->
      add_damage t s;
      Hashtbl.remove t.surfaces id;
      t.zorder <- List.filter (fun z -> z <> id) t.zorder;
      (if t.focus = Some id then
         t.focus <-
           (match List.rev t.zorder with top :: _ -> Some top | [] -> None));
      (* expose what was underneath *)
      Hashtbl.iter (fun _ other -> other.dirty <- true) t.surfaces;
      (* a reader blocked on the queue finds the surface gone *)
      Sched.wake_all t.sched s.events.Kbd.chan

let rotate_focus t =
  match t.zorder with
  | [] -> ()
  | ids ->
      let n = List.length ids in
      let cur =
        match t.focus with
        | Some f ->
            let rec index i = function
              | [] -> 0
              | x :: rest -> if x = f then i else index (i + 1) rest
            in
            index 0 ids
        | None -> 0
      in
      t.focus <- Some (List.nth ids ((cur + 1) mod n))

let move_focused t ~dx ~dy =
  match focused t with
  | None -> ()
  | Some s ->
      add_damage t s;
      s.sx <- s.sx + dx;
      s.sy <- s.sy + dy;
      s.dirty <- true;
      (* movement exposes the background of every window below *)
      Hashtbl.iter (fun _ other -> other.dirty <- true) t.surfaces

(* The keyboard sink: special combos are the WM's; everything else goes to
   the focus window. ctrl is modifier bit 0x01. *)
let rec key_sink t ev =
  let ctrl = ev.Kbd.ev_modifiers land 0x01 <> 0 in
  if ctrl && ev.Kbd.ev_pressed then begin
    match ev.Kbd.ev_code with
    | 0x2b (* tab *) ->
        rotate_focus t;
        true
    | 0x50 -> move_focused t ~dx:(-16) ~dy:0; true
    | 0x4f -> move_focused t ~dx:16 ~dy:0; true
    | 0x52 -> move_focused t ~dx:0 ~dy:(-16); true
    | 0x51 -> move_focused t ~dx:0 ~dy:16; true
    | _ -> deliver t ev
  end
  else deliver t ev

and deliver t ev =
  match focused t with
  | None -> false
  | Some s ->
      ignore (Kbd.push t.sched s.events ev);
      true

(* ---- composition ---- *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* A pixel's three channels spread into 16-bit lanes of one [int]:
   blue in bits 0-15, red in 16-31, green in 32-47. *)
let[@inline] lanes p = p land 0xff00ff lor ((p land 0xff00) lsl 24)

(* Blend [n] pixels of [src] from pixel [soff] over [dst] from pixel
   [doff] at [alpha] < 255, per channel:
   (src * alpha + dst * (255 - alpha)) / 255, the X byte dropped. All
   three channels go at once, one per lane: no lane of the sum exceeds
   255 * 255, and (x + 1 + (x lsr 8)) lsr 8 is x / 255 for every such
   x without carrying into the next lane. The span is checked once,
   then each pixel is one unchecked 32-bit load from each side and one
   store; they are native-endian, so a big-endian host swaps each
   word. *)
let blend_span src soff dst doff n alpha =
  if
    n < 0 || soff < 0 || doff < 0
    || soff > (Bytes.length src / 4) - n
    || doff > (Bytes.length dst / 4) - n
  then Kpanic.panicf "wm: blend span %d+%d -> %d out of range" soff n doff;
  let inv = 255 - alpha in
  for i = 0 to n - 1 do
    let so = 4 * (soff + i) and d = 4 * (doff + i) in
    let p = get32u src so and q = get32u dst d in
    let p = Int32.to_int (if Sys.big_endian then swap32 p else p)
    and q = Int32.to_int (if Sys.big_endian then swap32 q else q) in
    let x = (lanes p * alpha) + (lanes q * inv) in
    let y = ((x + 0x0001_0001_0001 + ((x lsr 8) land 0x00ff_00ff_00ff)) lsr 8) land 0x00ff_00ff_00ff in
    let w = Int32.of_int (y land 0xff00ff lor ((y lsr 24) land 0xff00)) in
    set32u dst d (if Sys.big_endian then swap32 w else w)
  done

(* Repaint rows [y0, y1) of the screen from the stacking order, in place
   in the framebuffer's CPU view. Returns the pixel count composited
   (for cost accounting). Each row starts as a copy of the background
   row; each layer's row is clipped to the screen once, as the column
   span [c0, c1): opaque spans are copied, alpha spans blended. *)
let repaint_rows t ~y0 ~y1 =
  let width = Hw.Framebuffer.width t.fb in
  let layers = Array.of_list (stacking t) in
  let view = Hw.Framebuffer.cpu_view t.fb in
  let count = ref 0 in
  for y = y0 to y1 - 1 do
    let line = y * width in
    Bytes.blit t.background_row 0 view (4 * line) (4 * width);
    for l = 0 to Array.length layers - 1 do
      let s = layers.(l) in
      let row = y - s.sy in
      if row >= 0 && row < s.height then begin
        let c0 = max 0 (-s.sx) and c1 = min s.width (width - s.sx) in
        if c1 > c0 then begin
          count := !count + (c1 - c0);
          let src = (row * s.width) + c0 and dst = line + s.sx + c0 in
          if s.alpha >= 255 then Bytes.blit s.pixels (4 * src) view (4 * dst) (4 * (c1 - c0))
          else blend_span s.pixels src view dst (c1 - c0) s.alpha
        end
      end
    done;
    Hw.Framebuffer.wrote_row t.fb y
  done;
  Hw.Framebuffer.flush t.fb;
  !count

(* One composition round: find the row span of the dirty surfaces and
   the pending damage, and repaint it. *)
let composite t =
  let dirty = Hashtbl.fold (fun _ s acc -> if s.dirty then s :: acc else acc) t.surfaces [] in
  let height = Hw.Framebuffer.height t.fb in
  let rows =
    if t.track_dirty then
      let y0 = List.fold_left (fun acc s -> min acc (max 0 s.sy)) t.damage_y0 dirty in
      let y1 =
        List.fold_left (fun acc s -> max acc (min height (s.sy + s.height))) t.damage_y1 dirty
      in
      if y1 > y0 then Some (y0, y1) else None
    else if Hashtbl.length t.surfaces > 0 || t.damage_y1 > t.damage_y0 then Some (0, height)
    else None
  in
  match rows with
  | None ->
      t.skipped_rounds <- t.skipped_rounds + 1;
      0
  | Some (y0, y1) ->
      Hashtbl.iter (fun _ s -> s.dirty <- false) t.surfaces;
      t.damage_y0 <- height;
      t.damage_y1 <- 0;
      let pixels = repaint_rows t ~y0 ~y1 in
      t.composites <- t.composites + 1;
      t.pixels_composited <- t.pixels_composited + pixels;
      Sched.trace_emit t.sched Ktrace.Wm_composite;
      pixels

(* The WM kernel thread: a ~60 Hz composition loop. Work is charged via
   Burn like any other task, so compositing load shows up in core
   utilization and app FPS. *)
let thread_body t () =
  let rec loop () =
    (match Effect.perform (Abi.Sys (Abi.Sleep 16)) with
    | Abi.R_int _ -> ()
    | Abi.R_bytes _ | Abi.R_pair _ | Abi.R_stat _ | Abi.R_mmap _ -> ());
    let pixels = composite t in
    if pixels > 0 then begin
      let nwindows = Hashtbl.length t.surfaces in
      let alpha_pixels =
        (* floating windows pay the blend cost *)
        Hashtbl.fold
          (fun _ s acc -> if s.alpha < 255 then acc + (s.width * s.height) else acc)
          t.surfaces 0
      in
      Effect.perform
        (Abi.Burn
           ((pixels * Kcost.wm_per_pixel_opaque)
           + (alpha_pixels * (Kcost.wm_per_pixel_alpha - Kcost.wm_per_pixel_opaque))
           + (nwindows * Kcost.wm_per_window)))
    end;
    loop ()
  in
  loop ()

let start t =
  ignore (Sched.spawn t.sched ~name:"wm" ~kind:Task.Kernel (thread_body t))

let composites t = t.composites
let skipped_rounds t = t.skipped_rounds
let pixels_composited t = t.pixels_composited
let surface_count t = Hashtbl.length t.surfaces
