(** Device files (§4.4): /dev/fb, /dev/events, /dev/event1, /dev/sb,
    /dev/surface, /dev/console, /dev/null.

    Each open yields a {!Fd.dev_ops} vtable. The framebuffer supports
    mmap — VOS's DRI-style direct rendering (§4.3): the mapping hands the
    app the framebuffer itself (standing in for the identity-mapped
    address), and from then on user-space writes bypass the kernel, with
    cacheflush(2) needed to make frames visible. *)

type t = {
  console : Console.t;
  kbd : Kbd.t;
  audio : Audio.t option;
  wm : Wm.t option;
  fb : Hw.Framebuffer.t option;
}

let create ~console ~kbd ~audio ~wm ~fb = { console; kbd; audio; wm; fb }

(* ---- /dev/null ---- *)

let null_ops =
  {
    Fd.dev_name = "null";
    dev_read = (fun ctx _ ~len:_ -> Sched.finish ctx (Abi.R_bytes Bytes.empty));
    dev_write =
      (fun ctx _ data -> Sched.finish ctx (Abi.R_int (Bytes.length data)));
    dev_mmap = None;
    dev_close = (fun _ -> ());
    dev_poll = None;
  }

(* ---- /dev/console ---- *)

let console_ops t =
  {
    Fd.dev_name = "console";
    dev_read =
      (fun ctx file ~len ->
        Console.read ctx t.console ~len ~nonblock:file.Fd.nonblock);
    dev_write = (fun ctx _ data -> Console.write ctx t.console data);
    dev_mmap = None;
    dev_close = (fun _ -> ());
    dev_poll = Some (fun _ _ -> Console.rx_ready t.console);
  }

(* ---- /dev/events and /dev/event1: key events ----

   Both read a {!Kbd.queue}; they differ only in which. /dev/events
   reads the raw keyboard ring, /dev/event1 the WM-routed queue of the
   caller's surface, found on each attempt: a surface closed under a
   blocked reader answers EBADF. *)

let event_ops name find =
  {
    Fd.dev_name = name;
    dev_read =
      (fun ctx file ~len ->
        Kbd.read ctx ~len ~nonblock:file.Fd.nonblock (fun () -> find ctx file));
    dev_write = (fun ctx _ _ -> Sched.fail ctx Errno.einval);
    dev_mmap = None;
    dev_close = (fun _ -> ());
    dev_poll =
      Some
        (fun ctx file ->
          (* no queue: let the read report the error *)
          match find ctx file with Some q -> Kbd.ready q | None -> true);
  }

let events_ops t =
  let ring = Some t.kbd.Kbd.ring in
  event_ops "events" (fun _ _ -> ring)

let event1_ops t =
  match t.wm with
  | None -> None
  | Some wm ->
      Some
        (event_ops "event1" (fun ctx file ->
             let sid =
               match ctx.Sched.task.Task.wm_surface with
               | Some sid -> sid
               | None -> file.Fd.dev_cookie
             in
             Option.map (fun s -> s.Wm.events) (Wm.surface wm sid)))

(* ---- /dev/fb: write path and mmap ---- *)

(* mmap of the framebuffer: identity-map it into the caller's space and
   return its bus address and geometry. /dev/fb's mmap (P4+) and
   Prototype 3's hardwired mmap (§4.3) are this one call. *)
let mmap_fb ctx fb =
  let width = Hw.Framebuffer.width fb and height = Hw.Framebuffer.height fb in
  (match ctx.Sched.task.Task.vm with
  | Some vm -> Vm.map_fb vm
  | None -> ());
  Sched.charge ctx (Kcost.sbrk_per_page * 16);
  Sched.finish ctx (Abi.R_mmap (Vm.fb_bus_address, width, height))

let fb_ops t =
  match t.fb with
  | None -> None
  | Some fb ->
      let width = Hw.Framebuffer.width fb in
      let screen_px = width * Hw.Framebuffer.height fb in
      Some
        {
          Fd.dev_name = "fb";
          dev_read = (fun ctx _ ~len:_ -> Sched.fail ctx Errno.einval);
          dev_write =
            (fun ctx file data ->
              (* whole 4-byte pixels from the pixel the file offset falls
                 in; the part on the screen is copied as is *)
              let base = file.Fd.off / 4 in
              let p0 = min screen_px base
              and p1 = min screen_px (base + (Bytes.length data / 4)) in
              if p1 > p0 then begin
                Bytes.blit data (4 * (p0 - base)) (Hw.Framebuffer.cpu_view fb) (4 * p0)
                  (4 * (p1 - p0));
                for y = p0 / width to (p1 - 1) / width do
                  Hw.Framebuffer.wrote_row fb y
                done
              end;
              file.Fd.off <- file.Fd.off + Bytes.length data;
              Sched.charge ctx (Kcost.copy_cycles ~bytes:(Bytes.length data));
              Sched.finish ctx (Abi.R_int (Bytes.length data)));
          dev_mmap = Some (fun ctx _file -> mmap_fb ctx fb);
          dev_close = (fun _ -> ());
          dev_poll = None;
        }

(* ---- /dev/sb: sound ---- *)

let sb_ops t =
  match t.audio with
  | None -> None
  | Some audio ->
      Some
        {
          Fd.dev_name = "sb";
          dev_read = (fun ctx _ ~len:_ -> Sched.fail ctx Errno.einval);
          dev_write = (fun ctx _ data -> Audio.write ctx audio data);
          dev_mmap = None;
          dev_close = (fun _ -> ());
          dev_poll = None;
        }

(* ---- /dev/surface: indirect rendering through the WM ----

   Protocol: the first write is a 24-byte header
   "SURF" w h x y alpha — creating the window; every subsequent write is a
   full frame of w*h 4-byte pixels. *)

let header_bytes = 24

let surface_ops t =
  match t.wm with
  | None -> None
  | Some wm ->
      Some
        {
          Fd.dev_name = "surface";
          dev_read = (fun ctx _ ~len:_ -> Sched.fail ctx Errno.einval);
          dev_write =
            (fun ctx file data ->
              if file.Fd.dev_cookie < 0 then begin
                if
                  Bytes.length data < header_bytes
                  || not (String.equal (Bytes.sub_string data 0 4) "SURF")
                then Sched.fail ctx Errno.einval
                else begin
                  let w = Hw.Le.get_uint32 data 4 and h = Hw.Le.get_uint32 data 8 in
                  let x = Hw.Le.get_uint32 data 12 and y = Hw.Le.get_uint32 data 16 in
                  let alpha = Bytes.get_uint8 data 20 in
                  if w <= 0 || h <= 0 || w > 4096 || h > 4096 then
                    Sched.fail ctx Errno.einval
                  else begin
                    let s =
                      Wm.create_surface wm ~owner_pid:ctx.Sched.task.Task.pid
                        ~width:w ~height:h ~x ~y ~alpha
                    in
                    file.Fd.dev_cookie <- s.Wm.surf_id;
                    ctx.Sched.task.Task.wm_surface <- Some s.Wm.surf_id;
                    Sched.charge ctx Kcost.wm_per_window;
                    Sched.finish ctx (Abi.R_int (Bytes.length data))
                  end
                end
              end
              else begin
                match Wm.surface wm file.Fd.dev_cookie with
                | None -> Sched.fail ctx Errno.ebadf
                | Some s ->
                    let npx = Wm.write_frame s data in
                    let pid = ctx.Sched.task.Task.pid in
                    Sched.count_frame ctx.Sched.sched pid;
                    Sched.trace_emit_task ctx.Sched.sched ctx.Sched.task
                      (Ktrace.Frame_present pid);
                    Sched.charge ctx (Kcost.copy_cycles ~bytes:(4 * npx));
                    Sched.finish ctx (Abi.R_int (Bytes.length data))
              end);
          dev_mmap = None;
          dev_close =
            (fun file ->
              if file.Fd.dev_cookie >= 0 then
                Wm.remove_surface wm file.Fd.dev_cookie);
          dev_poll = None;
        }

(* ---- lookup ---- *)

let lookup t name =
  match name with
  | "null" -> Some null_ops
  | "console" | "uart" -> Some (console_ops t)
  | "events" -> Some (events_ops t)
  | "event1" -> event1_ops t
  | "fb" -> fb_ops t
  | "sb" -> sb_ops t
  | "surface" -> surface_ops t
  | _ -> None
