(** Tests for the hardware models. *)

open Tharness

let fresh () = Hw.Board.create ()

(* ---- interrupt controller ---- *)

let intc_delivers () =
  let b = fresh () in
  let got = ref [] in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun line ->
      got := Hw.Irq.describe line :: !got);
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Uart_rx;
  check_string "delivered" "uart-rx" (List.hd !got)

let intc_mask_pends () =
  let b = fresh () in
  let got = ref 0 in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun _ -> incr got);
  Hw.Intc.mask b.Hw.Board.intc ~core:0;
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Uart_rx;
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Uart_rx (* coalesces *);
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Sd_card;
  check_int "nothing while masked" 0 !got;
  check_int "two distinct pending" 2 (Hw.Intc.pending_count b.Hw.Board.intc ~core:0);
  Hw.Intc.unmask b.Hw.Board.intc ~core:0;
  check_int "delivered on unmask" 2 !got

let intc_mask_nests () =
  let b = fresh () in
  let got = ref 0 in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun _ -> incr got);
  Hw.Intc.mask b.Hw.Board.intc ~core:0;
  Hw.Intc.mask b.Hw.Board.intc ~core:0;
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Uart_rx;
  Hw.Intc.unmask b.Hw.Board.intc ~core:0;
  check_int "still masked after one pop" 0 !got;
  Hw.Intc.unmask b.Hw.Board.intc ~core:0;
  check_int "delivered at depth zero" 1 !got

let intc_fiq_bypasses_mask_round_robin () =
  let b = fresh () in
  let per_core = Array.make 4 0 in
  for c = 0 to 3 do
    Hw.Intc.set_handler b.Hw.Board.intc ~core:c (fun line ->
        if Hw.Irq.equal line Hw.Irq.Fiq_button then
          per_core.(c) <- per_core.(c) + 1)
  done;
  (* mask every core: FIQ must still land *)
  for c = 0 to 3 do
    Hw.Intc.mask b.Hw.Board.intc ~core:c
  done;
  for _ = 1 to 8 do
    Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Fiq_button
  done;
  Array.iteri
    (fun c n -> check_int (Printf.sprintf "core %d got 2 FIQs" c) 2 n)
    per_core

let intc_routing () =
  let b = fresh () in
  let landed = ref (-1) in
  for c = 0 to 3 do
    Hw.Intc.set_handler b.Hw.Board.intc ~core:c (fun _ -> landed := c)
  done;
  Hw.Intc.route b.Hw.Board.intc Hw.Irq.Sd_card ~core:2;
  Hw.Intc.raise_line b.Hw.Board.intc Hw.Irq.Sd_card;
  check_int "routed to core 2" 2 !landed

(* A core's timer line goes to that core and nowhere else: a line
   naming a core the board lacks is refused, not delivered to core 0. *)
let intc_timer_line_targets_its_core () =
  let b = fresh () in
  let landed = ref [] in
  for c = 0 to 3 do
    Hw.Intc.set_handler b.Hw.Board.intc ~core:c (fun _ ->
        landed := c :: !landed)
  done;
  Hw.Intc.raise_line b.Hw.Board.intc (Hw.Irq.Core_timer 3);
  check_bool "core3-timer lands on core 3" true (!landed = [ 3 ]);
  List.iter
    (fun c ->
      Alcotest.check_raises
        (Printf.sprintf "Core_timer %d refused" c)
        (Invalid_argument "Intc.raise_line: bad timer core") (fun () ->
          Hw.Intc.raise_line b.Hw.Board.intc (Hw.Irq.Core_timer c)))
    [ 4; 9; -1 ];
  check_bool "no core took the bad lines" true (!landed = [ 3 ])

(* ---- timers ---- *)

let timer_core_oneshot () =
  let b = fresh () in
  let fired = ref [] in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:1 (fun line ->
      fired := Hw.Irq.describe line :: !fired);
  Hw.Timer.arm_core_timer b.Hw.Board.timer ~core:1 ~delta_ns:1000L;
  Sim.Engine.run b.Hw.Board.engine ();
  check_string "core1 timer" "core1-timer" (List.hd !fired);
  check_bool "disarmed after fire" false
    (Hw.Timer.core_timer_armed b.Hw.Board.timer ~core:1)

let timer_rearm_replaces () =
  let b = fresh () in
  let count = ref 0 in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun _ -> incr count);
  Hw.Timer.arm_core_timer b.Hw.Board.timer ~core:0 ~delta_ns:1000L;
  Hw.Timer.arm_core_timer b.Hw.Board.timer ~core:0 ~delta_ns:2000L;
  Sim.Engine.run b.Hw.Board.engine ();
  check_int "only one shot" 1 !count;
  check_bool "fired at rearmed time" true (Sim.Engine.now b.Hw.Board.engine = 2000L)

let timer_counter () =
  let b = fresh () in
  ignore (Sim.Engine.schedule_at b.Hw.Board.engine 5_000_000L (fun () -> ()));
  Sim.Engine.run b.Hw.Board.engine ();
  check_bool "counter in us" true (Hw.Timer.counter_us b.Hw.Board.timer = 5_000L)

(* ---- uart ---- *)

let uart_capture_and_cost () =
  let b = fresh () in
  let cost = Hw.Uart.transmit b.Hw.Board.uart 'h' in
  ignore (Hw.Uart.transmit b.Hw.Board.uart 'i');
  check_string "log" "hi" (Hw.Uart.output b.Hw.Board.uart);
  (* 10 bits at 115200 baud: ~86.8 us *)
  check_in_range "wire time us" 85.0 88.0 (Sim.Engine.to_us cost)

let uart_rx_irq () =
  let b = fresh () in
  let got = ref false in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun line ->
      if Hw.Irq.equal line Hw.Irq.Uart_rx then got := true);
  Hw.Uart.inject_string b.Hw.Board.uart "ab";
  check_bool "irq raised" true !got;
  check_int "fifo depth" 2 (Hw.Uart.rx_available b.Hw.Board.uart);
  check_bool "read a" true (Hw.Uart.read_char b.Hw.Board.uart = Some 'a');
  check_bool "read b" true (Hw.Uart.read_char b.Hw.Board.uart = Some 'b');
  check_bool "empty" true (Hw.Uart.read_char b.Hw.Board.uart = None)

(* ---- mailbox + framebuffer ---- *)

let mailbox_fb_allocation () =
  let b = fresh () in
  let results, _cost =
    check_ok "mailbox call"
      (Hw.Mailbox.call b.Hw.Board.mailbox
         [
           Hw.Mailbox.Set_physical_size (320, 240);
           Hw.Mailbox.Set_depth 32;
           Hw.Mailbox.Allocate_buffer;
           Hw.Mailbox.Get_pitch;
         ])
  in
  (match results with
  | [ Hw.Mailbox.Size_set (320, 240); Hw.Mailbox.Depth_set 32;
      Hw.Mailbox.Buffer fb; Hw.Mailbox.Pitch pitch ] ->
      check_int "width" 320 (Hw.Framebuffer.width fb);
      check_int "pitch" (320 * 4) pitch
  | _ -> Alcotest.fail "unexpected tag results");
  ignore (check_err "allocate before size on fresh box"
      (let fresh_mb = Hw.Mailbox.create b.Hw.Board.engine in
       Hw.Mailbox.call fresh_mb [ Hw.Mailbox.Allocate_buffer ]))

let fb_cache_experience () =
  (* The §4.3 lesson: cached writes are invisible until flushed. *)
  let fb = Hw.Framebuffer.create ~width:16 ~height:16 in
  Hw.Framebuffer.set_mapping fb Hw.Framebuffer.Cached;
  Hw.Framebuffer.write_pixel fb ~x:3 ~y:5 0xff0000;
  check_int "display stale before flush" 0
    (Hw.Framebuffer.display_pixel fb ~x:3 ~y:5);
  check_int "one stale row" 1 (Hw.Framebuffer.stale_rows fb);
  Hw.Framebuffer.flush fb;
  check_int "visible after flush" 0xff0000
    (Hw.Framebuffer.display_pixel fb ~x:3 ~y:5);
  check_int "no stale rows" 0 (Hw.Framebuffer.stale_rows fb)

let fb_uncached_writes_through () =
  let fb = Hw.Framebuffer.create ~width:8 ~height:8 in
  Hw.Framebuffer.set_mapping fb Hw.Framebuffer.Uncached;
  Hw.Framebuffer.write_pixel fb ~x:1 ~y:1 0x00ff00;
  check_int "immediately visible" 0x00ff00
    (Hw.Framebuffer.display_pixel fb ~x:1 ~y:1)

let fb_out_of_bounds_ignored () =
  let fb = Hw.Framebuffer.create ~width:4 ~height:4 in
  Hw.Framebuffer.write_pixel fb ~x:99 ~y:99 0xff;
  Hw.Framebuffer.write_pixel fb ~x:(-1) ~y:0 0xff;
  check_int "read oob is 0" 0 (Hw.Framebuffer.read_pixel fb ~x:99 ~y:0)

(* Rows built in the CPU view and reported with wrote_row, then flush,
   under both mappings: a row that is only partly stored leaves the rest
   alone, a store is seen only once its row is reported, the X byte is
   ignored, and only a flush that publishes something counts as a
   presented frame. *)
let fb_row_copies_keep_dirty_semantics () =
  List.iter
    (fun (name, mapping) ->
      let fb = Hw.Framebuffer.create ~width:8 ~height:4 in
      Hw.Framebuffer.set_mapping fb mapping;
      let cached = mapping = Hw.Framebuffer.Cached in
      let view = Hw.Framebuffer.cpu_view fb in
      let store ~x ~y w = Bytes.set_int32_le view (4 * ((y * 8) + x)) (Int32.of_int w) in
      for x = 0 to 7 do
        Hw.Framebuffer.write_pixel fb ~x ~y:1 0x111111
      done;
      Hw.Framebuffer.flush fb;
      let presented0 = Hw.Framebuffer.frames_presented fb in
      check_int (name ^ ": first flush") (if cached then 1 else 0) presented0;
      List.iteri (fun x w -> store ~x ~y:1 w) [ 1; 2; 0xff000003; 4; 5 ];
      let row f = List.init 8 (fun x -> f ~x ~y:1) in
      let old = List.init 8 (fun _ -> 0x111111) in
      let expect = [ 1; 2; 3; 4; 5; 0x111111; 0x111111; 0x111111 ] in
      check_bool (name ^ ": short row, CPU view") true
        (row (Hw.Framebuffer.read_pixel fb) = expect);
      check_int (name ^ ": unreported row is not stale") 0 (Hw.Framebuffer.stale_rows fb);
      check_bool (name ^ ": unreported row is not shown") true
        (row (Hw.Framebuffer.display_pixel fb) = old);
      Hw.Framebuffer.wrote_row fb 1;
      (match Hw.Framebuffer.wrote_row fb 4 with
      | () -> Alcotest.fail "wrote_row 4: expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      check_int (name ^ ": stale after wrote_row") (if cached then 1 else 0)
        (Hw.Framebuffer.stale_rows fb);
      check_bool (name ^ ": display before flush") true
        (row (Hw.Framebuffer.display_pixel fb) = if cached then old else expect);
      Hw.Framebuffer.flush fb;
      check_bool (name ^ ": display after flush") true
        (row (Hw.Framebuffer.display_pixel fb) = expect);
      check_int (name ^ ": no stale rows") 0 (Hw.Framebuffer.stale_rows fb);
      check_int (name ^ ": frames presented")
        (if cached then presented0 + 1 else 0)
        (Hw.Framebuffer.frames_presented fb);
      Hw.Framebuffer.flush fb;
      check_int (name ^ ": clean flush presents nothing")
        (if cached then presented0 + 1 else 0)
        (Hw.Framebuffer.frames_presented fb);
      (* every row stored whole and reported *)
      for y = 0 to 3 do
        for x = 0 to 7 do
          store ~x ~y (0xff000000 lor ((y * 16) + x))
        done;
        Hw.Framebuffer.wrote_row fb y
      done;
      check_int (name ^ ": all rows stale") (if cached then 4 else 0)
        (Hw.Framebuffer.stale_rows fb);
      Hw.Framebuffer.flush fb;
      check_int (name ^ ": flush published every row") 0
        (Hw.Framebuffer.stale_rows fb);
      for y = 0 to 3 do
        for x = 0 to 7 do
          check_int (name ^ ": flushed pixel") ((y * 16) + x)
            (Hw.Framebuffer.display_pixel fb ~x ~y)
        done
      done)
    [ ("cached", Hw.Framebuffer.Cached); ("uncached", Hw.Framebuffer.Uncached) ]

(* A direct present against the per-pixel reference, under both
   mappings: a staging buffer of random 32-bit words, presented, leaves
   the framebuffer as [write_pixel] of each word's low 24 bits plus
   [wrote_row] of each row, and then the cacheflush's [flush], leave a
   second framebuffer: the same CPU view, display plane, stale rows and
   presented frames. *)
let fb_direct_present_matches_per_pixel () =
  List.iter
    (fun (name, mapping) ->
      let kernel = boot_kernel () in
      let fb = Option.get kernel.Core.Kernel.fb in
      Hw.Framebuffer.set_mapping fb mapping;
      let width = Hw.Framebuffer.width fb and height = Hw.Framebuffer.height fb in
      let rs = Random.State.make [| 5 |] in
      let words = Array.init (width * height) (fun _ -> Random.State.bits32 rs) in
      (match
         Benchlib.Measure.run_task kernel ~name:"painter" (fun () ->
             let env = User.Uenv.create () in
             env.User.Uenv.e_fb <- Some fb;
             match User.Gfx.direct env with
             | Error e -> e
             | Ok gfx ->
                 Array.iteri (fun i w -> Bytes.set_int32_le gfx.User.Gfx.pixels (4 * i) w) words;
                 User.Gfx.present gfx;
                 0)
       with
      | Ok (0, _) -> ()
      | Ok (e, _) -> Alcotest.failf "painter failed: %d" e
      | Error e -> Alcotest.fail e);
      let ref_fb = Hw.Framebuffer.create ~width ~height in
      Hw.Framebuffer.set_mapping ref_fb mapping;
      for y = 0 to height - 1 do
        for x = 0 to width - 1 do
          Hw.Framebuffer.write_pixel ref_fb ~x ~y (Int32.to_int words.((y * width) + x))
        done;
        Hw.Framebuffer.wrote_row ref_fb y
      done;
      Hw.Framebuffer.flush ref_fb;
      let planes fb =
        ( fb_plane_md5 fb Hw.Framebuffer.read_pixel,
          fb_plane_md5 fb Hw.Framebuffer.display_pixel,
          Hw.Framebuffer.stale_rows fb,
          Hw.Framebuffer.frames_presented fb )
      in
      check_bool (name ^ ": present = per-pixel stores") true (planes fb = planes ref_fb))
    [ ("cached", Hw.Framebuffer.Cached); ("uncached", Hw.Framebuffer.Uncached) ]

(* The display ignores the X byte: rows stored in the CPU view with
   random X bytes, and the same rows with X = 0, read back alike through
   read_pixel, display_pixel, to_ppm and to_ascii, under both
   mappings. *)
let fb_ignores_the_x_byte () =
  List.iter
    (fun (name, mapping) ->
      let rs = Random.State.make [| 3 |] in
      let words = Array.init (7 * 5) (fun _ -> Int32.to_int (Random.State.bits32 rs)) in
      let shown x_byte =
        let fb = Hw.Framebuffer.create ~width:7 ~height:5 in
        Hw.Framebuffer.set_mapping fb mapping;
        let view = Hw.Framebuffer.cpu_view fb in
        Array.iteri
          (fun i w -> Bytes.set_int32_le view (4 * i) (Int32.of_int (x_byte w lor (w land 0xffffff))))
          words;
        for y = 0 to 4 do
          Hw.Framebuffer.wrote_row fb y
        done;
        Hw.Framebuffer.flush fb;
        ( List.init 35 (fun i -> Hw.Framebuffer.read_pixel fb ~x:(i mod 7) ~y:(i / 7)),
          List.init 35 (fun i -> Hw.Framebuffer.display_pixel fb ~x:(i mod 7) ~y:(i / 7)),
          Hw.Framebuffer.to_ppm fb,
          Hw.Framebuffer.to_ascii fb ~cols:7 ~rows:5 )
      in
      let cpu, plane, ppm, art = shown (fun w -> w land 0xff000000) in
      check_bool (name ^ ": same pixels as X = 0") true
        ((cpu, plane, ppm, art) = shown (fun _ -> 0));
      check_bool (name ^ ": low 24 bits") true
        (cpu = Array.to_list (Array.map (fun w -> w land 0xffffff) words)))
    [ ("cached", Hw.Framebuffer.Cached); ("uncached", Hw.Framebuffer.Uncached) ]

let fb_ppm_and_ascii () =
  let fb = Hw.Framebuffer.create ~width:2 ~height:2 in
  Hw.Framebuffer.set_mapping fb Hw.Framebuffer.Uncached;
  Hw.Framebuffer.write_pixel fb ~x:0 ~y:0 0xffffff;
  let ppm = Hw.Framebuffer.to_ppm fb in
  check_bool "ppm header" true (String.length ppm > 11 && String.sub ppm 0 2 = "P6");
  let art = Hw.Framebuffer.to_ascii fb ~cols:2 ~rows:2 in
  check_bool "bright pixel is dense glyph" true (art.[0] = '@')

(* ---- gpio ---- *)

let gpio_edges () =
  let b = fresh () in
  Hw.Gpio.press b.Hw.Board.gpio Hw.Gpio.A;
  Hw.Gpio.press b.Hw.Board.gpio Hw.Gpio.A (* no double edge while held *);
  Hw.Gpio.release b.Hw.Board.gpio Hw.Gpio.A;
  let edges = Hw.Gpio.take_edges b.Hw.Board.gpio in
  check_int "two edges" 2 (List.length edges);
  check_bool "press then release" true
    (match edges with
    | [ (Hw.Gpio.A, true); (Hw.Gpio.A, false) ] -> true
    | _ -> false);
  check_int "latch cleared" 0 (List.length (Hw.Gpio.take_edges b.Hw.Board.gpio))

(* ---- dma + pwm ---- *)

let dma_completes_and_latches () =
  let b = fresh () in
  let done_ = ref false in
  Hw.Dma.start b.Hw.Board.dma ~channel:1 ~bytes_len:4096 ~on_complete:(fun () ->
      done_ := true);
  check_bool "busy during" true (Hw.Dma.busy b.Hw.Board.dma ~channel:1);
  Sim.Engine.run b.Hw.Board.engine ();
  check_bool "completed" true !done_;
  check_bool "latched" true (Hw.Dma.done_latched b.Hw.Board.dma ~channel:1);
  Hw.Dma.ack b.Hw.Board.dma ~channel:1;
  check_bool "acked" false (Hw.Dma.done_latched b.Hw.Board.dma ~channel:1)

let dma_busy_rejects () =
  let b = fresh () in
  Hw.Dma.start b.Hw.Board.dma ~channel:0 ~bytes_len:64 ~on_complete:(fun () -> ());
  Alcotest.check_raises "channel busy"
    (Invalid_argument "Dma.start: channel busy") (fun () ->
      Hw.Dma.start b.Hw.Board.dma ~channel:0 ~bytes_len:64 ~on_complete:(fun () -> ()))

let pwm_underruns_when_starved () =
  let b = fresh () in
  let pwm = b.Hw.Board.pwm in
  Hw.Pwm_audio.start pwm;
  (* half a second with no samples: pure underruns *)
  Sim.Engine.run b.Hw.Board.engine ~until:(Sim.Engine.ms 500) ();
  check_bool "underruns counted" true (Hw.Pwm_audio.underruns pwm > 10);
  check_bool "silence emitted" true (Hw.Pwm_audio.samples_played pwm > 0)

let pwm_plays_pushed_samples () =
  let b = fresh () in
  let pwm = b.Hw.Board.pwm in
  let samples = Array.init 4096 (fun i -> i mod 100) in
  let accepted = Hw.Pwm_audio.push_samples pwm samples in
  check_int "all accepted" 4096 accepted;
  Hw.Pwm_audio.start pwm;
  Sim.Engine.run b.Hw.Board.engine ~until:(Sim.Engine.ms 60) ();
  let out = Hw.Pwm_audio.recent_output pwm in
  check_bool "played prefix matches" true
    (Array.length out >= 1000 && Array.sub out 0 1000 = Array.sub samples 0 1000)

let pwm_fifo_capacity () =
  let b = fresh () in
  let pwm = b.Hw.Board.pwm in
  let accepted = Hw.Pwm_audio.push_samples pwm (Array.make 100_000 1) in
  check_int "clipped to capacity" Hw.Pwm_audio.fifo_capacity accepted;
  check_int "no space left" 0 (Hw.Pwm_audio.fifo_space pwm)

(* ---- sd ---- *)

let sd_roundtrip () =
  let b = fresh () in
  let sd = b.Hw.Board.sd in
  let data = Bytes.make 1024 'z' in
  ignore (check_ok "write" (Hw.Sd.write sd ~lba:10 ~data));
  let back, _ = check_ok "read" (Hw.Sd.read sd ~lba:10 ~count:2) in
  check_bool "data matches" true (Bytes.equal back data)

let sd_range_amortizes_command () =
  let single = Hw.Sd.cost_ns ~count:1 in
  let range8 = Hw.Sd.cost_ns ~count:8 in
  (* 8 single-block commands must cost much more than one 8-block range *)
  check_bool "range wins" true
    (Int64.compare range8 (Int64.mul 8L single) < 0);
  let ratio = Int64.to_float (Int64.mul 8L single) /. Int64.to_float range8 in
  check_in_range "amortization factor" 2.0 3.5 ratio

let sd_bounds () =
  let b = fresh () in
  ignore (check_err "read past end" (Hw.Sd.read b.Hw.Board.sd ~lba:max_int ~count:1));
  ignore (check_err "unaligned write"
      (Hw.Sd.write b.Hw.Board.sd ~lba:0 ~data:(Bytes.make 100 'x')))

let sector c = Bytes.make Hw.Disk.sector_bytes c

let sd_queue_coalesces_adjacent () =
  let b = fresh () in
  let sd = b.Hw.Board.sd in
  (* three adjacent sectors enqueued out of order, plus one loner: the
     elevator sweep must issue exactly two commands *)
  ignore (check_ok "q12" (Hw.Sd.enqueue_write sd ~lba:12 ~data:(sector 'c')));
  ignore (check_ok "q10" (Hw.Sd.enqueue_write sd ~lba:10 ~data:(sector 'a')));
  ignore (check_ok "q20" (Hw.Sd.enqueue_write sd ~lba:20 ~data:(sector 'z')));
  ignore (check_ok "q11" (Hw.Sd.enqueue_write sd ~lba:11 ~data:(sector 'b')));
  check_int "queued" 4 (Hw.Sd.queued sd);
  let writes0 = Hw.Sd.write_count sd in
  let cost, commands = check_ok "flush" (Hw.Sd.flush_queue sd) in
  check_int "two commands" 2 commands;
  check_int "device saw two writes" 2 (Hw.Sd.write_count sd - writes0);
  check_int "two requests absorbed" 2 (Hw.Sd.merged_count sd);
  check_int "queue drained" 0 (Hw.Sd.queued sd);
  (* one 3-sector command + one single: cheaper than four singles *)
  check_bool "cost is coalesced" true
    (Int64.equal cost
       (Int64.add (Hw.Sd.cost_ns ~count:3) (Hw.Sd.cost_ns ~count:1)));
  let back, _ = check_ok "readback" (Hw.Sd.read sd ~lba:10 ~count:3) in
  check_string "elevator ordered data" "abc"
    (Printf.sprintf "%c%c%c" (Bytes.get back 0)
       (Bytes.get back Hw.Disk.sector_bytes)
       (Bytes.get back (2 * Hw.Disk.sector_bytes)))

let sd_queue_without_coalescing () =
  let b = fresh () in
  let sd = b.Hw.Board.sd in
  List.iter
    (fun lba ->
      ignore (check_ok "q" (Hw.Sd.enqueue_write sd ~lba ~data:(sector 'x'))))
    [ 5; 6; 7 ];
  let cost, commands = check_ok "flush" (Hw.Sd.flush_queue ~coalesce:false sd) in
  check_int "one command per request" 3 commands;
  check_int "nothing merged" 0 (Hw.Sd.merged_count sd);
  check_bool "three single-sector costs" true
    (Int64.equal cost (Int64.mul 3L (Hw.Sd.cost_ns ~count:1)))

let sd_queue_last_write_wins () =
  let b = fresh () in
  let sd = b.Hw.Board.sd in
  ignore (check_ok "first" (Hw.Sd.enqueue_write sd ~lba:9 ~data:(sector 'o')));
  ignore (check_ok "second" (Hw.Sd.enqueue_write sd ~lba:9 ~data:(sector 'n')));
  ignore (check_ok "flush" (Hw.Sd.flush_queue sd));
  let back, _ = check_ok "readback" (Hw.Sd.read sd ~lba:9 ~count:1) in
  check_bool "later write landed last" true (Bytes.get back 0 = 'n');
  ignore (check_err "queue bounds" (Hw.Sd.enqueue_write sd ~lba:(-1) ~data:(sector 'x')))

(* ---- sparse media ---- *)

(* The window opens on an empty minor heap. Without that, a minor
   collection inside it sometimes added ~325k words allocated before it
   opened, and the sparse-card bound failed in full-suite runs. *)
let allocated_during f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let chunk_bytes = 4096

let sd_image_is_sparse () =
  (* a 64 MiB card is a chunk table, not 64 MiB of zeros *)
  let _, bytes = allocated_during (fun () -> Hw.Board.create ~sd_mib:64 ()) in
  check_bool
    (Printf.sprintf "board with a 64 MiB card allocates < 1 MiB (%.0f B)" bytes)
    true (bytes < 1_048_576.0)

let disk_write_straddles_chunks () =
  let disk = Hw.Disk.create ~sectors:32 in
  (* sectors 6..9: the first 4 KiB chunk holds 0..7, the second 8..15 *)
  let data = Bytes.init (4 * 512) (fun i -> Char.chr (1 + (i / 512))) in
  Hw.Disk.write disk ~lba:6 ~count:4 data;
  check_bool "straddling write reads back" true
    (Bytes.equal data (Hw.Disk.read disk ~lba:6 ~count:4));
  check_bool "unwritten sectors before are zeros" true
    (Bytes.equal (Bytes.make (6 * 512) '\000') (Hw.Disk.read disk ~lba:0 ~count:6));
  check_bool "unwritten sectors after are zeros" true
    (Bytes.equal (Bytes.make (22 * 512) '\000') (Hw.Disk.read disk ~lba:10 ~count:22));
  check_bool "one read spans written and unwritten chunks" true
    (Bytes.equal
       (Bytes.concat Bytes.empty
          [ Bytes.make (6 * 512) '\000'; data; Bytes.make (22 * 512) '\000' ])
       (Hw.Disk.read disk ~lba:0 ~count:32))

let sd_torn_write_across_chunks () =
  let b = fresh () in
  let sd = b.Hw.Board.sd in
  Hw.Power.cut_after_media_writes b.Hw.Board.supply ~sectors:1;
  (* sectors 7 and 8 sit in different chunks; the rail grants only 7 *)
  let data = Bytes.cat (sector 'a') (sector 'b') in
  let _, torn = allocated_during (fun () -> Hw.Sd.write sd ~lba:7 ~data) in
  check_bool "torn write allocates one chunk" true
    (torn >= float chunk_bytes && torn < float (2 * chunk_bytes));
  let back, _ = check_ok "read" (Hw.Sd.read sd ~lba:7 ~count:2) in
  check_bool "granted prefix landed" true
    (Bytes.equal (Bytes.sub back 0 512) (sector 'a'));
  check_bool "dropped tail reads as zeros" true
    (Bytes.equal (Bytes.sub back 512 512) (sector '\000'));
  check_bool "rail is down" false (Hw.Power.alive b.Hw.Board.supply);
  let data = Bytes.make chunk_bytes 'c' in
  let _, dropped = allocated_during (fun () -> Hw.Sd.write sd ~lba:16 ~data) in
  check_bool "fully dropped write allocates no chunk" true
    (dropped < float chunk_bytes);
  let back, _ = check_ok "read" (Hw.Sd.read sd ~lba:16 ~count:8) in
  check_bool "dropped write left zeros" true
    (Bytes.equal back (Bytes.make chunk_bytes '\000'))

(* ---- usb ---- *)

let usb_reports_after_init () =
  let b = fresh () in
  Hw.Usb.power_on b.Hw.Board.usb;
  check_bool "not ready immediately" false (Hw.Usb.ready b.Hw.Board.usb);
  Hw.Usb.key_down b.Hw.Board.usb 0x04;
  Sim.Engine.run b.Hw.Board.engine
    ~until:(Int64.add Hw.Usb.init_cost_ns 20_000_000L)
    ();
  check_bool "ready after init" true (Hw.Usb.ready b.Hw.Board.usb);
  let reports = Hw.Usb.take_reports b.Hw.Board.usb in
  check_bool "press reported" true
    (List.exists (fun r -> List.mem 0x04 r.Hw.Usb.keys) reports)

let usb_frame_quantization () =
  let b = fresh () in
  Hw.Usb.power_on b.Hw.Board.usb;
  Sim.Engine.run b.Hw.Board.engine ~until:(Int64.add Hw.Usb.init_cost_ns 10_000_000L) ();
  ignore (Hw.Usb.take_reports b.Hw.Board.usb);
  Hw.Usb.key_down b.Hw.Board.usb 0x05;
  (* within the same 8 ms frame nothing is latched yet *)
  check_int "nothing before next frame" 0 (Hw.Usb.reports_pending b.Hw.Board.usb);
  Sim.Engine.run b.Hw.Board.engine
    ~until:(Int64.add (Sim.Engine.now b.Hw.Board.engine) 9_000_000L)
    ();
  check_bool "latched at frame boundary" true
    (Hw.Usb.reports_pending b.Hw.Board.usb >= 1)

let usb_release_and_modifiers () =
  let b = fresh () in
  Hw.Usb.power_on b.Hw.Board.usb;
  Sim.Engine.run b.Hw.Board.engine ~until:(Int64.add Hw.Usb.init_cost_ns 10_000_000L) ();
  Hw.Usb.key_down b.Hw.Board.usb ~modifiers:0x01 0x2b;
  Sim.Engine.run b.Hw.Board.engine ~until:(Int64.add (Sim.Engine.now b.Hw.Board.engine) 10_000_000L) ();
  Hw.Usb.key_up b.Hw.Board.usb 0x2b;
  Sim.Engine.run b.Hw.Board.engine ~until:(Int64.add (Sim.Engine.now b.Hw.Board.engine) 10_000_000L) ();
  match Hw.Usb.take_reports b.Hw.Board.usb with
  | [ down; up ] ->
      check_int "ctrl modifier" 0x01 down.Hw.Usb.modifiers;
      check_bool "key held" true (List.mem 0x2b down.Hw.Usb.keys);
      check_bool "key released" true (not (List.mem 0x2b up.Hw.Usb.keys))
  | reports -> Alcotest.failf "expected 2 reports, got %d" (List.length reports)

(* The frame service loop's cadence: the first frame runs the instant
   enumeration ends, then one every [frame_interval_ns], so a key held
   between frames raises Usb_hc exactly on the next grid point. An
   unplug ends the chain: the next frame sees the stale generation and
   schedules nothing, so the engine drains. *)
let usb_frame_grid () =
  let b = fresh () in
  let engine = b.Hw.Board.engine and usb = b.Hw.Board.usb in
  let raised = ref [] in
  Hw.Intc.set_handler b.Hw.Board.intc ~core:0 (fun line ->
      if Hw.Irq.equal line Hw.Irq.Usb_hc then
        raised := Sim.Engine.now engine :: !raised);
  let frame k =
    Int64.add Hw.Usb.init_cost_ns
      (Int64.mul (Int64.of_int k) Hw.Usb.frame_interval_ns)
  in
  Hw.Usb.power_on usb;
  let press_at ns usage =
    ignore
      (Sim.Engine.schedule_at engine ns (fun () -> Hw.Usb.key_down usb usage))
  in
  press_at (Int64.add (frame 0) 3_000_000L) 0x04;
  press_at (Int64.add (frame 4) 1L) 0x05;
  press_at (Int64.sub (frame 7) 1L) 0x06;
  Sim.Engine.run engine ~until:(frame 9) ();
  check_bool "one Usb_hc per press, each on the next frame" true
    (List.rev !raised = [ frame 1; frame 5; frame 7 ]);
  check_int "one frame event pending" 1 (Sim.Engine.pending engine);
  Hw.Usb.unplug usb;
  Hw.Usb.key_down usb 0x07;
  Sim.Engine.run engine ~until:(frame 20) ();
  check_int "unplug stops the frames" 0 (Sim.Engine.pending engine);
  check_int "nothing raised after unplug" 3 (List.length !raised)

(* ---- power ---- *)

let power_endpoints () =
  let p = Hw.Power.pi3_game_hat in
  let idle = Hw.Power.total_power p ~busy_cores:0.0 ~io_fraction:0.0 in
  check_in_range "idle ~3W" 2.8 3.3 idle;
  let load = Hw.Power.total_power p ~busy_cores:1.8 ~io_fraction:0.1 in
  check_in_range "load ~4-5W" 3.8 5.5 load;
  check_in_range "idle battery ~3.7h" 3.3 4.0
    (Hw.Power.battery_hours p ~watts:idle)

let power_monotone =
  qcheck "power increases with load"
    QCheck.(pair (float_range 0.0 4.0) (float_range 0.0 4.0))
    (fun (a, b) ->
      let p = Hw.Power.pi3_game_hat in
      let lo = Float.min a b and hi = Float.max a b in
      Hw.Power.total_power p ~busy_cores:lo ~io_fraction:0.0
      <= Hw.Power.total_power p ~busy_cores:hi ~io_fraction:0.0)

let suite =
  ( "hw",
    [
      quick "intc delivers" intc_delivers;
      quick "intc mask pends" intc_mask_pends;
      quick "intc mask nests" intc_mask_nests;
      quick "intc FIQ bypasses mask, round robin" intc_fiq_bypasses_mask_round_robin;
      quick "intc routing" intc_routing;
      quick "intc timer line targets its core" intc_timer_line_targets_its_core;
      quick "timer core oneshot" timer_core_oneshot;
      quick "timer rearm replaces" timer_rearm_replaces;
      quick "timer counter" timer_counter;
      quick "uart capture and cost" uart_capture_and_cost;
      quick "uart rx irq" uart_rx_irq;
      quick "mailbox fb allocation" mailbox_fb_allocation;
      quick "fb cache experience (par 4.3)" fb_cache_experience;
      quick "fb uncached writes through" fb_uncached_writes_through;
      quick "fb out of bounds ignored" fb_out_of_bounds_ignored;
      quick "fb ppm and ascii" fb_ppm_and_ascii;
      quick "fb row copies keep dirty-row semantics" fb_row_copies_keep_dirty_semantics;
      quick "fb direct present = per-pixel stores" fb_direct_present_matches_per_pixel;
      quick "fb ignores the X byte" fb_ignores_the_x_byte;
      quick "gpio edges" gpio_edges;
      quick "dma completes and latches" dma_completes_and_latches;
      quick "dma busy rejects" dma_busy_rejects;
      quick "pwm underruns when starved" pwm_underruns_when_starved;
      quick "pwm plays pushed samples" pwm_plays_pushed_samples;
      quick "pwm fifo capacity" pwm_fifo_capacity;
      quick "sd roundtrip" sd_roundtrip;
      quick "sd range amortizes command" sd_range_amortizes_command;
      quick "sd bounds" sd_bounds;
      quick "sd queue coalesces adjacent" sd_queue_coalesces_adjacent;
      quick "sd queue without coalescing" sd_queue_without_coalescing;
      quick "sd queue last write wins" sd_queue_last_write_wins;
      quick "sd image is sparse" sd_image_is_sparse;
      quick "disk write straddles chunks" disk_write_straddles_chunks;
      quick "sd torn write across chunks" sd_torn_write_across_chunks;
      quick "usb reports after init" usb_reports_after_init;
      quick "usb frame quantization" usb_frame_quantization;
      quick "usb release and modifiers" usb_release_and_modifiers;
      quick "usb frames sit on the 8 ms grid" usb_frame_grid;
      quick "power endpoints" power_endpoints;
      power_monotone;
    ] )
