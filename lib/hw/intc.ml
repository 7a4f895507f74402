type handler = Irq.line -> unit

type core_state = {
  mutable handler : handler option;
  mutable mask_depth : int;
  mutable pending : Irq.line list;  (* newest first; coalesced *)
}

type t = {
  cores : core_state array;
  routes : (Irq.line * int) list ref;
      (** shared lines only: a core's timer line always goes to that core *)
  mutable fiq_next : int;  (* round-robin cursor for FIQ delivery *)
}

let create ~cores =
  let state () = { handler = None; mask_depth = 0; pending = [] } in
  {
    cores = Array.init cores (fun _ -> state ());
    routes = ref [];
    fiq_next = 0;
  }

let route t line ~core =
  (match line with
  | Irq.Core_timer _ -> invalid_arg "Intc.route: per-core timer lines are fixed"
  | Irq.Ipi _ -> invalid_arg "Intc.route: IPI mailboxes are per-core"
  | Irq.Uart_rx | Irq.Usb_hc | Irq.Dma_channel _ | Irq.Gpio_bank
  | Irq.Sd_card | Irq.Fiq_button ->
      ());
  if core < 0 || core >= Array.length t.cores then
    invalid_arg "Intc.route: bad core";
  t.routes := (line, core) :: List.filter (fun (l, _) -> not (Irq.equal l line)) !(t.routes)

let set_handler t ~core h = t.cores.(core).handler <- Some h

(* The core a shared line is routed to; core 0 until the kernel routes
   it. A direct walk, so a device IRQ builds no search closure. *)
let rec routed_core line = function
  | [] -> 0
  | (l, core) :: rest ->
      if Irq.equal l line then core else routed_core line rest

let target_core t line =
  match line with
  | Irq.Core_timer core ->
      if core < 0 || core >= Array.length t.cores then
        invalid_arg "Intc.raise_line: bad timer core";
      core
  | Irq.Ipi _ | Irq.Uart_rx | Irq.Usb_hc | Irq.Dma_channel _ | Irq.Gpio_bank
  | Irq.Sd_card | Irq.Fiq_button ->
      routed_core line !(t.routes)

let deliver state line =
  match state.handler with
  | Some h -> h line
  | None ->
      (* No kernel yet: leave pending so early boot doesn't lose edges. *)
      if not (List.exists (Irq.equal line) state.pending) then
        state.pending <- line :: state.pending

let drain state =
  let lines = List.rev state.pending in
  state.pending <- [];
  List.iter (deliver state) lines

let mask t ~core = t.cores.(core).mask_depth <- t.cores.(core).mask_depth + 1

let unmask t ~core =
  let state = t.cores.(core) in
  if state.mask_depth <= 0 then invalid_arg "Intc.unmask: not masked";
  state.mask_depth <- state.mask_depth - 1;
  if state.mask_depth = 0 then drain state

let raise_line t line =
  match line with
  | Irq.Fiq_button ->
      (* FIQ bypasses the IRQ mask and rotates across cores. *)
      let core = t.fiq_next in
      t.fiq_next <- (t.fiq_next + 1) mod Array.length t.cores;
      deliver t.cores.(core) line
  | Irq.Ipi core ->
      (* The mailbox write targets exactly one core; delivery respects the
         target's IRQ mask like any other interrupt (multiple raises of a
         pending mailbox coalesce — it is one level-triggered bit). *)
      if core < 0 || core >= Array.length t.cores then
        invalid_arg "Intc.raise_line: bad IPI target";
      let state = t.cores.(core) in
      if state.mask_depth > 0 || state.handler = None then begin
        if not (List.exists (Irq.equal line) state.pending) then
          state.pending <- line :: state.pending
      end
      else deliver state line
  | Irq.Core_timer _ | Irq.Uart_rx | Irq.Usb_hc | Irq.Dma_channel _
  | Irq.Gpio_bank | Irq.Sd_card ->
      let core = target_core t line in
      let state = t.cores.(core) in
      if state.mask_depth > 0 || state.handler = None then begin
        if not (List.exists (Irq.equal line) state.pending) then
          state.pending <- line :: state.pending
      end
      else deliver state line

(* Software-generated interrupt: one core kicks another. This is the
   device-register face of the reschedule-IPI path — the scheduler models
   the mailbox-write-to-vector latency before calling this. *)
let send_ipi t ~target = raise_line t (Irq.Ipi target)

let pending_count t ~core = List.length t.cores.(core).pending
