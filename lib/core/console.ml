(** The UART console.

    Kernel printk and /dev/console writes are synchronous and polled
    throughout all five prototypes — the paper's deliberate choice (§4.1):
    interrupt-driven writes would need a ring buffer, which needs locks,
    whose debug output goes… to the UART. Reads are interrupt-driven
    (Prototype 4's "irq RX"). *)

type t = { board : Hw.Board.t }

let create board sched =
  let t = { board } in
  Sched.register_irq sched Hw.Irq.Uart_rx (fun () ->
      Sched.wake_all sched Task.Uart_input;
      Sched.poll_wake sched);
  t

let uart t = t.board.Hw.Board.uart

(* poll(2) readiness: input buffered in the RX FIFO. *)
let rx_ready t = Hw.Uart.rx_available (uart t) > 0

(* Kernel-context printk: no task to charge; the wire time is real but the
   kernel simply spins through it, which is why heavy printk visibly slows
   the system — reproduced here by charging the caller when there is one. *)
let printk t msg = String.iter (fun c -> ignore (Hw.Uart.transmit (uart t) c)) msg

(* User write to the console: each character costs the polling loop plus
   its wire time. *)
let write ctx t data =
  let n = Bytes.length data in
  Sched.charge ctx (Kcost.uart_poll_loop * n);
  let wire = ref 0L in
  Bytes.iter (fun c -> wire := Int64.add !wire (Hw.Uart.transmit (uart t) c)) data;
  Sched.charge_io ctx (Hw.Board.io_ns t.board !wire);
  Sched.finish ctx (Abi.R_int n)

let read ctx t ~len ~nonblock =
  let rec attempt () =
    let available = Hw.Uart.rx_available (uart t) in
    if available > 0 then begin
      let n = min len available in
      let out = Bytes.create n in
      for i = 0 to n - 1 do
        match Hw.Uart.read_char (uart t) with
        | Some c -> Bytes.set out i c
        | None -> assert false
      done;
      Sched.charge ctx (Kcost.event_copy + n);
      Sched.finish ctx (Abi.R_bytes out)
    end
    else if nonblock then Sched.fail ctx Errno.eagain
    else Sched.block ctx ~chan:Task.Uart_input ~retry:attempt
  in
  attempt ()
