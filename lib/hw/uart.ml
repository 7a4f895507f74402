type t = {
  intc : Intc.t;
  bit_ns : int64;
  log : Buffer.t;
  rx : char Queue.t;
}

let create _engine intc ~baud =
  assert (baud > 0);
  {
    intc;
    bit_ns = Int64.of_int (1_000_000_000 / baud);
    log = Buffer.create 4096;
    rx = Queue.create ();
  }

let tx_cost_ns t = Int64.mul 10L t.bit_ns

let transmit t c =
  Buffer.add_char t.log c;
  tx_cost_ns t

let output t = Buffer.contents t.log

let inject t c =
  Queue.add c t.rx;
  Intc.raise_line t.intc Irq.Uart_rx

let inject_string t s = String.iter (inject t) s

let read_char t = if Queue.is_empty t.rx then None else Some (Queue.pop t.rx)
let rx_available t = Queue.length t.rx
