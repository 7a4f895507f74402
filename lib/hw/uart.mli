(** PL011-style UART.

    Transmit is synchronous and polled, exactly as the paper argues for in
    §4.1: the writer busy-waits for the shift register, so each character
    costs wire time at the configured baud rate. The cost is returned to the
    caller (the kernel's console driver), which charges it to the running
    task. Receive is interrupt-driven: injected characters enter a FIFO and
    raise [Irq.Uart_rx].

    All transmitted bytes are captured in an output log so tests and
    examples can assert on console output. *)

type t

val create : Sim.Engine.t -> Intc.t -> baud:int -> t

val tx_cost_ns : t -> int64
(** Wire time for one character: 10 bit-times (8N1) at the baud rate. *)

val transmit : t -> char -> int64
(** Send one character; returns the polling cost in nanoseconds the caller
    must account for. *)

val output : t -> string
(** Everything transmitted since creation. *)

val inject : t -> char -> unit
(** Simulate a character arriving on the wire; raises [Irq.Uart_rx]. *)

val inject_string : t -> string -> unit

val read_char : t -> char option
(** Kernel-side: pop the RX FIFO. *)

val rx_available : t -> int
