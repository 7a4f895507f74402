(** GPIO bank, as used by the Game HAT buttons and the panic button.

    Buttons are active-low lines. Pressing or releasing a button latches an
    edge event and raises [Irq.Gpio_bank]; the kernel's driver reads and
    clears the latched edges. One designated line is wired to FIQ instead,
    implementing the paper's panic button (§5.1). *)

type t

type button = Up | Down | Left | Right | A | B | X | Y | Start | Select

val create : Sim.Engine.t -> Intc.t -> t

val press : t -> button -> unit
val release : t -> button -> unit

val take_edges : t -> (button * bool) list
(** Kernel-side: latched (button, pressed) edges in arrival order; clears
    the latch. *)

val press_panic_button : t -> unit
(** Raise the FIQ panic line, regardless of IRQ masking. *)
