(** Interrupt controller.

    Devices raise lines; the controller delivers each line to the core the
    kernel routed it to, by invoking the handler that core's kernel
    registered. A raised line on a core whose interrupts are masked stays
    pending and is delivered when the core unmasks.

    The FIQ line ([Irq.Fiq_button]) ignores the IRQ mask — mirroring the
    paper's panic-button design, which must fire even when the kernel is
    deadlocked with IRQs off — and is delivered round-robin across cores. *)

type t

type handler = Irq.line -> unit
(** Invoked in "interrupt context": synchronously, on behalf of the target
    core, when a routed line fires. *)

val create : cores:int -> t

val route : t -> Irq.line -> core:int -> unit
(** Direct [line] to [core]. A per-core timer line is not in the route
    table: [Core_timer c] always goes to core [c], without a lookup, and
    re-routing it raises [Invalid_argument]. *)

val set_handler : t -> core:int -> handler -> unit
(** Install the kernel's interrupt entry point for [core]. *)

val mask : t -> core:int -> unit
(** Disable IRQ delivery to [core] (DAIF.I set). Nestable; each [mask]
    needs a matching [unmask]. *)

val unmask : t -> core:int -> unit
(** Re-enable IRQ delivery; pending lines are delivered immediately. *)

val raise_line : t -> Irq.line -> unit
(** Device-side: assert [line]. Delivered now if the target core is
    unmasked and a handler is installed; otherwise left pending (multiple
    raises of a pending line coalesce, like a level-triggered controller).
    Raises [Invalid_argument] for a [Core_timer] or [Ipi] line naming a
    core the controller does not have. *)

val send_ipi : t -> target:int -> unit
(** Software-generated interrupt: write core [target]'s local mailbox, so
    that core takes an [Irq.Ipi] interrupt. Equivalent to
    [raise_line t (Irq.Ipi target)]; masked or handler-less targets keep it
    pending like any level-triggered line. *)

val pending_count : t -> core:int -> int
(** Number of distinct lines pending on [core]; for tests and panic dumps. *)
