(** Interrupt lines of the simulated SoC.

    Line numbering loosely follows the BCM2836 local/global split: per-core
    generic-timer lines are private, everything else is a shared peripheral
    line. The kernel routes shared lines to a core (core 0 in VOS, per the
    paper) and the panic FIQ round-robin across cores. *)

type line =
  | Core_timer of int  (** per-core ARM generic timer, core id *)
  | Ipi of int
      (** software-generated inter-processor interrupt, target core id —
          the BCM2836 local mailbox registers: any core writes the target's
          mailbox and the target takes an interrupt *)
  | Uart_rx
  | Usb_hc  (** USB host controller *)
  | Dma_channel of int
  | Gpio_bank
  | Sd_card
  | Fiq_button  (** the panic button; delivered as FIQ *)

val equal : line -> line -> bool

val describe : line -> string
(** Human-readable name, used by trace dumps. *)
