(** The assembled machine: a Raspberry Pi 3 (or a QEMU profile of it).

    One [Board.t] owns the simulation engine and every device. The kernel
    receives a board at boot and drives it; tests construct boards directly.

    Platform profiles reproduce the paper's three test platforms (Table 2):
    real Pi3 silicon, and QEMU on a modern x86 host under WSL2 or VMware —
    where the CPU is emulated faster than 1 GHz A53 and device access skips
    real wire time. *)

type platform = {
  plat_name : string;
  cpu_hz : int;  (** effective per-core clock *)
  num_cores : int;
  io_scale : float;  (** multiplier on device wire/poll costs; <1 on QEMU *)
  firmware_boot_ns : int64;  (** power-on firmware + kernel-image load *)
}

val pi3 : platform
val qemu_wsl : platform
val qemu_vm : platform

type t = {
  platform : platform;
  engine : Sim.Engine.t;
  intc : Intc.t;
  timer : Timer.t;
  uart : Uart.t;
  mailbox : Mailbox.t;
  gpio : Gpio.t;
  dma : Dma.t;
  pwm : Pwm_audio.t;
  sd : Sd.t;
  usb : Usb.t;
  supply : Power.supply;
      (** the power rail storage devices draw from; the crash-injection
          harness schedules cuts on it *)
}

val create : ?platform:platform -> ?sd_mib:int -> unit -> t

val cycles_to_ns : t -> int -> int64
(** Convert a cycle count on this platform's cores to nanoseconds. *)

val io_ns : t -> int64 -> int64
(** Scale a device cost by the platform's IO profile. *)

val now : t -> int64
(** The board's clock (engine time), ns since power-on. *)
