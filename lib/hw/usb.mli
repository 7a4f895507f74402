(** USB host controller with a HID boot-protocol keyboard.

    Stands in for the ported USPi stack (§4.4). The behavioural contract
    VOS relies on is kept: controller power-up and device enumeration take
    real time (the dominant share of the paper's 6-second boot), and once
    enumerated the keyboard's interrupt endpoint is polled every 8 ms USB
    frame. When the key state changed since the last poll, an 8-byte boot
    report (modifier byte + up to 6 key usages) is latched and
    [Irq.Usb_hc] raised — so key events are inherently asynchronous and
    quantized to frame boundaries, which the input-latency breakdown of
    Figure 11 inherits.

    Test harnesses inject keys with [key_down]/[key_up] using HID usage
    codes (e.g. 0x04 = 'a', 0x28 = Enter, 0x4f–0x52 = arrows). *)

type report = { modifiers : int; keys : int list }
(** One boot-protocol input report; [keys] are the currently-held usage
    codes (at most 6). *)

type t

val create : Sim.Engine.t -> Intc.t -> t

val init_cost_ns : int64
(** Controller reset + port power + enumeration; ~1.1 s, as on real Pi3. *)

val power_on : t -> unit
(** Begin controller initialization; after [init_cost_ns] the keyboard is
    enumerated and frame polling starts. *)

val ready : t -> bool

val unplug : t -> unit
(** Surprise-remove the keyboard function: polling stops, held keys and
    latched reports are dropped. The mass-storage function is modeled as
    a separate port and is unaffected. Fault injection for the fuzz
    harness. *)

val replug : t -> unit
(** Re-attach after {!unplug}; enumeration pays {!init_cost_ns} again
    before {!ready} flips back. *)

val frame_interval_ns : int64
(** The 8 ms interrupt-endpoint service interval. *)

val key_down : t -> ?modifiers:int -> int -> unit
(** Device-side: press the key with the given usage code. *)

val key_up : t -> int -> unit

val take_reports : t -> report list
(** Kernel-side: drain latched reports in arrival order. *)

val reports_pending : t -> int

(** {1 Mass-storage class (the extensibility §4.4 credits the USB stack
    with: "ethernet adapters and mass storage, in the future")} *)

val attach_msd : t -> Disk.t -> unit
(** Plug a bulk-only mass-storage device backed by [disk] into the root
    hub; enumerated together with the keyboard at [power_on]. *)

val msd_attached : t -> bool

val msd_sectors : t -> int

val msd_read : t -> lba:int -> count:int -> (Bytes.t * int64, string) result
(** Bulk-in transfer of [count] sectors; returns data plus the wire time
    (SCSI command + full-speed bulk throughput). *)

val msd_write : t -> lba:int -> data:Bytes.t -> (int64, string) result
