(** Power and battery model (Figure 12 substitute for the USB power meter).

    Device power is decomposed the way the paper's figure is: the Pi3 board
    (idle floor plus per-core active power) and the Game HAT expansion
    (display backlight, audio amplifier, power IC). Battery life is the
    pack's energy divided by average power, for the HAT-compatible 18650
    cell (3000 mAh at 3.7 V). *)

type profile = {
  board_idle_w : float;  (** Pi3 at idle (WFI loop), peripherals clocked *)
  core_active_w : float;  (** additional draw per fully-busy core *)
  io_active_w : float;  (** additional draw under sustained IO (SD/USB) *)
  hat_w : float;  (** Game HAT: display + amplifier + power IC *)
  battery_wh : float;
}

val pi3_game_hat : profile
(** Calibrated to the paper: ~3 W at shell prompt, ~4 W under game load,
    3.7 h / 2.6 h battery life respectively. *)

val board_power : profile -> busy_cores:float -> io_fraction:float -> float
(** Pi3-board draw given the time-averaged number of busy cores
    (0.0–4.0) and the fraction of time spent in device IO. *)

val total_power : profile -> busy_cores:float -> io_fraction:float -> float
(** {!board_power} plus the game HAT's draw. *)

val battery_hours : profile -> watts:float -> float

(** {1 The supply rail: power-cut injection}

    A [supply] models the board's power rail as storage devices see it.
    While the rail is up every sector a device writes reaches the medium;
    a power cut kills the rail, and every write issued at or after the
    cut is dropped on the floor — the medium freezes at whatever prefix
    of sectors it had absorbed. Cuts can be scheduled at a virtual time
    (an engine event) or after an exact number of media sector writes,
    which gives the crash-injection harness sector-granular, perfectly
    deterministic cut points — including cuts that tear a multi-sector
    block write in half. With no cut scheduled the supply is free:
    every budget query grants in full and device behaviour is
    bit-identical to a build without it. *)

type supply

val supply : unit -> supply
(** A fresh, healthy rail: unlimited budget, no cut scheduled. *)

val alive : supply -> bool

val cut : supply -> unit
(** Kill the rail now. Idempotent. *)

val cut_after_media_writes : supply -> sectors:int -> unit
(** Kill the rail after exactly [sectors] more media sectors have been
    granted; the write that crosses the budget is torn at the boundary.
    [sectors = 0] cuts immediately. *)

val media_budget : supply -> sectors:int -> int
(** [media_budget s ~sectors] asks the rail to power a [sectors]-long
    write and returns how many leading sectors actually reach the
    medium (the rest are dropped). Devices call this on
    every media write; an exhausted budget triggers the cut. *)

val revive : supply -> unit
(** Bring the rail back up with no budget (the harness's "reboot"). The
    medium keeps whatever it had at the cut. *)

val media_writes : supply -> int
(** Total sectors granted to media over the supply's lifetime. *)
