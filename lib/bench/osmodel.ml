(** Baseline operating-system models for Figure 9 and Table 4.

    We cannot run Linux, FreeBSD or the C xv6-armv8 port inside this
    container (DESIGN.md substitution table), so the baselines are
    parameterized models applied to the {e same workloads} our kernel runs.
    Each parameter encodes the causal mechanism the paper names for the
    observed difference, with the paper's own observations as calibration:

    - kernel-path latencies relative to VOS's measured ones ("comparable,
      within 0.5x–2x"; fork dominated by eager page copies, production
      OSes lazy, §6.2);
    - a libc compute factor (newlib vs musl vs glibc vs BSD libc) scaling
      md5sum/qsort ("likely due to differences in the standard C
      libraries");
    - file-path factors (VOS/xv6 polled SD drivers vs production DMA
      stacks);
    - a display-path model for Table 4 (production OSes render through an
      X server copy; VOS draws direct). *)

type t = {
  os_name : string;
  (* kernel path multipliers relative to measured VOS latency *)
  getpid_f : float;
  sbrk_f : float;
  ipc_f : float;
  (* fork: lazy-copy systems pay a ~constant cost instead of per-page *)
  fork_model : [ `Like_ours of float | `Lazy of float (* us, flat *) ];
  (* compute: libc quality *)
  libc_factor : float;
  (* file IO throughput multiplier (driver + cache stack quality) *)
  file_f : float;
  (* display path: production OSes render through an X server; the copy
     cost scales with the window area, plus a fixed per-frame server
     round-trip *)
  display_fixed_ms : float;
  display_ms_per_mpx : float;
  runs_mario_variants : bool;
      (** mario-noinput/proc need VOS-specific devfs (Table 4's '-') *)
}

let vos =
  {
    os_name = "ours";
    getpid_f = 1.0;
    sbrk_f = 1.0;
    ipc_f = 1.0;
    fork_model = `Like_ours 1.0;
    libc_factor = 1.0 (* newlib *);
    file_f = 1.0;
    display_fixed_ms = 0.0;
    display_ms_per_mpx = 0.0;
    runs_mario_variants = true;
  }

(* xv6-armv8 (Hongqin-Li rpi-os) with musl: comparable kernel paths
   (slightly slower on most per Fig. 9), slower compute (musl), slower SD
   driver ("ours appears to be more efficient"). *)
let xv6 =
  {
    os_name = "xv6-armv8";
    getpid_f = 1.18;
    sbrk_f = 1.25;
    ipc_f = 1.30;
    fork_model = `Like_ours 1.15;
    libc_factor = 1.45 (* musl's byte-wise paths on A53 *);
    file_f = 0.45;
    display_fixed_ms = 0.0;
    display_ms_per_mpx = 0.0;
    runs_mario_variants = false;
  }

(* Ubuntu 22.04 / glibc: fast syscalls, lazy fork, DMA storage stack, but
   an X server in the display path. *)
let linux =
  {
    os_name = "linux";
    getpid_f = 0.55;
    sbrk_f = 0.80;
    ipc_f = 0.85;
    fork_model = `Lazy 180.0;
    libc_factor = 0.90 (* glibc NEON string/mem paths *);
    file_f = 14.0;
    display_fixed_ms = 1.0 (* X server round-trip *);
    display_ms_per_mpx = 45.0 (* SHM put of the window area *);
    runs_mario_variants = false;
  }

(* FreeBSD 14.2: comparable syscall paths, lazy fork, good storage; a
   lighter X configuration in the paper's runs. *)
let freebsd =
  {
    os_name = "freebsd";
    getpid_f = 0.75;
    sbrk_f = 1.05;
    ipc_f = 1.10;
    fork_model = `Lazy 210.0;
    libc_factor = 1.00;
    file_f = 10.0;
    display_fixed_ms = 1.5;
    display_ms_per_mpx = 6.0;
    runs_mario_variants = false;
  }

let baselines = [ xv6; linux; freebsd ]

(* Apply the model to a measured VOS latency (us). *)
let latency_us model ~bench ~ours_us ~fork_pages =
  match bench with
  | `Getpid -> ours_us *. model.getpid_f
  | `Sbrk -> ours_us *. model.sbrk_f
  | `Ipc -> ours_us *. model.ipc_f
  | `Fork -> (
      match model.fork_model with
      | `Like_ours f -> ours_us *. f
      | `Lazy flat_us -> flat_us +. (0.02 *. float_of_int fork_pages))
  | `Compute -> ours_us *. model.libc_factor /. vos.libc_factor
  | `File -> ours_us /. model.file_f

(* Apply the model to a measured VOS frame time (ms). The app-logic share
   is first deflated by [newlib_factor] — the bloat our newlib-class
   library adds, which the paper's latency analysis blames for mario-sdl's
   slowness and which glibc/BSD libc builds do not pay — then scaled by the
   baseline's libc factor; the X display path adds its window-scaled copy. *)
let fps model ~ours_fps ~applogic_share ~newlib_factor ~window_px =
  if ours_fps <= 0.0 then 0.0
  else begin
    let frame_ms = 1000.0 /. ours_fps in
    let app = frame_ms *. applogic_share
    and rest = frame_ms *. (1.0 -. applogic_share) in
    let display =
      model.display_fixed_ms
      +. (model.display_ms_per_mpx *. float_of_int window_px /. 1e6)
    in
    let frame_ms' =
      (app /. newlib_factor *. model.libc_factor /. vos.libc_factor)
      +. rest +. display
    in
    1000.0 /. frame_ms'
  end
