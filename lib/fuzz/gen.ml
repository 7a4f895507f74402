(** vfuzz op grammar and the seed-driven scenario generator.

    A scenario is a short session script: app launches, syscall traffic
    (deliberately mixing well-formed and hostile arguments), keyboard
    monkeying and device-level fault injection. Everything is drawn from
    one {!Sim.Rng} stream, so a seed *is* the scenario — regenerating
    from the same seed yields the identical op list, which is what makes
    shrinking and corpus replay deterministic.

    Ops carry only ints and strings so they serialize to one text line
    each ({!op_to_string} / {!op_of_string}); shrunk repros and the
    regression corpus are plain text a human can read and edit. *)

(* File descriptors (and semaphore ids) in an op are either a [Slot] —
   an index into the session's list of successfully returned ids,
   resolved modulo the list length at execution time — or a [Raw]
   integer passed through verbatim. Slots keep generated programs
   mostly well-formed even after the shrinker deletes the open that
   produced a descriptor; raws are the hostile path. *)
type fdref = Slot of int | Raw of int

type op =
  (* processes *)
  | App of string  (** fork one of the sample apps *)
  | Fork of int  (** fork a child that burns [n] cycles and exits *)
  | WaitAny
  | KillChild of int  (** kill the [k mod n]-th live child we forked *)
  | KillPid of int  (** kill a raw pid — 0, negative, init, garbage *)
  | KillSelf
  (* files *)
  | Open of string * int
  | Close of fdref
  | Read of fdref * int
  | Write of fdref * int
  | Lseek of fdref * int * int  (** offset, whence — both possibly wild *)
  | Dup of fdref
  | Fstat of fdref
  | Fsync of fdref
  | Mkdirp of string
  | Unlink of string
  | Pipe
  | Poll of int  (** poll up to three tracked fds with this timeout *)
  (* semaphores *)
  | SemOpen of int
  | SemPost of fdref
  | SemWait of fdref
  | SemClose of fdref
  (* time, scheduling, memory *)
  | Sleep of int
  | Nice of int
  | Sbrk of int
  | Burn of int
  (* input devices *)
  | KeyDown of int  (** HID usage code *)
  | KeyUp of int
  | GpioTap of int  (** press+release button [b mod 10] *)
  (* device faults *)
  | SdFault of int  (** arm [n] transient SD read faults *)
  | UsbUnplug
  | UsbReplug
  | IrqStorm of int  (** burst of spurious Usb_hc/Gpio_bank interrupts *)
  | PowerBlip of int  (** cut the supply, revive after [ms] *)
  (* never generated: panics when executed; fixture for shrinker tests *)
  | Canary

(* ---- serialization ---- *)

let fdref_to_string = function
  | Slot k -> Printf.sprintf "s%d" k
  | Raw n -> Printf.sprintf "r%d" n

let fdref_of_string s =
  if String.length s < 2 then None
  else
    match (s.[0], int_of_string_opt (String.sub s 1 (String.length s - 1))) with
    | 's', Some k -> Some (Slot k)
    | 'r', Some n -> Some (Raw n)
    | _, _ -> None

let op_to_string = function
  | App a -> "app " ^ a
  | Fork n -> Printf.sprintf "fork %d" n
  | WaitAny -> "wait"
  | KillChild k -> Printf.sprintf "killchild %d" k
  | KillPid p -> Printf.sprintf "killpid %d" p
  | KillSelf -> "killself"
  | Open (p, f) -> Printf.sprintf "open %s %d" p f
  | Close r -> "close " ^ fdref_to_string r
  | Read (r, n) -> Printf.sprintf "read %s %d" (fdref_to_string r) n
  | Write (r, n) -> Printf.sprintf "write %s %d" (fdref_to_string r) n
  | Lseek (r, off, w) ->
      Printf.sprintf "lseek %s %d %d" (fdref_to_string r) off w
  | Dup r -> "dup " ^ fdref_to_string r
  | Fstat r -> "fstat " ^ fdref_to_string r
  | Fsync r -> "fsync " ^ fdref_to_string r
  | Mkdirp p -> "mkdir " ^ p
  | Unlink p -> "unlink " ^ p
  | Pipe -> "pipe"
  | Poll t -> Printf.sprintf "poll %d" t
  | SemOpen v -> Printf.sprintf "semopen %d" v
  | SemPost r -> "sempost " ^ fdref_to_string r
  | SemWait r -> "semwait " ^ fdref_to_string r
  | SemClose r -> "semclose " ^ fdref_to_string r
  | Sleep n -> Printf.sprintf "sleep %d" n
  | Nice n -> Printf.sprintf "nice %d" n
  | Sbrk n -> Printf.sprintf "sbrk %d" n
  | Burn n -> Printf.sprintf "burn %d" n
  | KeyDown u -> Printf.sprintf "keydown %d" u
  | KeyUp u -> Printf.sprintf "keyup %d" u
  | GpioTap b -> Printf.sprintf "gpiotap %d" b
  | SdFault n -> Printf.sprintf "sdfault %d" n
  | UsbUnplug -> "usbunplug"
  | UsbReplug -> "usbreplug"
  | IrqStorm n -> Printf.sprintf "irqstorm %d" n
  | PowerBlip ms -> Printf.sprintf "powerblip %d" ms
  | Canary -> "canary"

let op_of_string line =
  let int_ = int_of_string_opt in
  match String.split_on_char ' ' (String.trim line) with
  | [ "app"; a ] -> Some (App a)
  | [ "fork"; n ] -> Option.map (fun n -> Fork n) (int_ n)
  | [ "wait" ] -> Some WaitAny
  | [ "killchild"; k ] -> Option.map (fun k -> KillChild k) (int_ k)
  | [ "killpid"; p ] -> Option.map (fun p -> KillPid p) (int_ p)
  | [ "killself" ] -> Some KillSelf
  | [ "open"; p; f ] -> Option.map (fun f -> Open (p, f)) (int_ f)
  | [ "close"; r ] -> Option.map (fun r -> Close r) (fdref_of_string r)
  | [ "read"; r; n ] -> (
      match (fdref_of_string r, int_ n) with
      | Some r, Some n -> Some (Read (r, n))
      | _, _ -> None)
  | [ "write"; r; n ] -> (
      match (fdref_of_string r, int_ n) with
      | Some r, Some n -> Some (Write (r, n))
      | _, _ -> None)
  | [ "lseek"; r; off; w ] -> (
      match (fdref_of_string r, int_ off, int_ w) with
      | Some r, Some off, Some w -> Some (Lseek (r, off, w))
      | _, _, _ -> None)
  | [ "dup"; r ] -> Option.map (fun r -> Dup r) (fdref_of_string r)
  | [ "fstat"; r ] -> Option.map (fun r -> Fstat r) (fdref_of_string r)
  | [ "fsync"; r ] -> Option.map (fun r -> Fsync r) (fdref_of_string r)
  | [ "mkdir"; p ] -> Some (Mkdirp p)
  | [ "unlink"; p ] -> Some (Unlink p)
  | [ "pipe" ] -> Some Pipe
  | [ "poll"; t ] -> Option.map (fun t -> Poll t) (int_ t)
  | [ "semopen"; v ] -> Option.map (fun v -> SemOpen v) (int_ v)
  | [ "sempost"; r ] -> Option.map (fun r -> SemPost r) (fdref_of_string r)
  | [ "semwait"; r ] -> Option.map (fun r -> SemWait r) (fdref_of_string r)
  | [ "semclose"; r ] -> Option.map (fun r -> SemClose r) (fdref_of_string r)
  | [ "sleep"; n ] -> Option.map (fun n -> Sleep n) (int_ n)
  | [ "nice"; n ] -> Option.map (fun n -> Nice n) (int_ n)
  | [ "sbrk"; n ] -> Option.map (fun n -> Sbrk n) (int_ n)
  | [ "burn"; n ] -> Option.map (fun n -> Burn n) (int_ n)
  | [ "keydown"; u ] -> Option.map (fun u -> KeyDown u) (int_ u)
  | [ "keyup"; u ] -> Option.map (fun u -> KeyUp u) (int_ u)
  | [ "gpiotap"; b ] -> Option.map (fun b -> GpioTap b) (int_ b)
  | [ "sdfault"; n ] -> Option.map (fun n -> SdFault n) (int_ n)
  | [ "usbunplug" ] -> Some UsbUnplug
  | [ "usbreplug" ] -> Some UsbReplug
  | [ "irqstorm"; n ] -> Option.map (fun n -> IrqStorm n) (int_ n)
  | [ "powerblip"; ms ] -> Option.map (fun ms -> PowerBlip ms) (int_ ms)
  | [ "canary" ] -> Some Canary
  | _ -> None

(* ---- scenario ---- *)

type scenario = {
  sc_seed : int64;
  sc_variant : int;  (** kernel-config variant, see {!Session.config_of_variant} *)
  sc_ops : op list;
}

(* ---- argument pools ---- *)

(* Paths the boot spec guarantees exist, plus devices, procfs and a few
   that don't resolve. *)
let read_paths =
  [|
    "/f0"; "/f1"; "/dir0/n0"; "/dir0"; "/d/FAT0.TXT"; "/dev/null";
    "/dev/events"; "/proc/uptime"; "/proc/tasks"; "/proc/meminfo";
    "/nosuch"; "/dir0/nosuch"; "/d/NOSUCH.TXT"; ""; "/../../etc";
  |]

let create_paths = [| "/f0"; "/f1"; "/new0"; "/new1"; "/dir0/n1" |]
let mkdir_paths = [| "/dir1"; "/dir2"; "/dir0"; "/f0"; "/dir1/sub" |]
let unlink_paths = [| "/f1"; "/new0"; "/new1"; "/nosuch"; "/dir0" |]

let open_flag_pool =
  [|
    Core.Abi.o_rdonly;
    Core.Abi.o_rdwr;
    Core.Abi.o_wronly;
    Core.Abi.o_create lor Core.Abi.o_rdwr;
    Core.Abi.o_create lor Core.Abi.o_wronly lor Core.Abi.o_trunc;
  |]

(* Hostile length menu: negatives, zero, ordinary sizes, multi-GB. *)
let read_lens =
  [| -1; -4096; min_int / 2; 0; 1; 17; 512; 4096; 65536; 1 lsl 30; max_int |]

let write_lens = [| 0; 1; 17; 512; 4096 |]
let seek_offsets = [| -1_000_000; -1; 0; 1; 511; 4096; 1 lsl 20; max_int / 2 |]
let whences = [| 0; 1; 2; 0; 1; 2; 3; -1; 7; 99 |]
let raw_fds = [| -1; 3; 7; 30; 31; 32; 100; 1 lsl 20 |]
let raw_pids = [| 0; -1; -100; 1; 2; 99; 99999 |]
let raw_sems = [| -1; 0; 99; 4096 |]
let sem_values = [| -1; -100; 0; 1; 3 |]
let sleep_ms = [| 0; 1; 2; 5 |]
let nices = [| -30; -1; 0; 5; 50 |]
(* sbrk menu stops at 16 MB of real growth: bigger grants are legal but
   make every later fork pay megabytes of page copies, which busts the
   session's virtual-time budget and reads as a false Wedge. The 1 GB
   entry probes the ENOMEM path: it exceeds free memory, so Kalloc
   refuses it before moving a frame. The refusal changes no allocator
   state, and sbrk charges its per-page cost only on success. *)
let sbrks = [| -4096; 0; 4096; 65536; 1 lsl 24; 1 lsl 30 |]
let burns = [| 1_000; 5_000; 20_000; 100_000 |]
let usages = [| 0x04; 0x05; 0x28; 0x2c; 0x4f; 0x52 |]
let poll_timeouts = [| 0; 1; 5 |]

let app_names = [| "hello"; "ls"; "cat"; "wc"; "echo"; "grep"; "ps"; "uptime" |]

let pick rng a = a.(Sim.Rng.int rng (Array.length a))

(* ---- generation ---- *)

(* The generator keeps a model of the session the executor will run:
   how many fd slots exist (an upper bound — Slot resolves modulo the
   live list), which keys are held, and the exact value of every
   semaphore slot. The sem model is exact because the driver task is
   the only sem user, which lets us emit [SemWait (Slot i)] only when
   slot [i] provably has a token — a blocking wait would wedge the
   session and drown real deadlock signals in noise. Hostile waits go
   through [Raw] ids, which fail fast with EINVAL. *)
let gen_ops rng ~ops ~faults =
  let out = ref [] in
  let emit op = out := op :: !out in
  let fd_slots = ref 0 in
  let sem_vals = ref ([] : int list) in
  let held = ref ([] : int list) in
  let children = ref 0 in
  let fdref () =
    if !fd_slots > 0 && Sim.Rng.bool rng 0.75 then
      Slot (Sim.Rng.int rng !fd_slots)
    else Raw (pick rng raw_fds)
  in
  let semref_any () =
    if !sem_vals <> [] && Sim.Rng.bool rng 0.7 then
      Slot (Sim.Rng.int rng (List.length !sem_vals))
    else Raw (pick rng raw_sems)
  in
  for _ = 1 to ops do
    let roll = Sim.Rng.int rng 100 in
    (* device hostility occupies the top of the table; with faults
       disabled those rolls degrade to plain CPU burn *)
    let roll = if (not faults) && roll >= 86 then 72 else roll in
    if roll < 8 then begin
      let creating = Sim.Rng.bool rng 0.4 in
      let path, flags =
        if creating then (pick rng create_paths, pick rng open_flag_pool)
        else (pick rng read_paths, pick rng open_flag_pool)
      in
      (* device and procfs files must never block the driver: force
         O_NONBLOCK so a read of an empty /dev/events returns EAGAIN *)
      let flags =
        if String.length path >= 5 && String.sub path 0 5 = "/dev/" then
          flags lor Core.Abi.o_nonblock
        else flags
      in
      emit (Open (path, flags));
      incr fd_slots
    end
    else if roll < 14 then emit (Read (fdref (), pick rng read_lens))
    else if roll < 20 then emit (Write (fdref (), pick rng write_lens))
    else if roll < 25 then
      emit (Lseek (fdref (), pick rng seek_offsets, pick rng whences))
    else if roll < 28 then emit (Close (fdref ()))
    else if roll < 30 then begin
      emit (Dup (fdref ()));
      incr fd_slots
    end
    else if roll < 32 then emit (Fstat (fdref ()))
    else if roll < 34 then emit (Fsync (fdref ()))
    else if roll < 36 then emit (Mkdirp (pick rng mkdir_paths))
    else if roll < 38 then emit (Unlink (pick rng unlink_paths))
    else if roll < 40 then begin
      emit Pipe;
      fd_slots := !fd_slots + 2
    end
    else if roll < 42 then emit (Poll (pick rng poll_timeouts))
    else if roll < 45 then begin
      let v = pick rng sem_values in
      emit (SemOpen v);
      if v >= 0 then sem_vals := !sem_vals @ [ v ]
    end
    else if roll < 47 then begin
      let r = semref_any () in
      (match r with
      | Slot k ->
          sem_vals :=
            List.mapi
              (fun i v ->
                if i = k mod List.length !sem_vals then v + 1 else v)
              !sem_vals
      | Raw _ -> ());
      emit (SemPost r)
    end
    else if roll < 49 then begin
      (* a Slot wait is only emitted against a sem with a banked token *)
      let armed =
        List.filteri (fun _ v -> v > 0) !sem_vals
        |> List.length
      in
      if armed > 0 && Sim.Rng.bool rng 0.7 then begin
        let idx =
          let want = Sim.Rng.int rng armed in
          let n = ref (-1) and found = ref 0 in
          List.iteri
            (fun i v ->
              if v > 0 then begin
                if !n < 0 && !found = want then n := i;
                incr found
              end)
            !sem_vals;
          max 0 !n
        in
        sem_vals := List.mapi (fun i v -> if i = idx then v - 1 else v) !sem_vals;
        emit (SemWait (Slot idx))
      end
      else emit (SemWait (Raw (pick rng raw_sems)))
    end
    else if roll < 51 then begin
      let r = semref_any () in
      (match r with
      | Slot k ->
          let n = List.length !sem_vals in
          sem_vals := List.filteri (fun i _ -> i <> k mod n) !sem_vals
      | Raw _ -> ());
      emit (SemClose r)
    end
    else if roll < 56 then begin
      emit (App (pick rng app_names));
      incr children
    end
    else if roll < 59 then begin
      emit (Fork (pick rng burns));
      incr children
    end
    else if roll < 61 then emit WaitAny
    else if roll < 63 then
      if !children > 0 then emit (KillChild (Sim.Rng.int rng !children))
      else emit (KillPid (pick rng raw_pids))
    else if roll < 65 then emit (KillPid (pick rng raw_pids))
    else if roll < 68 then emit (Sleep (pick rng sleep_ms))
    else if roll < 70 then emit (Nice (pick rng nices))
    else if roll < 72 then emit (Sbrk (pick rng sbrks))
    else if roll < 76 then emit (Burn (pick rng burns))
    else if roll < 81 then begin
      let u = pick rng usages in
      emit (KeyDown u);
      if not (List.mem u !held) then held := !held @ [ u ]
    end
    else if roll < 84 then begin
      match !held with
      | [] ->
          let u = pick rng usages in
          emit (KeyDown u);
          held := !held @ [ u ]
      | hs ->
          let u = List.nth hs (Sim.Rng.int rng (List.length hs)) in
          held := List.filter (fun x -> x <> u) hs;
          emit (KeyUp u)
    end
    else if roll < 86 then emit (GpioTap (Sim.Rng.int rng 10))
    else if roll < 90 then emit (SdFault (1 + Sim.Rng.int rng 3))
    else if roll < 92 then begin
      emit UsbUnplug;
      held := []
    end
    else if roll < 94 then emit UsbReplug
    else if roll < 98 then emit (IrqStorm (4 + Sim.Rng.int rng 16))
    else emit (PowerBlip (1 + Sim.Rng.int rng 10))
  done;
  (* leave the keyboard quiet, then sometimes go out via self-kill so
     the exit-under-fire path gets coverage too *)
  List.iter (fun u -> emit (KeyUp u)) !held;
  if Sim.Rng.bool rng 0.08 then emit KillSelf;
  List.rev !out

let variant_count = 6

(* Ops per generated scenario; explicit corpus entries pin their own op
   lists. *)
let default_ops = 48

(* [generate seed] is the whole story: variant and op list both come
   from the one splitmix stream, so the seed fully determines the
   session. *)
let generate ?(ops = default_ops) ?(faults = true) seed =
  let rng = Sim.Rng.create seed in
  let variant = Sim.Rng.int rng variant_count in
  let sc_ops = gen_ops rng ~ops ~faults in
  { sc_seed = seed; sc_variant = variant; sc_ops }
