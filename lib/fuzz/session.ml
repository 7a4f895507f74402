(** vfuzz session executor and oracle.

    [run] boots a fresh kernel from the scenario's config variant (the
    seed picks only the variant and the op list), spawns one "monkey" user task that executes the op list,
    and watches for the four ways a session can go wrong:

    - {b Crash}: the kernel died with [Kpanic.Panic] (or the host model
      threw) outside of a sanitizer report;
    - {b Violation}: kcheck recorded a rule violation (lockdep cycle,
      deadlock scan, refcount audit) — these also surface as panics,
      but are classified separately because they point at the sanitizer
      finding, not the panic site;
    - {b Invariant}: a syscall returned something the spec forbids —
      an undefined errno, success where EINVAL is mandatory, a read
      longer than requested. Checked inline by the monkey itself;
    - {b Wedge}: the monkey neither finished nor died within the
      session's virtual-time budget ({!session_ms}) — the fuzzer's
      deadlock oracle.

    A passing run produces a digest over the ktrace, the UART output
    and the outcome tag. Same seed ⇒ byte-identical digest; the
    determinism test holds the fuzzer to that. *)

open Core

type failure =
  | Crash of string
  | Violation of string
  | Invariant of string
  | Wedge of string

type outcome = Pass | Fail of failure

type result = {
  r_outcome : outcome;
  r_digest : string;  (** hex digest of trace + uart + outcome *)
  r_trace : Ktrace.entry list;  (** for ktrace dumps of failing runs *)
  r_vtime_ns : int64;  (** virtual time consumed by the session *)
}

let failure_to_string = function
  | Crash m -> "crash: " ^ m
  | Violation m -> "violation: " ^ m
  | Invariant m -> "invariant: " ^ m
  | Wedge m -> "wedge: " ^ m

(* Shrink predicate granularity: two failures are "the same bug" for
   ddmin purposes when they are the same kind. Comparing messages would
   be too strict (a shrunk trace panics with a shorter suffix); kinds
   keep e.g. a Wedge candidate from satisfying a Crash predicate. *)
let same_kind a b =
  match (a, b) with
  | Crash _, Crash _ -> true
  | Violation _, Violation _ -> true
  | Invariant _, Invariant _ -> true
  | Wedge _, Wedge _ -> true
  | Crash _, _ | Violation _, _ | Invariant _, _ | Wedge _, _ -> false

(* ---- campaign defaults ---- *)

(* The virtual-time budget per session: a driver that neither finishes
   nor dies by then is reported as a Wedge. *)
let session_ms = 400

(* ---- kernel config variants ----

   Each scenario boots one of these; the variant index comes from the
   seed. The base is the full kernel with kcheck armed — fuzzing
   without the sanitizer would only catch the loudest class of bug. *)

let variant_names =
  [| "stock"; "writeback"; "journal"; "mlfq-ipi"; "ring-pipe"; "observability" |]

let config_of_variant v =
  let base = { Kconfig.full with Kconfig.kcheck = true } in
  match v mod Array.length variant_names with
  | 1 ->
      {
        base with
        Kconfig.writeback = true;
        readahead_blocks = 4;
        sd_coalescing = true;
      }
  | 2 -> { base with Kconfig.journal = true; writeback = true }
  | 3 ->
      {
        base with
        Kconfig.sched_policy = Kconfig.Sched_mlfq;
        wake_model = Kconfig.Wake_ipi;
        wake_affinity = true;
        load_balance_ms = 4;
      }
  | 4 ->
      {
        base with
        Kconfig.pipe_ring = true;
        pipe_buffer_bytes = 1024;
        pipe_wake_edge = true;
      }
  | 5 -> { base with Kconfig.profile_hz = 250 }
  | _ -> base

(* ---- boot spec ---- *)

let file_payload n =
  Bytes.init n (fun i -> Char.chr (0x20 + ((i * 7) land 0x5f)))

let spec_of_scenario scen =
  let config = config_of_variant scen.Gen.sc_variant in
  {
    Kernel.default_spec with
    Kernel.sp_config = config;
    sp_fb = Some (320, 240);
    sp_sd_mib = 16;
    sp_files =
      [
        ("/f0", file_payload 1024);
        ("/f1", file_payload 100);
        ("/dir0/n0", file_payload 64);
      ];
    sp_fat_files = [ ("/FAT0.TXT", file_payload 256) ];
  }

(* ---- op execution (runs inside the monkey user task) ---- *)

let gpio_buttons =
  [|
    Hw.Gpio.Up; Hw.Gpio.Down; Hw.Gpio.Left; Hw.Gpio.Right; Hw.Gpio.A;
    Hw.Gpio.B; Hw.Gpio.X; Hw.Gpio.Y; Hw.Gpio.Start; Hw.Gpio.Select;
  |]

let app_entry env name =
  match name with
  | "hello" -> Some ([ "hello"; "fuzz" ], Apps.Hello.main env)
  | "ls" -> Some ([ "ls"; "/" ], Apps.Utils.ls_main env)
  | "cat" -> Some ([ "cat"; "/f0" ], Apps.Utils.cat_main env)
  | "wc" -> Some ([ "wc"; "/f1" ], Apps.Utils.wc_main env)
  | "echo" -> Some ([ "echo"; "vfuzz" ], Apps.Utils.echo_main env)
  | "grep" -> Some ([ "grep"; "a"; "/f0" ], Apps.Utils.grep_main env)
  | "ps" -> Some ([ "ps" ], Apps.Utils.ps_main env)
  | "uptime" -> Some ([ "uptime" ], Apps.Utils.uptime_main env)
  | _ -> None

type monkey_state = {
  mutable fds : int list;  (** successfully returned fds, oldest first *)
  mutable sems : int list;
  mutable kids : int list;
  mutable breaches : string list;  (** inline invariant failures *)
}

let breach st fmt =
  Printf.ksprintf (fun s -> st.breaches <- s :: st.breaches) fmt

(* Every errno in [Errno] lies below 64 (the largest is
   [Errno.enotempty] = 39), so a syscall return below [errno_floor]
   names none of them; nothing in the kernel is allowed to produce it. *)
let errno_floor = -64

let sane st what ret =
  if ret < errno_floor then
    breach st "%s returned undefined errno %d" what ret

(* The same bound for a call that reports its errno as a positive
   [Error e]. *)
let sane_error st what e =
  if e < 0 || e > -errno_floor then
    breach st "%s failed with undefined errno %d" what e

(* A Slot over an empty descriptor list degrades to a closed-range fd,
   not to the raw index: indices 0–2 are the console, and a read there
   would block the driver forever (a false Wedge). *)
let resolve_fd st = function
  | Gen.Slot k -> (
      match st.fds with
      | [] -> 100 + k
      | l -> List.nth l (k mod List.length l))
  | Gen.Raw n -> n

let resolve_sem st = function
  | Gen.Slot k -> (
      match st.sems with [] -> -1 | l -> List.nth l (k mod List.length l))
  | Gen.Raw n -> n

let exec_op board env st op =
  let engine = board.Hw.Board.engine in
  match op with
  | Gen.App name -> (
      match app_entry env name with
      | None -> ()
      | Some (argv, main) ->
          let pid = User.Usys.fork (fun () -> main argv) in
          if pid > 0 then st.kids <- st.kids @ [ pid ])
  | Gen.Fork cycles ->
      let pid =
        User.Usys.fork (fun () ->
            User.Usys.burn cycles;
            0)
      in
      if pid > 0 then st.kids <- st.kids @ [ pid ]
  | Gen.WaitAny -> sane st "wait" (User.Usys.wait ())
  | Gen.KillChild k -> (
      match st.kids with
      | [] -> ()
      | l -> sane st "kill(child)" (User.Usys.kill (List.nth l (k mod List.length l))))
  | Gen.KillPid pid ->
      let ret = User.Usys.kill pid in
      sane st "kill" ret;
      if pid <= 0 && ret <> -Errno.einval then
        breach st "kill(%d) returned %d, want -EINVAL" pid ret
  | Gen.KillSelf -> ignore (User.Usys.kill (User.Usys.getpid ()))
  | Gen.Open (path, flags) ->
      let fd = User.Usys.open_ path flags in
      sane st "open" fd;
      if fd >= 0 then st.fds <- st.fds @ [ fd ]
  | Gen.Close r ->
      let fd = resolve_fd st r in
      sane st "close" (User.Usys.close fd);
      st.fds <- List.filter (fun f -> f <> fd) st.fds
  | Gen.Read (r, len) -> (
      let fd = resolve_fd st r in
      match User.Usys.read fd len with
      | Ok b ->
          if len < 0 then breach st "read(len=%d) succeeded" len
          else if Bytes.length b > len then
            breach st "read returned %d bytes > requested %d" (Bytes.length b)
              len
      | Error e -> sane_error st "read" e)
  | Gen.Write (r, len) ->
      let fd = resolve_fd st r in
      sane st "write" (User.Usys.write fd (Bytes.make len 'w'))
  | Gen.Lseek (r, off, whence) ->
      let fd = resolve_fd st r in
      let ret = User.Usys.lseek fd off whence in
      sane st "lseek" ret;
      if whence <> Abi.seek_set && whence <> Abi.seek_cur
         && whence <> Abi.seek_end && ret >= 0
      then breach st "lseek accepted whence %d (returned %d)" whence ret
  | Gen.Dup r ->
      let fd = User.Usys.dup (resolve_fd st r) in
      sane st "dup" fd;
      if fd >= 0 then st.fds <- st.fds @ [ fd ]
  | Gen.Fstat r -> (
      match User.Usys.fstat (resolve_fd st r) with
      | Ok _ -> ()
      | Error e -> sane_error st "fstat" e)
  | Gen.Fsync r -> sane st "fsync" (User.Usys.fsync (resolve_fd st r))
  | Gen.Mkdirp path -> sane st "mkdir" (User.Usys.mkdir path)
  | Gen.Unlink path -> sane st "unlink" (User.Usys.unlink path)
  | Gen.Pipe -> (
      match User.Usys.pipe2 Abi.o_nonblock with
      | Ok (r, w) -> st.fds <- st.fds @ [ r; w ]
      | Error e -> sane_error st "pipe" e)
  | Gen.Poll timeout_ms ->
      let fds =
        match st.fds with a :: b :: c :: _ -> [ a; b; c ] | l -> l
      in
      sane st "poll" (User.Usys.poll fds ~timeout_ms)
  | Gen.SemOpen v ->
      let ret = User.Usys.sem_open v in
      sane st "sem_open" ret;
      if v < 0 && ret <> -Errno.einval then
        breach st "sem_open(%d) returned %d, want -EINVAL" v ret;
      if ret >= 0 then st.sems <- st.sems @ [ ret ]
  | Gen.SemPost r -> sane st "sem_post" (User.Usys.sem_post (resolve_sem st r))
  | Gen.SemWait r -> sane st "sem_wait" (User.Usys.sem_wait (resolve_sem st r))
  | Gen.SemClose r ->
      let id = resolve_sem st r in
      sane st "sem_close" (User.Usys.sem_close id);
      st.sems <- List.filter (fun s -> s <> id) st.sems
  | Gen.Sleep ms -> sane st "sleep" (User.Usys.sleep ms)
  | Gen.Nice n -> sane st "nice" (User.Usys.nice n)
  | Gen.Sbrk n -> ignore (User.Usys.sbrk n)
  | Gen.Burn cycles -> User.Usys.burn cycles
  (* Device-side injections are engine work, not syscalls: defer them
     to a zero-delay engine event so interrupt delivery happens from
     the engine loop, exactly as hardware would interject, and not from
     inside this task's fiber. The burn below each op gives the engine
     a chance to run the event promptly. *)
  | Gen.KeyDown usage ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Hw.Usb.key_down board.Hw.Board.usb usage))
  | Gen.KeyUp usage ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Hw.Usb.key_up board.Hw.Board.usb usage))
  | Gen.GpioTap b ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             let btn = gpio_buttons.(b mod Array.length gpio_buttons) in
             Hw.Gpio.press board.Hw.Board.gpio btn;
             Hw.Gpio.release board.Hw.Board.gpio btn))
  | Gen.SdFault n ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             let sd = board.Hw.Board.sd in
             (* never arm more faults than a bounded-retry driver can
                absorb: stacking bursts past the retry budget would
                turn every such session into a designed-in panic *)
             let room = 3 - Hw.Sd.pending_read_faults sd in
             if room > 0 then
               Hw.Sd.inject_read_faults sd ~count:(min n room)))
  | Gen.UsbUnplug ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Hw.Usb.unplug board.Hw.Board.usb))
  | Gen.UsbReplug ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Hw.Usb.replug board.Hw.Board.usb))
  | Gen.IrqStorm n ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             for i = 1 to n do
               Hw.Intc.raise_line board.Hw.Board.intc
                 (if i land 1 = 0 then Hw.Irq.Gpio_bank else Hw.Irq.Usb_hc)
             done))
  | Gen.PowerBlip ms ->
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Hw.Power.cut board.Hw.Board.supply));
      ignore
        (Sim.Engine.schedule_after engine (Sim.Engine.ms ms) (fun () ->
             Hw.Power.revive board.Hw.Board.supply))
  | Gen.Canary ->
      (* raised from engine context, not user context: an exception in
         user code is absorbed by the task's uncaught-exception handler
         (exit -2), but a panic inside the event loop is a kernel death
         — which is what the shrinker fixture needs to simulate *)
      ignore
        (Sim.Engine.schedule_after engine 0L (fun () ->
             Kpanic.panicf "vfuzz: canary op executed"));
      User.Usys.burn 500

(* ---- session driver ---- *)

let run scen =
  let spec = spec_of_scenario scen in
  let cfg = spec.Kernel.sp_config in
  let kernel_ref = ref None in
  let st = { fds = []; sems = []; kids = []; breaches = [] } in
  let finished = ref false in
  let wedged = ref false in
  let crash = ref None in
  (try
     let kernel = Kernel.boot spec in
     kernel_ref := Some kernel;
     let board = kernel.Kernel.board in
     let env = User.Uenv.create () in
     env.User.Uenv.e_fb <- kernel.Kernel.fb;
     env.User.Uenv.e_simd <- cfg.Kconfig.simd_pixel_ops;
     let ops = scen.Gen.sc_ops in
     let monkey () =
       List.iter
         (fun op ->
           exec_op board env st op;
           (* let deferred device events and preemption land between ops *)
           User.Usys.burn 500)
         ops;
       finished := true;
       0
     in
     let task = Kernel.spawn_user kernel ~name:"monkey" monkey in
     let deadline =
       Int64.add (Kernel.now kernel) (Sim.Engine.ms session_ms)
     in
     let monkey_dead () = Sched.is_zombie task in
     while
       (not !finished)
       && (not (monkey_dead ()))
       && Int64.compare (Kernel.now kernel) deadline < 0
     do
       Kernel.run_for kernel (Sim.Engine.ms 1)
     done;
     if (not !finished) && not (monkey_dead ()) then wedged := true
     else begin
       (* a monkey that died mid-script of an uncaught exception (exit
          -2) means a kernel API leaked an exception into user code
          instead of an errno — dying by kill(2) is exit -1 and fine *)
       if
         (not !finished)
         && monkey_dead ()
         && task.Task.exit_code = -2
       then crash := Some "monkey task died of an uncaught exception";
       (* drain: let forked children and deferred device events settle,
          then run the sanitizer's registered audits over the corpse *)
       Kernel.run_for kernel (Sim.Engine.ms 20);
       Sched.kcheck_audit kernel.Kernel.sched ~reason:(fun () -> "fuzz:post");
       Kernel.shutdown kernel
     end
   with
  | Kpanic.Panic msg -> crash := Some msg
  | Stack_overflow -> crash := Some "host stack overflow"
  | Invalid_argument msg -> crash := Some ("host invalid_arg: " ^ msg)
  | Failure msg -> crash := Some ("host failure: " ^ msg));
  let violations =
    match !kernel_ref with
    | Some k -> (
        match k.Kernel.kcheck with
        | Some kc ->
            List.map
              (fun v ->
                Printf.sprintf "%s: %s" v.Kcheck.rule v.Kcheck.detail)
              (List.rev kc.Kcheck.violations)
        | None -> [])
    | None -> []
  in
  let outcome =
    match (!crash, violations, !wedged, List.rev st.breaches) with
    | _, (_ :: _ as vs), _, _ -> Fail (Violation (String.concat "; " vs))
    | Some msg, [], _, _ -> Fail (Crash msg)
    | None, [], true, _ -> Fail (Wedge "driver never finished within budget")
    | None, [], false, (_ :: _ as bs) ->
        Fail (Invariant (String.concat "; " bs))
    | None, [], false, [] -> Pass
  in
  let trace, uart, vtime =
    match !kernel_ref with
    | Some k ->
        ( Ktrace.dump k.Kernel.sched.Sched.trace,
          Kernel.uart_output k,
          Kernel.now k )
    | None -> ([], "", 0L)
  in
  let tag =
    match outcome with Pass -> "pass" | Fail f -> failure_to_string f
  in
  (* the newline-joined machine trace, the UART output and the tag,
     rendered into one buffer sized for ~48-byte lines and hashed once *)
  let digest =
    let b =
      Buffer.create ((48 * List.length trace) + String.length uart + 256)
    in
    Ktrace.add_machine_dump b trace;
    Buffer.add_char b '\n';
    Buffer.add_string b uart;
    Buffer.add_char b '\n';
    Buffer.add_string b tag;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  {
    r_outcome = outcome;
    r_digest = digest;
    r_trace = trace;
    r_vtime_ns = vtime;
  }

(* Run a scenario regenerated from a bare seed with the campaign
   defaults: [Gen.default_ops] ops, device faults armed. *)
let run_seed seed = run (Gen.generate seed)
