(** ktrace2perfetto — convert a machine-format ktrace dump to Chrome
    trace-event JSON, loadable by Perfetto (ui.perfetto.dev) and
    chrome://tracing.

    Input: one event per line, the format {!Core.Ktrace.machine_line}
    writes ("ts_ns seq core tag args...") — produced by tracebench or by
    catting /proc/ktrace through a host-side capture. Output: a single
    JSON object with a [traceEvents] array:

    - every matched {!Core.Ktrace.Span_begin}/[Span_end] pair becomes a
      duration event ([ph:"X"]) on the owning pid's track, with the core
      recorded as an argument;
    - a span still open at capture end becomes an ["open:"] instant;
    - the delay-accounting events become counter tracks ([ph:"C"]);
    - every other event becomes an instant ([ph:"i"]) on its core's
      track under the synthetic "cores" process;
    - metadata events name one track per core plus one per pid seen, so
      the UI shows "core 0..N-1" lanes and per-process lanes.

    Usage: conv.exe [TRACE-FILE] (stdin when omitted); JSON on stdout. *)

let usage = "ktrace2perfetto [TRACE-FILE]"

(* Timestamps: Chrome JSON wants microseconds; keep sub-µs precision as
   a decimal fraction so adjacent kernel events stay ordered. *)
let us_of_ns ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The synthetic process that owns the per-core instant tracks. Real
   pids start at 1, so 0 is free. *)
let cores_pid = 0

(* What one event becomes in the JSON. *)
type out =
  | Instant of string * string  (** name, argument string *)
  | Counter of { c_name : string; c_pid : int; c_key : string; c_val : int }
  | Skip
      (** span ends and begins, rendered by the pairing pass as [ph:"X"]
          durations or open-span instants *)

(* The one classifier. Spelled out constructor by constructor — vlint
   R006 checks that every [Ktrace.event] constructor appears here, so a
   new event kind cannot silently vanish from the converted trace. The
   delay-accounting events become counter tracks: one runnable-queue
   depth series per core under the "cores" process, and one thread-state
   series per pid (0 runnable, 1 running, 2 blocked, 3 zombie) that
   Perfetto renders as step-function lanes. *)
let classify (ev : Core.Ktrace.event) =
  match ev with
  | Core.Ktrace.Syscall_enter (pid, name) ->
      Instant ("sys_enter:" ^ name, Printf.sprintf "\"pid\":%d" pid)
  | Core.Ktrace.Syscall_exit (pid, name) ->
      Instant ("sys_exit:" ^ name, Printf.sprintf "\"pid\":%d" pid)
  | Core.Ktrace.Ctx_switch (a, b) ->
      Instant ("ctx_switch", Printf.sprintf "\"from\":%d,\"to\":%d" a b)
  | Core.Ktrace.Irq_enter line ->
      Instant
        ("irq_enter", Printf.sprintf "\"line\":\"%s\"" (json_escape line))
  | Core.Ktrace.Irq_exit line ->
      Instant
        ("irq_exit", Printf.sprintf "\"line\":\"%s\"" (json_escape line))
  | Core.Ktrace.Sched_wakeup pid ->
      Instant ("wakeup", Printf.sprintf "\"pid\":%d" pid)
  | Core.Ktrace.Sched_migrate (pid, a, b) ->
      Instant
        ("migrate", Printf.sprintf "\"pid\":%d,\"from\":%d,\"to\":%d" pid a b)
  | Core.Ktrace.Ipi_send target ->
      Instant ("ipi_send", Printf.sprintf "\"target\":%d" target)
  | Core.Ktrace.Ipi_recv core ->
      Instant ("ipi_recv", Printf.sprintf "\"core\":%d" core)
  | Core.Ktrace.Kbd_report -> Instant ("kbd_report", "")
  | Core.Ktrace.Event_delivered pid ->
      Instant ("event_delivered", Printf.sprintf "\"pid\":%d" pid)
  | Core.Ktrace.Poll_return (pid, nready) ->
      Instant
        ("poll_return", Printf.sprintf "\"pid\":%d,\"ready\":%d" pid nready)
  | Core.Ktrace.Frame_present pid ->
      Instant ("frame_present", Printf.sprintf "\"pid\":%d" pid)
  | Core.Ktrace.Wm_composite -> Instant ("wm_composite", "")
  | Core.Ktrace.Lock_acquire (name, core) ->
      Instant
        ( "lock_acquire",
          Printf.sprintf "\"lock\":\"%s\",\"core\":%d" (json_escape name)
            core )
  | Core.Ktrace.Lock_release (name, core) ->
      Instant
        ( "lock_release",
          Printf.sprintf "\"lock\":\"%s\",\"core\":%d" (json_escape name)
            core )
  | Core.Ktrace.Sem_block (pid, id) ->
      Instant ("sem_block", Printf.sprintf "\"pid\":%d,\"sem\":%d" pid id)
  | Core.Ktrace.Sem_wake (pid, id) ->
      Instant ("sem_wake", Printf.sprintf "\"pid\":%d,\"sem\":%d" pid id)
  | Core.Ktrace.Custom s ->
      Instant ("custom", Printf.sprintf "\"msg\":\"%s\"" (json_escape s))
  | Core.Ktrace.Task_state (pid, st) ->
      Counter
        { c_name = "thread_state"; c_pid = pid; c_key = "state"; c_val = st }
  | Core.Ktrace.Runq_depth (core, depth) ->
      Counter
        {
          c_name = Printf.sprintf "runq core %d" core;
          c_pid = cores_pid;
          c_key = "depth";
          c_val = depth;
        }
  | Core.Ktrace.Span_begin _ | Core.Ktrace.Span_end _ -> Skip
  | Core.Ktrace.Probe _ -> Skip (* never in the ring, so never in a dump *)

let () =
  let ic =
    match Array.to_list Sys.argv with
    | [ _ ] -> stdin
    | [ _; path ] -> open_in path
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Core.Ktrace.parse_machine_line line with
       | Some e -> entries := e :: !entries
       | None ->
           if not (String.equal (String.trim line) "") then
             Printf.eprintf "ktrace2perfetto: skipping malformed line: %s\n"
               line
     done
   with End_of_file -> ());
  let entries = List.rev !entries in
  let events = Buffer.create 65536 in
  let emitted = ref 0 in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !emitted > 0 then Buffer.add_string events ",\n  ";
        Buffer.add_string events s;
        incr emitted)
      fmt
  in
  (* track discovery: every core and pid that appears anywhere *)
  let cores = Hashtbl.create 8 and pids = Hashtbl.create 32 in
  let see_pid pid = if pid > 0 then Hashtbl.replace pids pid () in
  List.iter
    (fun (e : Core.Ktrace.entry) -> Hashtbl.replace cores e.Core.Ktrace.core ())
    entries;
  let spans, unmatched = Core.Ktrace.pair_spans entries in
  List.iter (fun sp -> see_pid sp.Core.Ktrace.sp_pid) spans;
  (* metadata: a track per core under the "cores" process, a process
     per pid *)
  emit
    "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"cores\"}}"
    cores_pid;
  Hashtbl.fold (fun c () acc -> c :: acc) cores []
  |> List.sort compare
  |> List.iter (fun c ->
         emit
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"core %d\"}}"
           cores_pid c c);
  Hashtbl.fold (fun p () acc -> p :: acc) pids []
  |> List.sort compare
  |> List.iter (fun p ->
         emit
           "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"args\":{\"name\":\"pid %d\"}}"
           p p);
  (* duration events from matched spans *)
  List.iter
    (fun (sp : Core.Ktrace.span) ->
      let dur =
        Int64.to_float (Int64.sub sp.Core.Ktrace.sp_end_ns sp.Core.Ktrace.sp_begin_ns)
        /. 1e3
      in
      emit
        "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%.3f,\"args\":{\"core\":%d,\"span\":%d}}"
        (json_escape sp.Core.Ktrace.sp_name)
        (if sp.Core.Ktrace.sp_pid > 0 then sp.Core.Ktrace.sp_pid
         else cores_pid)
        sp.Core.Ktrace.sp_core
        (us_of_ns sp.Core.Ktrace.sp_begin_ns)
        dur sp.Core.Ktrace.sp_core sp.Core.Ktrace.sp_id)
    spans;
  (* spans still open at capture end (blocked syscalls, in-flight IRQs)
     become instants so they remain visible *)
  List.iter
    (fun (sp : Core.Ktrace.span) ->
      emit
        "{\"ph\":\"i\",\"name\":\"open:%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"args\":{\"span\":%d}}"
        (json_escape sp.Core.Ktrace.sp_name)
        (if sp.Core.Ktrace.sp_pid > 0 then sp.Core.Ktrace.sp_pid
         else cores_pid)
        sp.Core.Ktrace.sp_core
        (us_of_ns sp.Core.Ktrace.sp_begin_ns)
        sp.Core.Ktrace.sp_id)
    unmatched;
  (* each event classified once; counter tracks first, then instants *)
  let classified =
    List.map
      (fun (e : Core.Ktrace.entry) -> (e, classify e.Core.Ktrace.ev))
      entries
  in
  List.iter
    (fun ((e : Core.Ktrace.entry), out) ->
      match out with
      | Counter c ->
          emit
            "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":%d,\"ts\":%s,\"args\":{\"%s\":%d}}"
            c.c_name c.c_pid
            (us_of_ns e.Core.Ktrace.ts_ns)
            c.c_key c.c_val
      | Instant _ | Skip -> ())
    classified;
  List.iter
    (fun ((e : Core.Ktrace.entry), out) ->
      match out with
      | Instant (name, args) ->
          emit
            "{\"ph\":\"i\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"args\":{%s}}"
            (json_escape name) cores_pid e.Core.Ktrace.core
            (us_of_ns e.Core.Ktrace.ts_ns)
            args
      | Counter _ | Skip -> ())
    classified;
  Printf.printf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n  %s\n]}\n"
    (Buffer.contents events);
  if ic != stdin then close_in ic
