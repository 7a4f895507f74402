(** ftrace-style event tracing (§5.1), rebuilt as part of kperf.

    One ring shared by every core, as in the paper: power-of-two
    capacity and bitmask indexing. The ring stores columns, not records:
    each slot's stamp sits unboxed in a byte column, its core in an
    [int array] and its event in an [event array], so an emit allocates
    nothing and leaves nothing for the GC to promote. An {!entry} record
    is built only when a slot is read. The columns start at 1024 slots
    and double as they fill; once they reach the capacity the ring
    wraps, overwriting the oldest entries. An entry's sequence number is
    its ring position, the count of emits before it. Emission order is not
    time order: an SD request's [Span_end] is stamped with its completion
    time when the request is issued, so it can precede entries with
    earlier stamps. {!dump} therefore sorts by (timestamp, sequence),
    while the consuming {!reader}s behind the [/proc/ktrace] trace-pipe
    stream in emission order. Span events turn syscalls, IRQ dispatches,
    context switches and block requests into durations; the machine
    format feeds [tools/ktrace2perfetto]. Runtime control (enable, clock,
    class filter) is driven by writes to [/proc/ktrace_ctl].

    [emit] is the kernel's only instrumentation call. Besides the ring
    it feeds one probe hook, which {!Vprobe} installs while any probe is
    attached: the hook sees every event before the enable and filter
    gates, and also the [Probe] events, which carry what only a probe
    reads and never enter the ring. *)

(* Probe-only events carry what only a vprobe point reads: {!emit}
   hands them to the probe hook and never writes them to the ring. A
   site builds one only while {!probing}. *)
type probe_event =
  | Sys_args of int * int * int * int
      (** syscall index, pid, fd (-1 = none), arg0: at entry *)
  | Sys_result of int * int * int * int * int * int
      (** syscall index, pid, fd, arg0, errno (0 = success), service ns *)
  | Spin_take of bool  (** a spinlock taken; true if another core held it *)
  | Pipe_write of int * int  (** pid, bytes asked to write *)
  | Pipe_read of int * int * int  (** pid, bytes read, ns waited for them *)
  | Cache_hit of int * int  (** pid, block *)
  | Cache_miss of int * int  (** pid, block *)
  | Sd_request of int * int  (** pid, modeled device ns *)
  | Journal_commit of int  (** blocks committed *)

type event =
  | Syscall_enter of int * string  (** pid, name *)
  | Syscall_exit of int * string
  | Ctx_switch of int * int  (** from pid, to pid *)
  | Irq_enter of string
  | Irq_exit of string
  | Sched_wakeup of int  (** pid made runnable *)
  | Sched_migrate of int * int * int  (** pid, from core, to core *)
  | Ipi_send of int  (** reschedule IPI: target core (entry core = sender) *)
  | Ipi_recv of int  (** reschedule IPI taken on this core *)
  | Kbd_report  (** USB report arrived in the driver *)
  | Event_delivered of int  (** pid that read the input event *)
  | Poll_return of int * int  (** pid, ready-fd count (0 = timeout) *)
  | Frame_present of int  (** pid that pushed a frame *)
  | Wm_composite
  | Lock_acquire of string * int  (** lock name, core *)
  | Lock_release of string * int  (** lock name, core *)
  | Sem_block of int * int  (** pid, sem id *)
  | Sem_wake of int * int  (** pid woken (or -1 if none), sem id *)
  | Custom of string
  | Span_begin of int * int * string  (** span id, pid, operation name *)
  | Span_end of int  (** span id *)
  | Task_state of int * int
      (** pid, new state code (0 runnable, 1 running, 2 blocked, 3
          zombie) — the delay-accounting transition stream; Perfetto
          renders it as a per-task thread-state counter track *)
  | Runq_depth of int * int  (** core, runnable-queue depth after the change *)
  | Probe of probe_event  (** never in the ring *)

type entry = {
  ts_ns : int64;
  seq : int;
      (** ring position, which is emission order: the tie-break for
          sorted dumps *)
  core : int;
  ev : event;
}

(* ---- event classes, for the ktrace_ctl filter ---- *)

(* The class of [Probe] events, which no filter selects. *)
let probe_only = 9

(* Bit indices into the filter mask. Spelled out constructor by
   constructor (vlint R004): adding an event forces a classification. *)
let class_of ev =
  match ev with
  | Syscall_enter _ | Syscall_exit _ -> 0
  | Ctx_switch _ | Sched_wakeup _ | Sched_migrate _ | Ipi_send _ | Ipi_recv _
    -> 1
  | Irq_enter _ | Irq_exit _ -> 2
  | Kbd_report | Event_delivered _ | Poll_return _ -> 3
  | Frame_present _ | Wm_composite -> 4
  | Lock_acquire _ | Lock_release _ | Sem_block _ | Sem_wake _ -> 5
  | Span_begin _ | Span_end _ -> 6
  | Custom _ -> 7
  | Task_state _ | Runq_depth _ -> 8
  | Probe _ -> probe_only

let class_names =
  [
    ("syscall", 0);
    ("sched", 1);
    ("irq", 2);
    ("input", 3);
    ("gfx", 4);
    ("lock", 5);
    ("span", 6);
    ("custom", 7);
    ("dstate", 8);
  ]

let filter_all = -1

(* "all" or a comma-separated subset of class names; None = parse error. *)
let filter_of_string s =
  if String.equal s "all" then Some filter_all
  else
    let parts = String.split_on_char ',' (String.trim s) in
    List.fold_left
      (fun acc part ->
        match (acc, List.assoc_opt (String.trim part) class_names) with
        | Some mask, Some bit -> Some (mask lor (1 lsl bit))
        | _, _ -> None)
      (Some 0) parts

(* ---- the ring ---- *)

type t = {
  mutable stamps : Bytes.t;
      (** 8 bytes a slot: each stamp as a native-endian [int64], stored
          without a box *)
  mutable cores : int array;
  mutable evs : event array;
      (** the three columns share one power-of-two length; they double
          when full until they reach [cap], then wrap *)
  mutable mask : int;  (** length - 1: slot = position land mask *)
  cap : int;  (** the length the columns grow to: the ring's capacity *)
  mutable head : int;  (** total entries ever written *)
  mutable next_span : int;
  mutable enabled : bool;
  mutable filter : int;  (** bitmask over {!class_of}; -1 = everything *)
  mutable clock_base : int64;
      (** subtracted from every stamp: 0 = absolute engine time (the
          default), set to "now" by [clock=rel] in /proc/ktrace_ctl *)
  mutable readers_open : int;  (** open /proc/ktrace handles (wake gate) *)
  mutable dstate : bool;
      (** opt-in for the delay-accounting event stream (class [dstate]
          in {!class_of}): [dstate=1] in /proc/ktrace_ctl. A separate gate
          from the class filter because delay accounting always runs and
          [filter_all] would otherwise flood armed traces, breaking the
          byte-identity of every existing capture *)
  mutable on_data : (unit -> unit) option;
      (** poked after each emit while a trace-pipe reader is open; the
          kernel wires this to a deferred [Sched.poll_wake] *)
  mutable probe : (int -> event -> unit) option;
      (** the probe hook: sees every emitted event and its core, before
          the enable and filter gates, [Probe] events included. vprobe
          installs it while any probe is attached *)
}

(* Fills the event column's unwritten slots; never read. *)
let unwritten = Custom "<unwritten>"

let rec ceil_pow2 n k = if k >= n then k else ceil_pow2 n (k * 2)

(* Every ring starts this small and grows on demand: a short session
   emits a small fraction of the capacity. *)
let initial_length = 1024

let create ?(capacity = 262144) () =
  let cap = ceil_pow2 (max initial_length capacity) 1 in
  {
    stamps = Bytes.make (8 * initial_length) '\000';
    cores = Array.make initial_length 0;
    evs = Array.make initial_length unwritten;
    mask = initial_length - 1;
    cap;
    head = 0;
    next_span = 0;
    enabled = true;
    filter = filter_all;
    clock_base = 0L;
    readers_open = 0;
    dstate = false;
    on_data = None;
    probe = None;
  }

let set_enabled t on = t.enabled <- on
let set_dstate t on = t.dstate <- on
let set_filter t mask = t.filter <- mask
let set_clock_base t base = t.clock_base <- base

(* Whether a probe hook is installed: the guard a site checks before it
   builds a [Probe] event. *)
let probing t = match t.probe with Some _ -> true | None -> false

let new_span t =
  t.next_span <- t.next_span + 1;
  t.next_span

(* The ring's current length in slots: 1024, doubling up to the
   capacity. The newest [min head length] positions survive. *)
let length t = Array.length t.evs

(* Double full columns that are below the capacity. Until then nothing
   has wrapped, so position [i] sits at slot [i] in old and new. *)
let grow t =
  let n = length t in
  let stamps = Bytes.make (16 * n) '\000' in
  Bytes.blit t.stamps 0 stamps 0 (8 * n);
  let cores = Array.make (2 * n) 0 in
  Array.blit t.cores 0 cores 0 n;
  let evs = Array.make (2 * n) unwritten in
  Array.blit t.evs 0 evs 0 n;
  t.stamps <- stamps;
  t.cores <- cores;
  t.evs <- evs;
  t.mask <- (2 * n) - 1

let emit t ~ts_ns ~core ev =
  (match t.probe with Some hook -> hook core ev | None -> ());
  let cls = class_of ev in
  if cls <> probe_only && t.enabled && t.filter land (1 lsl cls) <> 0 then begin
    if t.head = length t && t.head < t.cap then grow t;
    let slot = t.head land t.mask in
    Bytes.set_int64_ne t.stamps (8 * slot) (Int64.sub ts_ns t.clock_base);
    t.cores.(slot) <- core;
    t.evs.(slot) <- ev;
    t.head <- t.head + 1;
    if t.readers_open > 0 then
      match t.on_data with Some poke -> poke () | None -> ()
  end

(* The entry at ring position [pos], built on read. [pos] must be one
   of the surviving positions, [head - min head (length t)] to
   [head - 1]. *)
let entry t pos =
  let slot = pos land t.mask in
  {
    ts_ns = Bytes.get_int64_ne t.stamps (8 * slot);
    seq = pos;
    core = t.cores.(slot);
    ev = t.evs.(slot);
  }

(* The order {!dump} sorts in, on built entries. *)
let compare_entry a b =
  match Int64.compare a.ts_ns b.ts_ns with
  | 0 -> compare a.seq b.seq
  | c -> c

(* The same order on positions, reading the stamp column in place:
   whether position [p] sorts after position [q]. *)
let after t p q =
  let a = Bytes.get_int64_ne t.stamps (8 * (p land t.mask))
  and b = Bytes.get_int64_ne t.stamps (8 * (q land t.mask)) in
  a > b || (Int64.equal a b && p > q)

(* The surviving positions, oldest-first by (timestamp, position). The
   sort is not the identity: a future-stamped entry (an SD request's
   Span_end) sits in the ring ahead of entries stamped before it. Such
   entries are few and displaced by little, so an insertion pass over
   the window does the work in near-linear time; once it has shifted
   more than [n] positions the input is far from sorted and a merge
   sort finishes it, keeping the worst case at O(n log n). Both sorts
   are stable. *)
let sorted_positions t =
  let n = min t.head (length t) in
  let a = Array.init n (fun i -> t.head - n + i) in
  let shifts = ref 0 in
  let i = ref 1 in
  while !i < n && !shifts <= n do
    let x = a.(!i) in
    let j = ref (!i - 1) in
    while !j >= 0 && after t a.(!j) x do
      a.(!j + 1) <- a.(!j);
      decr j;
      incr shifts
    done;
    a.(!j + 1) <- x;
    incr i
  done;
  if !shifts > n then
    Array.stable_sort (fun p q -> if after t p q then 1 else -1) a;
  a

(* The last [n] entries of {!dump}, built back to front from the sorted
   positions without building the others, and how many {!dump} holds. *)
let dump_tail t n =
  let pos = sorted_positions t in
  let total = Array.length pos in
  let first = total - max 0 (min n total) in
  let rec build i acc =
    if i < first then acc else build (i - 1) (entry t pos.(i) :: acc)
  in
  (build (total - 1) [], total)

(* Snapshot of the surviving entries, oldest-first by (timestamp,
   sequence). *)
let dump t = fst (dump_tail t max_int)

(* ---- consuming readers: the /proc/ktrace trace-pipe ---- *)

type reader = {
  src : t;
  mutable cursor : int;  (** next unread ring position *)
  mutable lost : int;  (** entries overwritten before this reader got there *)
}

(* A fresh reader starts at the present: it streams events emitted after
   the open, like catting trace_pipe, rather than replaying the backlog. *)
let new_reader t = { src = t; cursor = t.head; lost = 0 }

let reader_lost r = r.lost
let reader_ready r = r.cursor < r.src.head

(* Drain up to [max] entries in emission order, advancing the cursor past
   anything returned — and past anything the writer already overwrote,
   which is counted in [lost]. *)
let read_reader r ~max =
  let t = r.src in
  let oldest = t.head - length t in
  if r.cursor < oldest then begin
    r.lost <- r.lost + (oldest - r.cursor);
    r.cursor <- oldest
  end;
  let n = Stdlib.max 0 (min max (t.head - r.cursor)) in
  let out = List.init n (fun i -> entry t (r.cursor + i)) in
  r.cursor <- r.cursor + n;
  out

(* ---- span pairing ---- *)

type span = {
  sp_id : int;
  sp_pid : int;
  sp_name : string;
  sp_core : int;
  sp_begin_ns : int64;
  sp_end_ns : int64;
}

(* Pair up Span_begin/Span_end by id over a sorted dump. Returns the
   matched spans (by id) and the spans still open at dump time (blocked
   syscalls, in-flight block requests) in dump order; an open span's end
   is its begin. A begin keeps its pid and name in its [span], so the end
   needs no second look at it. Every constructor is spelled out so R004
   forces new events through this classifier too. *)
let pair_spans entries =
  let open_spans = Hashtbl.create 64 in
  let begun = ref [] and matched = ref [] in
  List.iter
    (fun e ->
      match e.ev with
      | Span_begin (id, pid, name) ->
          let sp =
            {
              sp_id = id;
              sp_pid = pid;
              sp_name = name;
              sp_core = e.core;
              sp_begin_ns = e.ts_ns;
              sp_end_ns = e.ts_ns;
            }
          in
          Hashtbl.replace open_spans id sp;
          begun := sp :: !begun
      | Span_end id -> (
          match Hashtbl.find_opt open_spans id with
          | Some sp ->
              Hashtbl.remove open_spans id;
              matched := { sp with sp_end_ns = e.ts_ns } :: !matched
          | None -> ())
      | Syscall_enter _ | Syscall_exit _ | Ctx_switch _ | Irq_enter _
      | Irq_exit _ | Sched_wakeup _ | Sched_migrate _ | Ipi_send _
      | Ipi_recv _ | Kbd_report | Event_delivered _ | Poll_return _
      | Frame_present _ | Wm_composite | Lock_acquire _ | Lock_release _
      | Sem_block _ | Sem_wake _ | Custom _ | Task_state _ | Runq_depth _
      | Probe _ ->
          ())
    entries;
  let still_open sp =
    match Hashtbl.find_opt open_spans sp.sp_id with
    | Some o -> o == sp
    | None -> false
  in
  ( List.sort (fun a b -> compare a.sp_id b.sp_id) !matched,
    List.rev (List.filter still_open !begun) )

(* ---- rendering ---- *)

let describe ev =
  match ev with
  | Syscall_enter (pid, name) -> Printf.sprintf "sys_enter pid=%d %s" pid name
  | Syscall_exit (pid, name) -> Printf.sprintf "sys_exit pid=%d %s" pid name
  | Ctx_switch (a, b) -> Printf.sprintf "ctx_switch %d->%d" a b
  | Irq_enter line -> "irq_enter " ^ line
  | Irq_exit line -> "irq_exit " ^ line
  | Sched_wakeup pid -> Printf.sprintf "wakeup pid=%d" pid
  | Sched_migrate (pid, a, b) ->
      Printf.sprintf "migrate pid=%d core%d->core%d" pid a b
  | Ipi_send target -> Printf.sprintf "ipi_send core%d" target
  | Ipi_recv core -> Printf.sprintf "ipi_recv core%d" core
  | Kbd_report -> "kbd_report"
  | Event_delivered pid -> Printf.sprintf "event_delivered pid=%d" pid
  | Poll_return (pid, nready) ->
      Printf.sprintf "poll_return pid=%d ready=%d" pid nready
  | Frame_present pid -> Printf.sprintf "frame_present pid=%d" pid
  | Wm_composite -> "wm_composite"
  | Lock_acquire (name, core) ->
      Printf.sprintf "lock_acquire %s core%d" name core
  | Lock_release (name, core) ->
      Printf.sprintf "lock_release %s core%d" name core
  | Sem_block (pid, id) -> Printf.sprintf "sem_block pid=%d sem=%d" pid id
  | Sem_wake (pid, id) -> Printf.sprintf "sem_wake pid=%d sem=%d" pid id
  | Custom s -> s
  | Span_begin (id, pid, name) ->
      Printf.sprintf "span_begin id=%d pid=%d %s" id pid name
  | Span_end id -> Printf.sprintf "span_end id=%d" id
  | Task_state (pid, st) -> Printf.sprintf "task_state pid=%d state=%d" pid st
  | Runq_depth (core, depth) ->
      Printf.sprintf "runq_depth core%d depth=%d" core depth
  | Probe _ -> "probe-only"

let format_entry e =
  Printf.sprintf "[%10.3f us] core%d %s" (Int64.to_float e.ts_ns /. 1e3) e.core
    (describe e.ev)

(* ---- the machine format: what ktrace2perfetto consumes ---- *)

(* One entry per line: "ts_ns seq core tag args...". Any free-form string
   argument goes last so it may contain spaces.

   The renderer writes straight into the caller's buffer: no [Printf], no
   per-line closure and no shared scratch, so sessions on parallel
   domains can each render their own trace. Integers print exactly as
   [%d]/[%Ld]. *)

(* The digits of [n <= 0], most significant first. Working on the
   negative side covers [min_int], whose negation overflows. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* Stamps fit a native int unless they lie beyond +-2^62; those print as
   the quotient by ten, which always fits, then the last digit. *)
let add_int64 b n =
  let i = Int64.to_int n in
  if Int64.equal (Int64.of_int i) n then add_int b i
  else begin
    add_int b (Int64.to_int (Int64.div n 10L));
    Buffer.add_char b
      (Char.unsafe_chr (48 + abs (Int64.to_int (Int64.rem n 10L))))
  end

let sp_int b n =
  Buffer.add_char b ' ';
  add_int b n

let sp_str b s =
  Buffer.add_char b ' ';
  Buffer.add_string b s

(* A tag and its arguments, by argument shape. *)
let tag_i b tag x =
  Buffer.add_string b tag;
  sp_int b x

let tag_ii b tag x y =
  tag_i b tag x;
  sp_int b y

let tag_s b tag s =
  Buffer.add_string b tag;
  sp_str b s

let tag_is b tag x s =
  tag_i b tag x;
  sp_str b s

let add_machine_line b e =
  add_int64 b e.ts_ns;
  sp_int b e.seq;
  sp_int b e.core;
  Buffer.add_char b ' ';
  match e.ev with
  | Syscall_enter (pid, name) -> tag_is b "sys_enter" pid name
  | Syscall_exit (pid, name) -> tag_is b "sys_exit" pid name
  | Ctx_switch (a, c) -> tag_ii b "ctx_switch" a c
  | Irq_enter line -> tag_s b "irq_enter" line
  | Irq_exit line -> tag_s b "irq_exit" line
  | Sched_wakeup pid -> tag_i b "wakeup" pid
  | Sched_migrate (pid, a, c) ->
      tag_ii b "migrate" pid a;
      sp_int b c
  | Ipi_send target -> tag_i b "ipi_send" target
  | Ipi_recv core -> tag_i b "ipi_recv" core
  | Kbd_report -> Buffer.add_string b "kbd_report"
  | Event_delivered pid -> tag_i b "event_delivered" pid
  | Poll_return (pid, nready) -> tag_ii b "poll_return" pid nready
  | Frame_present pid -> tag_i b "frame_present" pid
  | Wm_composite -> Buffer.add_string b "wm_composite"
  | Lock_acquire (name, core) -> tag_is b "lock_acquire" core name
  | Lock_release (name, core) -> tag_is b "lock_release" core name
  | Sem_block (pid, id) -> tag_ii b "sem_block" pid id
  | Sem_wake (pid, id) -> tag_ii b "sem_wake" pid id
  | Custom s -> tag_s b "custom" s
  | Span_begin (id, pid, name) ->
      tag_ii b "span_begin" id pid;
      sp_str b name
  | Span_end id -> tag_i b "span_end" id
  | Task_state (pid, st) -> tag_ii b "task_state" pid st
  | Runq_depth (core, depth) -> tag_ii b "runq_depth" core depth
  | Probe _ -> Buffer.add_string b "probe_only"

let machine_line e =
  let b = Buffer.create 64 in
  add_machine_line b e;
  Buffer.contents b

(* The lines of [entries] joined by newlines, with no trailing one. *)
let add_machine_dump b entries =
  match entries with
  | [] -> ()
  | e :: rest ->
      add_machine_line b e;
      List.iter
        (fun e ->
          Buffer.add_char b '\n';
          add_machine_line b e)
        rest

let write_machine oc entries =
  let b = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.clear b;
      add_machine_line b e;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)
    entries

(* ---- parsing the machine format ---- *)

(* The first [n] space-separated fields of [s] and the text after them.
   The last field may end the line; a missing field is None. *)
let split_n n s =
  let rec go n s acc =
    if n = 0 then Some (List.rev acc, s)
    else
      match String.index_opt s ' ' with
      | Some i ->
          go (n - 1)
            (String.sub s (i + 1) (String.length s - i - 1))
            (String.sub s 0 i :: acc)
      | None -> if n = 1 then Some (List.rev (s :: acc), "") else None
  in
  go n s []

(* [n] integer fields, then the rest of the line. *)
let split_ints n s =
  match split_n n s with
  | Some (fields, rest) ->
      let vals = List.filter_map int_of_string_opt fields in
      if List.length vals = n then Some (vals, rest) else None
  | None -> None

(* Decoders by argument shape, each over the text after the tag. An
   all-integer shape rejects anything after its last field; a trailing
   string takes the rest of the line, spaces included. *)
let d_i k rest =
  match split_ints 1 rest with Some ([ a ], "") -> Some (k a) | _ -> None

let d_ii k rest =
  match split_ints 2 rest with
  | Some ([ a; b ], "") -> Some (k a b)
  | _ -> None

let d_iii k rest =
  match split_ints 3 rest with
  | Some ([ a; b; c ], "") -> Some (k a b c)
  | _ -> None

let d_is k rest =
  match split_ints 1 rest with Some ([ a ], s) -> Some (k a s) | _ -> None

let d_iis k rest =
  match split_ints 2 rest with Some ([ a; b ], s) -> Some (k a b s) | _ -> None

(* One row per tag {!add_machine_line} writes: the event that [rest],
   the text after the tag, decodes to. An argument-less tag ignores what
   follows it. *)
let decode tag rest =
  match tag with
  | "sys_enter" -> d_is (fun pid name -> Syscall_enter (pid, name)) rest
  | "sys_exit" -> d_is (fun pid name -> Syscall_exit (pid, name)) rest
  | "ctx_switch" -> d_ii (fun a b -> Ctx_switch (a, b)) rest
  | "irq_enter" -> Some (Irq_enter rest)
  | "irq_exit" -> Some (Irq_exit rest)
  | "wakeup" -> d_i (fun pid -> Sched_wakeup pid) rest
  | "migrate" -> d_iii (fun pid a b -> Sched_migrate (pid, a, b)) rest
  | "ipi_send" -> d_i (fun c -> Ipi_send c) rest
  | "ipi_recv" -> d_i (fun c -> Ipi_recv c) rest
  | "kbd_report" -> Some Kbd_report
  | "event_delivered" -> d_i (fun pid -> Event_delivered pid) rest
  | "poll_return" -> d_ii (fun pid n -> Poll_return (pid, n)) rest
  | "frame_present" -> d_i (fun pid -> Frame_present pid) rest
  | "wm_composite" -> Some Wm_composite
  | "lock_acquire" -> d_is (fun core name -> Lock_acquire (name, core)) rest
  | "lock_release" -> d_is (fun core name -> Lock_release (name, core)) rest
  | "sem_block" -> d_ii (fun pid id -> Sem_block (pid, id)) rest
  | "sem_wake" -> d_ii (fun pid id -> Sem_wake (pid, id)) rest
  | "custom" -> Some (Custom rest)
  | "span_begin" -> d_iis (fun id pid name -> Span_begin (id, pid, name)) rest
  | "span_end" -> d_i (fun id -> Span_end id) rest
  | "task_state" -> d_ii (fun pid st -> Task_state (pid, st)) rest
  | "runq_depth" -> d_ii (fun core depth -> Runq_depth (core, depth)) rest
  | _ -> None

(* The inverse of {!machine_line}; None on anything malformed. *)
let parse_machine_line line =
  match split_n 4 (String.trim line) with
  | Some ([ ts; seq; core; tag ], rest) -> (
      match
        (Int64.of_string_opt ts, int_of_string_opt seq, int_of_string_opt core)
      with
      | Some ts_ns, Some seq, Some core ->
          Option.map (fun ev -> { ts_ns; seq; core; ev }) (decode tag rest)
      | _ -> None)
  | Some _ | None -> None
