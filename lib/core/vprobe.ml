(** vprobe: dynamic kernel probes with in-kernel aggregation.

    The bpftrace idea at teaching scale, fed by the kernel's one event
    source, {!Ktrace.emit}. The registry names a fixed catalog of probe
    points (every syscall entry and exit, the scheduler's
    wakeup/switch/migrate edges, spinlock acquisition, pipe traffic,
    buffer-cache hits and misses, SD requests, journal commits). Each
    point reads one kind of trace event, and {!route} maps every event
    to its point in one exhaustive match. Points the ring has no event
    for read probe-only events, which [emit] hands to the probe hook and
    never writes to the ring. The registry installs that hook while any
    probe is attached; while none is, a ring event costs [emit] one
    option check and a probe-only site one {!Ktrace.probing} check.
    Writing a probe spec to [/proc/vprobe_ctl] attaches a
    predicate-filtered aggregation that updates host-side state as
    events arrive:

    {v probe syscall:read / pid==2 / hist(latency_us) v}

    Aggregations are [count], [sum(key)] or [hist(key)] (reusing
    {!Kperf.Hist}), optionally keyed with [by(pid|syscall|core)];
    predicates compare [pid]/[fd]/[errno]/[arg0]/[core] against integer
    literals with [== != < <= > >=], joined by [&&]. Results render live
    at [/proc/vprobe] and fold into [/proc/metrics].

    Everything here follows the PR-5 observability discipline: no
    {!Sched.charge}, no engine events — attaching every probe in the
    catalog leaves all virtual-time numbers byte-identical. *)

(* ---- the probe-point catalog ---- *)

(* Point ids are dense array indices: [0, syscall_count) are the
   syscall-entry points ("sysenter:<name>"), [syscall_count,
   2*syscall_count) the syscall-exit points ("syscall:<name>", which
   carry service latency and errno), and the tail is the static
   catalog below, whose names {!route} uses. vlint R007 checks each
   static name is registered exactly once and documented in DESIGN.md. *)
let static_points =
  [
    "sched:wakeup";
    "sched:ctx_switch";
    "sched:migrate";
    "lock:acquire";
    "lock:contended";
    "pipe:read";
    "pipe:write";
    "bufcache:hit";
    "bufcache:miss";
    "sd:issue";
    "sd:complete";
    "journal:commit";
  ]

let sysenter_base = 0
let sysexit_base = Abi.syscall_count
let static_base = 2 * Abi.syscall_count
let point_count = static_base + List.length static_points

let point_name id =
  if id < sysexit_base then "sysenter:" ^ List.nth Abi.syscall_names id
  else if id < static_base then
    "syscall:" ^ List.nth Abi.syscall_names (id - sysexit_base)
  else List.nth static_points (id - static_base)

(* The position of [name] in [names], if it is there. *)
let index name names =
  let rec go i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 names

let point_id name =
  match String.index_opt name ':' with
  | None -> None
  | Some i -> (
      let family = String.sub name 0 i in
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      match family with
      | "sysenter" ->
          Option.map (fun k -> sysenter_base + k) (index rest Abi.syscall_names)
      | "syscall" ->
          Option.map (fun k -> sysexit_base + k) (index rest Abi.syscall_names)
      | _ -> Option.map (fun k -> static_base + k) (index name static_points))

(* ---- probe specs ---- *)

type field = F_pid | F_fd | F_errno | F_arg0 | F_core

let field_name = function
  | F_pid -> "pid"
  | F_fd -> "fd"
  | F_errno -> "errno"
  | F_arg0 -> "arg0"
  | F_core -> "core"

type cmp = Eq | Ne | Lt | Le | Gt | Ge

let cmp_name = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

type pred = { p_field : field; p_cmp : cmp; p_lit : int }

(** What value an aggregation accumulates. *)
type key =
  | K_latency_ns
  | K_latency_us
  | K_field of field

let key_name = function
  | K_latency_ns -> "latency_ns"
  | K_latency_us -> "latency_us"
  | K_field f -> field_name f

type agg_kind = A_count | A_sum of key | A_hist of key
type by = By_none | By_pid | By_syscall | By_core

type spec = {
  s_point : int;
  s_preds : pred list;
  s_agg : agg_kind;
  s_by : by;
}

(* One aggregation cell; keyed maps hold one per distinct by-value. *)
type cell = { mutable cl_count : int; mutable cl_sum : int; cl_hist : Kperf.Hist.t }

type probe = {
  pr_id : int;  (** attachment id, for [detach <id>] *)
  pr_spec : spec;
  pr_text : string;  (** the spec as written, for rendering *)
  pr_cells : (int, cell) Hashtbl.t;  (** by-value -> cell; By_none uses key 0 *)
  mutable pr_fired : int;  (** events that passed the predicate *)
}

type t = {
  trace : Ktrace.t;
      (** the kernel's trace: the registry installs its probe hook while
          any probe is attached *)
  attached : probe list array;  (** index = point id; [] = disarmed *)
  mutable next_probe_id : int;
  mutable all : probe list;  (** newest first *)
}

let create trace =
  { trace; attached = Array.make point_count []; next_probe_id = 0; all = [] }

(* ---- the spec parser ----

   probe <point> [/ <pred> && <pred> ... [/ <agg>]]
   pred  := * | <field> <cmp> <int>
   agg   := count | sum(<key>) | hist(<key>) [by(pid|syscall|core)]

   Whitespace is free; errors return [Error msg] and the ctl write
   surfaces EINVAL (all-or-nothing, like ktrace_ctl). *)

let ( let* ) = Result.bind

let parse_field = function
  | "pid" -> Ok F_pid
  | "fd" -> Ok F_fd
  | "errno" -> Ok F_errno
  | "arg0" -> Ok F_arg0
  | "core" -> Ok F_core
  | s -> Error (Printf.sprintf "unknown predicate field %S" s)

let parse_key = function
  | "latency_ns" -> Ok K_latency_ns
  | "latency_us" -> Ok K_latency_us
  | s -> (
      match parse_field s with
      | Ok f -> Ok (K_field f)
      | Error _ -> Error (Printf.sprintf "unknown aggregation key %S" s))

let parse_by = function
  | "pid" -> Ok By_pid
  | "syscall" -> Ok By_syscall
  | "core" -> Ok By_core
  | s -> Error (Printf.sprintf "unknown by() key %S" s)

(* split "name(arg)" -> Some (name, arg) *)
let split_call s =
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
      Some
        ( String.sub s 0 i,
          String.trim (String.sub s (i + 1) (String.length s - i - 2)) )
  | _ -> None

let parse_pred s =
  let s = String.trim s in
  if String.equal s "*" then Ok None
  else
    (* longest operators first so "<=" is not read as "<" *)
    let ops = [ ("==", Eq); ("!=", Ne); ("<=", Le); (">=", Ge); ("<", Lt); (">", Gt) ] in
    let found =
      List.filter_map
        (fun (op, c) ->
          let oplen = String.length op in
          let rec scan i =
            if i + oplen > String.length s then None
            else if String.equal (String.sub s i oplen) op then Some i
            else scan (i + 1)
          in
          Option.map (fun i -> (i, op, oplen, c)) (scan 0))
        ops
    in
    match found with
    | [] -> Error (Printf.sprintf "predicate %S has no comparison operator" s)
    | (i, _, oplen, c) :: _ ->
        let fld = String.trim (String.sub s 0 i) in
        let lit = String.trim (String.sub s (i + oplen) (String.length s - i - oplen)) in
        let* f = parse_field fld in
        (match int_of_string_opt lit with
        | None -> Error (Printf.sprintf "predicate literal %S is not an integer" lit)
        | Some n -> Ok (Some { p_field = f; p_cmp = c; p_lit = n }))

let parse_preds s =
  let parts = String.split_on_char '&' s in
  (* "a && b" splits into ["a "; ""; " b"]; drop the empties "&&" leaves *)
  let parts = List.filter (fun p -> String.trim p <> "") parts in
  List.fold_left
    (fun acc p ->
      let* ps = acc in
      let* pred = parse_pred p in
      Ok (match pred with None -> ps | Some pr -> pr :: ps))
    (Ok []) parts
  |> Result.map List.rev

let parse_agg s =
  let s = String.trim s in
  (* optional trailing by(...): scan for a "by(" token at a word start *)
  let* body, by =
    let len = String.length s in
    let rec find_by i =
      if i + 3 > len then None
      else if
        String.equal (String.sub s i 3) "by(" && (i = 0 || s.[i - 1] = ' ')
      then Some i
      else find_by (i + 1)
    in
    match find_by 0 with
    | None -> Ok (s, By_none)
    | Some i -> (
        let body = String.trim (String.sub s 0 i) in
        let rest = String.trim (String.sub s i (len - i)) in
        match split_call rest with
        | Some ("by", k) ->
            let* b = parse_by k in
            Ok (body, b)
        | _ -> Error (Printf.sprintf "malformed by() in %S" s))
  in
  let* kind =
    if String.equal body "count" || String.equal body "count()" then Ok A_count
    else
      match split_call body with
      | Some ("sum", k) ->
          let* key = parse_key k in
          Ok (A_sum key)
      | Some ("hist", k) ->
          let* key = parse_key k in
          Ok (A_hist key)
      | _ -> Error (Printf.sprintf "unknown aggregation %S" body)
  in
  Ok (kind, by)

let parse_spec line =
  let line = String.trim line in
  let* rest =
    if String.length line >= 6 && String.equal (String.sub line 0 6) "probe " then
      Ok (String.sub line 6 (String.length line - 6))
    else Error (Printf.sprintf "expected \"probe <point> ...\", got %S" line)
  in
  let sections = String.split_on_char '/' rest |> List.map String.trim in
  let* point, preds, agg =
    match sections with
    | [ p ] -> Ok (p, Ok [], Ok (A_count, By_none))
    | [ p; pr ] -> Ok (p, parse_preds pr, Ok (A_count, By_none))
    | [ p; pr; ag ] -> Ok (p, parse_preds pr, parse_agg ag)
    | _ -> Error (Printf.sprintf "too many '/' sections in %S" line)
  in
  let* pt =
    match point_id point with
    | Some id -> Ok id
    | None -> Error (Printf.sprintf "unknown probe point %S" point)
  in
  let* preds = preds in
  let* agg, by = agg in
  Ok { s_point = pt; s_preds = preds; s_agg = agg; s_by = by }

(* ---- firing ---- *)

let holds v p =
  match p.p_cmp with
  | Eq -> v = p.p_lit
  | Ne -> v <> p.p_lit
  | Lt -> v < p.p_lit
  | Le -> v <= p.p_lit
  | Gt -> v > p.p_lit
  | Ge -> v >= p.p_lit

let cell_for probe k =
  match Hashtbl.find probe.pr_cells k with
  | c -> c
  | exception Not_found ->
      let c = { cl_count = 0; cl_sum = 0; cl_hist = Kperf.Hist.create () } in
      Hashtbl.add probe.pr_cells k c;
      c

(* One event at a point with [probes] attached, as the fields predicates
   and keys read. A field the event does not carry is neutral (fd -1,
   errno 0, syscall -1, 0 otherwise), so [fd == 3] never selects a
   context switch. The fields travel as arguments, never in a closure,
   so a fire allocates only what its aggregation stores. *)
let field f ~pid ~core ~fd ~errno ~arg0 =
  match f with
  | F_pid -> pid
  | F_fd -> fd
  | F_errno -> errno
  | F_arg0 -> arg0
  | F_core -> core

let key k ~pid ~core ~fd ~errno ~arg0 ~latency_ns =
  match k with
  | K_latency_ns -> latency_ns
  | K_latency_us -> latency_ns / 1000
  | K_field f -> field f ~pid ~core ~fd ~errno ~arg0

let rec preds_hold preds ~pid ~core ~fd ~errno ~arg0 =
  match preds with
  | [] -> true
  | p :: rest ->
      holds (field p.p_field ~pid ~core ~fd ~errno ~arg0) p
      && preds_hold rest ~pid ~core ~fd ~errno ~arg0

let rec hit probes ~pid ~core ~fd ~errno ~arg0 ~syscall ~latency_ns =
  match probes with
  | [] -> ()
  | probe :: rest ->
      let spec = probe.pr_spec in
      if preds_hold spec.s_preds ~pid ~core ~fd ~errno ~arg0 then begin
        probe.pr_fired <- probe.pr_fired + 1;
        let c =
          cell_for probe
            (match spec.s_by with
            | By_none -> 0
            | By_pid -> pid
            | By_syscall -> syscall
            | By_core -> core)
        in
        c.cl_count <- c.cl_count + 1;
        match spec.s_agg with
        | A_count -> ()
        | A_sum k ->
            let v = key k ~pid ~core ~fd ~errno ~arg0 ~latency_ns in
            c.cl_sum <- c.cl_sum + v
        | A_hist k ->
            (* hist() buckets in ns space; latency_us values are scaled
               back up so one Hist covers both units *)
            let v = key k ~pid ~core ~fd ~errno ~arg0 ~latency_ns in
            Kperf.Hist.record c.cl_hist
              (Int64.of_int (if k = K_latency_us then v * 1000 else v))
      end;
      hit rest ~pid ~core ~fd ~errno ~arg0 ~syscall ~latency_ns

let static t pt ~pid ~core ~arg0 ~latency_ns =
  hit t.attached.(pt) ~pid ~core ~fd:(-1) ~errno:0 ~arg0 ~syscall:(-1)
    ~latency_ns

(* Each static point's id, looked up by its catalog name once, when the
   module initialises, so {!route} reaches a point with no lookup. *)
let static_id name = Option.get (point_id name)
let sched_wakeup = static_id "sched:wakeup"
let sched_ctx_switch = static_id "sched:ctx_switch"
let sched_migrate = static_id "sched:migrate"
let lock_acquire = static_id "lock:acquire"
let lock_contended = static_id "lock:contended"
let pipe_read = static_id "pipe:read"
let pipe_write = static_id "pipe:write"
let bufcache_hit = static_id "bufcache:hit"
let bufcache_miss = static_id "bufcache:miss"
let sd_issue = static_id "sd:issue"
let sd_complete = static_id "sd:complete"
let journal_commit = static_id "journal:commit"

(* The probe hook: the point an event fires and what it reads from the
   event's payload, [core] being the core the event was emitted on.
   Spelled out constructor by constructor (vlint R004), so a new event
   must be routed here too. *)
let route t core ev =
  match ev with
  | Ktrace.Sched_wakeup pid ->
      static t sched_wakeup ~pid ~core ~arg0:0 ~latency_ns:0
  | Ktrace.Ctx_switch (from, pid) ->
      static t sched_ctx_switch ~pid ~core ~arg0:from ~latency_ns:0
  | Ktrace.Sched_migrate (pid, from, _) ->
      static t sched_migrate ~pid ~core ~arg0:from ~latency_ns:0
  | Ktrace.Probe (Ktrace.Sys_args (idx, pid, fd, arg0)) ->
      hit t.attached.(sysenter_base + idx) ~pid ~core ~fd ~errno:0 ~arg0
        ~syscall:idx ~latency_ns:0
  | Ktrace.Probe (Ktrace.Sys_result (idx, pid, fd, arg0, errno, ns)) ->
      hit t.attached.(sysexit_base + idx) ~pid ~core ~fd ~errno ~arg0
        ~syscall:idx ~latency_ns:ns
  | Ktrace.Probe (Ktrace.Spin_take held) ->
      static t
        (if held then lock_contended else lock_acquire)
        ~pid:0 ~core ~arg0:0 ~latency_ns:0
  | Ktrace.Probe (Ktrace.Pipe_read (pid, n, ns)) ->
      static t pipe_read ~pid ~core ~arg0:n ~latency_ns:ns
  | Ktrace.Probe (Ktrace.Pipe_write (pid, n)) ->
      static t pipe_write ~pid ~core ~arg0:n ~latency_ns:0
  | Ktrace.Probe (Ktrace.Cache_hit (pid, block)) ->
      static t bufcache_hit ~pid ~core ~arg0:block ~latency_ns:0
  | Ktrace.Probe (Ktrace.Cache_miss (pid, block)) ->
      static t bufcache_miss ~pid ~core ~arg0:block ~latency_ns:0
  | Ktrace.Probe (Ktrace.Sd_request (pid, ns)) ->
      static t sd_issue ~pid ~core ~arg0:0 ~latency_ns:0;
      static t sd_complete ~pid ~core ~arg0:0 ~latency_ns:ns
  | Ktrace.Probe (Ktrace.Journal_commit blocks) ->
      static t journal_commit ~pid:0 ~core ~arg0:blocks ~latency_ns:0
  | Ktrace.Syscall_enter _ | Ktrace.Syscall_exit _ | Ktrace.Irq_enter _
  | Ktrace.Irq_exit _ | Ktrace.Ipi_send _ | Ktrace.Ipi_recv _
  | Ktrace.Kbd_report | Ktrace.Event_delivered _ | Ktrace.Poll_return _
  | Ktrace.Frame_present _ | Ktrace.Wm_composite | Ktrace.Lock_acquire _
  | Ktrace.Lock_release _ | Ktrace.Sem_block _ | Ktrace.Sem_wake _
  | Ktrace.Custom _ | Ktrace.Span_begin _ | Ktrace.Span_end _
  | Ktrace.Task_state _ | Ktrace.Runq_depth _ ->
      ()

(* ---- attach / detach ---- *)

(* The hook is installed exactly while some probe is attached. *)
let rearm t =
  t.trace.Ktrace.probe <-
    (match t.all with [] -> None | _ :: _ -> Some (route t))

let attach t line =
  let* spec = parse_spec line in
  t.next_probe_id <- t.next_probe_id + 1;
  let probe =
    {
      pr_id = t.next_probe_id;
      pr_spec = spec;
      pr_text = String.trim line;
      pr_cells = Hashtbl.create 8;
      pr_fired = 0;
    }
  in
  t.attached.(spec.s_point) <- probe :: t.attached.(spec.s_point);
  t.all <- probe :: t.all;
  rearm t;
  Ok probe.pr_id

let detach t id =
  if List.exists (fun p -> p.pr_id = id) t.all then begin
    let keep p = p.pr_id <> id in
    Array.iteri (fun i ps -> t.attached.(i) <- List.filter keep ps) t.attached;
    t.all <- List.filter keep t.all;
    rearm t;
    true
  end
  else false

let clear t =
  Array.fill t.attached 0 point_count [];
  t.all <- [];
  rearm t

(* ---- rendering ---- *)

let by_key_label spec k =
  match spec.s_by with
  | By_none -> ""
  | By_syscall ->
      Printf.sprintf "[%s]"
        (if k >= 0 && k < Abi.syscall_count then List.nth Abi.syscall_names k
         else string_of_int k)
  | By_pid | By_core -> Printf.sprintf "[%d]" k

let render_cell buf spec k c =
  let tag = by_key_label spec k in
  match spec.s_agg with
  | A_count ->
      Buffer.add_string buf
        (Printf.sprintf "  count%s\t: %d\n" tag c.cl_count)
  | A_sum key ->
      Buffer.add_string buf
        (Printf.sprintf "  sum(%s)%s\t: %d  (n=%d)\n" (key_name key) tag
           c.cl_sum c.cl_count)
  | A_hist key ->
      Buffer.add_string buf
        (Printf.sprintf "  hist(%s)%s\t: %s\n" (key_name key) tag
           (Kperf.Hist.render_line c.cl_hist))

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "points\t: %d registered, %d armed\nprobes\t: %d attached\n"
       point_count
       (Array.fold_left (fun n ps -> if ps = [] then n else n + 1) 0 t.attached)
       (List.length t.all));
  List.iter
    (fun probe ->
      let spec = probe.pr_spec in
      Buffer.add_string buf
        (Printf.sprintf "\n#%d %s  (point %s, fired %d)\n" probe.pr_id
           probe.pr_text (point_name spec.s_point) probe.pr_fired);
      if List.length spec.s_preds > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  filter\t: %s\n"
             (String.concat " && "
                (List.map
                   (fun p ->
                     Printf.sprintf "%s %s %d" (field_name p.p_field)
                       (cmp_name p.p_cmp) p.p_lit)
                   spec.s_preds)));
      Hashtbl.fold (fun k c acc -> (k, c) :: acc) probe.pr_cells []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (k, c) -> render_cell buf spec k c))
    (List.rev t.all);
  Buffer.contents buf

(* Fold the attached aggregates into /proc/metrics. Each probe becomes
   vos_vprobe_<agg>{probe="<spec text>",key="<by label>"} — counts and
   sums as gauges-rendered-as-counters, hist cells elided (the full
   histograms live on /proc/vprobe). *)
let render_metrics t =
  let buf = Buffer.create 512 in
  if t.all <> [] then begin
    Buffer.add_string buf
      "# HELP vos_vprobe_fired_total events that passed an attached probe's predicate\n";
    Buffer.add_string buf "# TYPE vos_vprobe_fired_total counter\n";
    List.iter
      (fun probe ->
        Buffer.add_string buf
          (Printf.sprintf "vos_vprobe_fired_total{probe=%s} %d\n"
             (Kperf.quote_label probe.pr_text) probe.pr_fired))
      (List.rev t.all);
    let sums =
      List.concat_map
        (fun probe ->
          match probe.pr_spec.s_agg with
          | A_sum _ ->
              Hashtbl.fold (fun k c acc -> (probe, k, c) :: acc)
                probe.pr_cells []
              |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
          | A_count | A_hist _ -> [])
        (List.rev t.all)
    in
    if sums <> [] then begin
      Buffer.add_string buf
        "# HELP vos_vprobe_sum accumulated sum(key) per attached probe cell\n";
      Buffer.add_string buf "# TYPE vos_vprobe_sum counter\n";
      List.iter
        (fun (probe, k, c) ->
          Buffer.add_string buf
            (Printf.sprintf "vos_vprobe_sum{probe=%s,key=%s} %d\n"
               (Kperf.quote_label probe.pr_text)
               (Kperf.quote_label (by_key_label probe.pr_spec k))
               c.cl_sum))
        sums
    end
  end;
  Buffer.contents buf

(* ---- the ctl surface ----

   probe <spec>   attach (see grammar above)
   detach <id>    remove one attachment
   clear          remove everything

   All-or-nothing like ktrace_ctl: the whole write is validated first
   and any bad line means no line applies. *)

type ctl_cmd = C_probe of string | C_detach of int | C_clear

let parse_ctl_line line =
  let line = String.trim line in
  if String.equal line "" then Ok None
  else if String.equal line "clear" then Ok (Some C_clear)
  else if String.length line >= 7 && String.equal (String.sub line 0 7) "detach "
  then
    match int_of_string_opt (String.trim (String.sub line 7 (String.length line - 7))) with
    | Some id -> Ok (Some (C_detach id))
    | None -> Error "detach wants an integer probe id"
  else if String.length line >= 6 && String.equal (String.sub line 0 6) "probe "
  then
    (* validate now, attach later *)
    let* _ = parse_spec line in
    Ok (Some (C_probe line))
  else Error (Printf.sprintf "unknown vprobe_ctl command %S" line)

let ctl_write t data =
  let lines = String.split_on_char '\n' data in
  let parsed =
    List.fold_left
      (fun acc line ->
        let* cmds = acc in
        let* cmd = parse_ctl_line line in
        Ok (match cmd with None -> cmds | Some c -> c :: cmds))
      (Ok []) lines
    |> Result.map List.rev
  in
  match parsed with
  | Error e -> Error e
  | Ok cmds ->
      List.iter
        (fun cmd ->
          match cmd with
          | C_clear -> clear t
          | C_detach id -> ignore (detach t id)
          | C_probe line -> (
              match attach t line with Ok _ -> () | Error _ -> ()))
        cmds;
      Ok ()
