(** kcheck: the runtime concurrency/resource sanitizer (Kconfig-gated,
    default on under the test harness).

    PRs 1–3 each flushed out a latent lifetime bug by hand — pipe-end
    double counting on fork, semaphore leaks across clone/exit, writers
    sleeping forever on readerless pipes. kcheck turns that bug class
    into machine-checked invariants, riding the structures the kernel
    already has:

    - {b lockdep}: a lock-order graph over {!Spinlock} / irq-guard
      acquisitions. Edge A→B means B was acquired while A was held;
      a path B⇝A at acquisition time is an inversion (ABBA) and panics
      with the cycle before the deadlock can ever happen on real
      hardware.
    - {b wait-for graph}: when a task blocks, walk who could wake its
      channel (exit/children/sem/pipe channels — the map is injected by
      the kernel as {!env}). If the walk closes a cycle whose members
      are all [Blocked], that is a deadlock; panic with the cycle.
    - {b sleep-in-atomic}: blocking while the core holds a spinlock or
      sits under an irq guard.
    - {b refcount audit}: auditors registered by the kernel (fd tables,
      pipe ends, semaphore refs) re-derive every refcount from the
      ground truth at each fork/clone/exit boundary and panic on drift.

    kcheck charges {e zero} virtual cycles — it is host-side
    instrumentation, so every paper number is bit-identical with the
    knob on; the <2% bench criterion is met trivially at 0%. Violations
    are recorded (for /proc/kcheck), emitted as a Ktrace event, and then
    raised as {!Kpanic.Panic}.

    Dependency note: this module sits low in [lib/core] (only Ktrace and
    Kpanic below it). Everything kernel-specific — who could wake a wait
    channel, semaphore holders, fd-table walks — reaches it as closures
    installed by [kernel.ml] at boot. *)

type violation = { rule : string; detail : string }

(** Kernel-side knowledge, injected at boot, all keyed by pid.
    [blocked pid] is whether the task is blocked. [wakers pid] lists the
    tasks that could plausibly wake the channel it is blocked on; an
    empty list means "woken externally" (timers, IRQs, the debugger) and
    ends the deadlock walk. [chan_name pid] renders that channel, and is
    read only to report a violation. *)
type env = {
  blocked : int -> bool;
  wakers : int -> int list;
  chan_name : int -> string;
}

(** A lock registered for /proc/locks; closures so kcheck never depends
    on {!Spinlock} (which depends on kcheck). *)
type lock_probe = {
  lp_name : string;
  lp_acquisitions : unit -> int;
  lp_total_held_ns : unit -> int64;
  lp_max_held_ns : unit -> int64;
}

type t = {
  mutable emit : Ktrace.event -> unit;
  mutable env : env option;
  (* lockdep: lock-order edges (name -> names acquired while held) and
     the per-core stack of held lock names *)
  edges : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  held : (int, string list) Hashtbl.t;
  irq_depth : (int, int) Hashtbl.t;
  mutable lock_probes : lock_probe list;
  mutable auditors : (string * (unit -> string list)) list;
  mutable violations : violation list;
  (* counters for /proc/kcheck *)
  mutable lock_events : int;
  mutable block_events : int;
  mutable scans : int;
  mutable audits : int;
}

let create () =
  {
    emit = (fun _ -> ());
    env = None;
    edges = Hashtbl.create 16;
    held = Hashtbl.create 4;
    irq_depth = Hashtbl.create 4;
    lock_probes = [];
    auditors = [];
    violations = [];
    lock_events = 0;
    block_events = 0;
    scans = 0;
    audits = 0;
  }

let set_emit t f = t.emit <- f
let set_env t env = t.env <- Some env
let register_lock_probe t p = t.lock_probes <- t.lock_probes @ [ p ]
let register_auditor t ~name f = t.auditors <- t.auditors @ [ (name, f) ]

let violation t ~rule fmt =
  Printf.ksprintf
    (fun detail ->
      t.violations <- { rule; detail } :: t.violations;
      t.emit (Ktrace.Custom (Printf.sprintf "kcheck:%s %s" rule detail));
      Kpanic.panicf "kcheck: %s: %s" rule detail)
    fmt

(* ---- lockdep ---- *)

let held_on t ~core = Option.value ~default:[] (Hashtbl.find_opt t.held core)

let succs t name =
  match Hashtbl.find_opt t.edges name with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun k () acc -> k :: acc) tbl []

(* Path from [src] to [dst] in the order graph, if one exists. *)
let lock_path t ~src ~dst =
  let visited = Hashtbl.create 8 in
  let rec dfs path name =
    if name = dst then Some (List.rev (name :: path))
    else if Hashtbl.mem visited name then None
    else begin
      Hashtbl.replace visited name ();
      List.fold_left
        (fun acc next ->
          match acc with Some _ -> acc | None -> dfs (name :: path) next)
        None (succs t name)
    end
  in
  dfs [] src

let add_edge t ~from ~to_ =
  let tbl =
    match Hashtbl.find_opt t.edges from with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 4 in
        Hashtbl.replace t.edges from tbl;
        tbl
  in
  Hashtbl.replace tbl to_ ()

let lock_acquire t ~name ~core =
  t.lock_events <- t.lock_events + 1;
  t.emit (Ktrace.Lock_acquire (name, core));
  let held = held_on t ~core in
  List.iter
    (fun outer ->
      (* about to add outer -> name; an existing name ~> outer path means
         the two orders coexist: ABBA *)
      match lock_path t ~src:name ~dst:outer with
      | Some path ->
          violation t ~rule:"lock-order"
            "acquiring %s while holding %s inverts the established order %s"
            name outer
            (String.concat " -> " (path @ [ name ]))
      | None -> add_edge t ~from:outer ~to_:name)
    held;
  Hashtbl.replace t.held core (name :: held)

let lock_release t ~name ~core =
  t.emit (Ktrace.Lock_release (name, core));
  let rec remove_first = function
    | [] -> []
    | x :: rest when x = name -> rest
    | x :: rest -> x :: remove_first rest
  in
  Hashtbl.replace t.held core (remove_first (held_on t ~core))

let irq_push t ~core =
  Hashtbl.replace t.irq_depth core
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.irq_depth core))

let irq_pop t ~core =
  Hashtbl.replace t.irq_depth core
    (max 0 (Option.value ~default:0 (Hashtbl.find_opt t.irq_depth core) - 1))

(* ---- wait-for graph ---- *)

(* DFS over blocked tasks from the task that just blocked. A node's
   successors are the tasks that could wake its channel (minus itself —
   it cannot wake anyone while blocked). Unknown wakers ([]) or any
   runnable waker end the branch: the channel can still be woken. A
   successor already on the path closes a cycle of blocked tasks. *)
let deadlock_scan t env ~pid =
  t.scans <- t.scans + 1;
  let rec dfs path p =
    let on_path = p :: path in
    let ss = List.filter (fun s -> s <> p) (env.wakers p) in
    if ss = [] || List.exists (fun s -> not (env.blocked s)) ss then None
    else
      List.find_map
        (fun s ->
          if List.mem s on_path then
            (* drop path entries below the cycle entry point *)
            let rec upto = function
              | [] -> []
              | q :: rest -> if q = s then [ q ] else q :: upto rest
            in
            Some (List.rev (upto on_path))
          else dfs on_path s)
        ss
  in
  match dfs [] pid with
  | None -> ()
  | Some cycle ->
      violation t ~rule:"wait-cycle" "deadlock: %s"
        (String.concat " -> "
           (List.map
              (fun p -> Printf.sprintf "task %d (on %s)" p (env.chan_name p))
              cycle))

let waiting_on t pid =
  match t.env with Some env -> env.chan_name pid | None -> "?"

(* Called by the scheduler after a task's state became [Blocked _]. *)
let task_blocked t ~pid ~core =
  t.block_events <- t.block_events + 1;
  (match held_on t ~core with
  | [] -> ()
  | names ->
      violation t ~rule:"sleep-in-atomic"
        "task %d blocks on %s while core %d holds %s" pid (waiting_on t pid)
        core
        (String.concat ", " names));
  if Option.value ~default:0 (Hashtbl.find_opt t.irq_depth core) > 0 then
    violation t ~rule:"sleep-in-atomic"
      "task %d blocks on %s under an irq guard on core %d" pid
      (waiting_on t pid) core;
  match t.env with
  | None -> ()
  | Some env -> deadlock_scan t env ~pid

(* ---- refcount audits ---- *)

(* Run every registered auditor; each returns the list of inconsistencies
   it re-derived from ground truth. Called at fork/clone/exit; [reason]
   names the boundary, and runs only to report a violation. *)
let audit t ~reason =
  t.audits <- t.audits + 1;
  List.iter
    (fun (name, f) ->
      match f () with
      | [] -> ()
      | problems ->
          violation t ~rule:"refcount" "%s at %s: %s" name (reason ())
            (String.concat "; " problems))
    t.auditors

(* ---- /proc rendering ---- *)

let render_locks t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %12s %14s %12s\n" "name" "acquisitions"
       "total_held_ns" "max_held_ns");
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %12d %14Ld %12Ld\n" p.lp_name
           (p.lp_acquisitions ())
           (p.lp_total_held_ns ())
           (p.lp_max_held_ns ())))
    t.lock_probes;
  Buffer.contents buf

let render_report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "lock_events\t: %d\nblock_events\t: %d\ndeadlock_scans\t: \
        %d\naudits\t\t: %d\norder_edges\t: %d\nauditors\t: %s\nviolations\t: \
        %d\n"
       t.lock_events t.block_events t.scans t.audits
       (Hashtbl.fold (fun _ tbl n -> n + Hashtbl.length tbl) t.edges 0)
       (String.concat ", " (List.map fst t.auditors))
       (List.length t.violations));
  List.iter
    (fun v ->
      Buffer.add_string buf (Printf.sprintf "violation\t: [%s] %s\n" v.rule v.detail))
    (List.rev t.violations);
  Buffer.contents buf
