(** Spinlocks, with the Prototype 1 evolution the paper describes (§4.1).

    The simulation is single-threaded, so a spinlock can never actually be
    contended at the instant of acquisition — but the {e discipline} is
    enforced (no recursive acquisition, release-by-owner) and acquisition
    counts and hold times are recorded, which the scheduler uses for its
    contention accounting and tests use to verify locking protocols.
    Locks created with [~kcheck] additionally feed the lockdep order
    graph and appear in /proc/locks.

    [irq_guard] is the single-core reduction: reference-counted interrupt
    disable (xv6's pushcli/popcli), which is what Prototype 1 settles on.

    Discipline violations (recursive acquisition, release-by-stranger,
    release-when-free) die through {!Kpanic.panicf} like every other
    broken kernel invariant, so vlint's no-raise rule (R003) covers this
    file too. *)

type t = {
  name : string;
  mutable owner : int option;  (** core id *)
  mutable acquisitions : int;
  mutable acquired_at : int64;
  mutable total_held_ns : int64;
  mutable max_held_ns : int64;
  kcheck : Kcheck.t option;
  trace : Ktrace.t;  (** its kernel's trace: vprobe's lock points read it *)
}

let create ?kcheck ~trace name =
  let t =
    {
      name;
      owner = None;
      acquisitions = 0;
      acquired_at = 0L;
      total_held_ns = 0L;
      max_held_ns = 0L;
      kcheck;
      trace;
    }
  in
  (match kcheck with
  | Some kc ->
      Kcheck.register_lock_probe kc
        {
          Kcheck.lp_name = name;
          lp_acquisitions = (fun () -> t.acquisitions);
          lp_total_held_ns = (fun () -> t.total_held_ns);
          lp_max_held_ns = (fun () -> t.max_held_ns);
        }
  | None -> ());
  t

(* vprobe's lock:acquire / lock:contended: host-side bookkeeping only,
   no cycles charged and no engine events scheduled *)
let observe t ~held ~core ~now_ns =
  if Ktrace.probing t.trace then
    Ktrace.emit t.trace ~ts_ns:now_ns ~core
      (Ktrace.Probe (Ktrace.Spin_take held))

let acquire t ~core ~now_ns =
  (match t.owner with
  | Some held_by ->
      (* unreachable while the simulation is single-threaded, but the
         probe fires before the panic so an SMP future (or a test that
         forges contention) sees the event *)
      observe t ~held:true ~core ~now_ns;
      Kpanic.panicf "spinlock %s: core %d acquiring while core %d holds"
        t.name core held_by
  | None -> observe t ~held:false ~core ~now_ns);
  (match t.kcheck with
  | Some kc -> Kcheck.lock_acquire kc ~name:t.name ~core
  | None -> ());
  t.owner <- Some core;
  t.acquisitions <- t.acquisitions + 1;
  t.acquired_at <- now_ns

let release t ~core ~now_ns =
  (match t.owner with
  | Some held_by when held_by = core -> ()
  | Some held_by ->
      Kpanic.panicf "spinlock %s: core %d releasing core %d's lock" t.name
        core held_by
  | None -> Kpanic.panicf "spinlock %s: release when free" t.name);
  (match t.kcheck with
  | Some kc -> Kcheck.lock_release kc ~name:t.name ~core
  | None -> ());
  t.owner <- None;
  let held = Int64.sub now_ns t.acquired_at in
  t.total_held_ns <- Int64.add t.total_held_ns held;
  if Int64.compare held t.max_held_ns > 0 then t.max_held_ns <- held

let holding t ~core = t.owner = Some core
let total_held_ns t = t.total_held_ns

(* Leaf lock window: acquire, run the pure critical section, release.
   For the discipline-only subsystem locks (fd table, pipes, semaphores,
   buffer cache LRU): created without [~kcheck], so the window emits no
   trace events and costs no virtual time — vrace (tools/vrace) is their
   static checker, enforcing that [@locked_by]-annotated state is only
   touched inside and that nothing inside can block (R103). The body must
   not call the scheduler: wakeups resume other tasks synchronously and
   would re-enter the window. *)
let protect t f =
  acquire t ~core:0 ~now_ns:0L;
  match f () with
  | v ->
      release t ~core:0 ~now_ns:0L;
      v
  | exception e ->
      release t ~core:0 ~now_ns:0L;
      raise e

(** Reference-counted interrupt on/off, the single-core substitute. *)
module Irq_guard = struct
  type guard = {
    intc : Hw.Intc.t;
    core : int;
    mutable depth : int;
    kcheck : Kcheck.t option;
  }

  let create ?kcheck intc ~core = { intc; core; depth = 0; kcheck }

  let push g =
    if g.depth = 0 then Hw.Intc.mask g.intc ~core:g.core;
    g.depth <- g.depth + 1;
    match g.kcheck with
    | Some kc -> Kcheck.irq_push kc ~core:g.core
    | None -> ()

  let pop g =
    if g.depth <= 0 then Kpanic.panicf "irq_guard: pop without push";
    g.depth <- g.depth - 1;
    if g.depth = 0 then Hw.Intc.unmask g.intc ~core:g.core;
    match g.kcheck with
    | Some kc -> Kcheck.irq_pop kc ~core:g.core
    | None -> ()

  let depth g = g.depth
end
