(* Domain pool for the engine's parallel event batches.

   The pool is a set of long-lived worker domains. A batch is closed — no
   task submits another — so the pool needs no queues: [run] publishes a
   per-batch record, bumps an epoch counter and broadcasts, and the
   submitter and the woken workers claim tasks from the batch's one shared
   index until it passes the end. Between batches a worker spins briefly
   on the epoch with [Domain.cpu_relax] before parking on the condition
   variable. The spin window matters: engine batches arrive
   sub-millisecond apart during a parallel phase, and a worker that parks
   between every batch pays a futex wake that can dwarf a ~100 µs compute.
   The submitter spins until the batch's remaining-task counter hits zero,
   which doubles as the release/acquire edge making the tasks' writes
   visible to the simulation thread.

   The claim index, the remaining count and the failure slot live in the
   batch record, not in the pool: a worker that read batch k's record late
   can only ever claim indices of batch k, which are all taken by then.

   Spawning the first worker also raises the minor-heap floor: with > 1
   domain alive every minor collection is a stop-the-world rendezvous
   across all of them, and the default ~256k-word minor heap makes an
   allocation-heavy simulation pay thousands of such barriers per second
   (measured ~3x on the sequential phases). A few-MB minor heap buys the
   barriers back without touching virtual time. *)

type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t; (* next unclaimed task index *)
  remaining : int Atomic.t; (* tasks not yet finished *)
  failure : exn option Atomic.t; (* first task exception *)
}

type t = {
  workers : int Atomic.t; (* spawned worker domains; grown between batches *)
  batch : batch Atomic.t; (* the current (or last) batch *)
  epoch : int Atomic.t; (* bumped per batch; workers spin then park on it *)
  lock : Mutex.t;
  cond : Condition.t;
}

(* ~10^5 cpu_relax hints ≈ a few hundred µs: long enough to stay awake
   between consecutive engine batches, short enough to park promptly when
   a parallel phase ends. Spinning only pays when every worker can have
   its own CPU; on an oversubscribed host a spinning worker steals the
   timeslice from the domain doing real work, so park immediately. *)
let spin_budget n_workers =
  if Domain.recommended_domain_count () > n_workers then 100_000 else 0

let min_minor_heap_words = 2 * 1024 * 1024

let idle =
  {
    tasks = [||];
    next = Atomic.make 0;
    remaining = Atomic.make 0;
    failure = Atomic.make None;
  }

let global =
  {
    workers = Atomic.make 0;
    batch = Atomic.make idle;
    epoch = Atomic.make 0;
    lock = Mutex.create ();
    cond = Condition.create ();
  }

(* Claim and run tasks of [b] until its index passes the end. *)
let rec drain b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < Array.length b.tasks then begin
    (try b.tasks.(i) ()
     with e -> ignore (Atomic.compare_and_set b.failure None (Some e)));
    ignore (Atomic.fetch_and_add b.remaining (-1));
    drain b
  end

let rec worker_loop t last_epoch =
  (* Spin on the epoch first; park only if no batch arrives in time. *)
  let budget = spin_budget (Atomic.get t.workers) in
  let spins = ref 0 in
  while Atomic.get t.epoch = last_epoch && !spins < budget do
    Domain.cpu_relax ();
    incr spins
  done;
  if Atomic.get t.epoch = last_epoch then begin
    Mutex.lock t.lock;
    while Atomic.get t.epoch = last_epoch do
      Condition.wait t.cond t.lock
    done;
    Mutex.unlock t.lock
  end;
  let epoch = Atomic.get t.epoch in
  drain (Atomic.get t.batch);
  worker_loop t epoch

let ensure_workers t n =
  let have = Atomic.get t.workers in
  if n > have then begin
    let gc = Gc.get () in
    if gc.Gc.minor_heap_size < min_minor_heap_words then
      Gc.set { gc with Gc.minor_heap_size = min_minor_heap_words };
    Atomic.set t.workers n;
    let epoch = Atomic.get t.epoch in
    for _ = have + 1 to n do
      ignore (Domain.spawn (fun () -> worker_loop t epoch))
    done
  end

let run t tasks =
  let n = Array.length tasks in
  if n > 0 then begin
    let b =
      {
        tasks;
        next = Atomic.make 0;
        remaining = Atomic.make n;
        failure = Atomic.make None;
      }
    in
    (* With no workers — or no CPU for them to run on — the caller drains
       the batch alone: on a single-CPU host every wake is a futile
       context switch, and the batch semantics hold either way. *)
    if Atomic.get t.workers > 0 && Domain.recommended_domain_count () > 1
    then begin
      Atomic.set t.batch b;
      Atomic.incr t.epoch;
      Mutex.lock t.lock;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock
    end;
    drain b;
    while Atomic.get b.remaining > 0 do
      Domain.cpu_relax ()
    done;
    match Atomic.get b.failure with Some e -> raise e | None -> ()
  end
