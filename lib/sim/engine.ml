(* The event heap holds two kinds of payload:

   - [Fn f]: an ordinary callback, the historical API. Fires on the
     simulation thread when the clock reaches it.

   - [Par p]: a parallelizable event, split into a pure [compute] (a
     function only of values captured at scheduling time — it must not
     read or write simulation state) and the [commit] closure it returns,
     which applies the result to simulation state. Computes may run on any
     domain and in any order; commits fire on the simulation thread in
     canonical (time, seq) heap order, so the virtual-time trace is
     bit-identical whatever [set_domains] says.

   When the engine pops a Par whose compute has not run and more than one
   domain is configured, it sweeps the heap for every other pending Par
   still awaiting its compute (conservative lookahead: those events are
   already scheduled, and computes are pure over schedule-time captures,
   so running them early cannot change their results), and runs them
   across the domain pool behind a barrier, one pool task per compute.

   Cancellation is a tombstone bit carried in the heap payload: the
   [event_id] handed back by [schedule_at] *is* the payload record, so
   [cancel] is an O(1) field write and the pop path tests one mutable
   field instead of probing a hash table. Dead entries are discarded
   lazily when they surface at the heap top. *)

type kind = Fn of (unit -> unit) | Par of par_state Atomic.t

(* One atomic cell per Par, not two mutable fields: the compute→commit
   transition is written by whichever pool domain ran the compute and read
   by the simulation thread at fire time, and a single location can never
   expose the torn "compute cleared, commit not yet stored" state (vrace
   R102 flags the mutable-field version). *)
and par_state =
  | Pending of (unit -> unit -> unit)  (** compute not yet run *)
  | Ready of (unit -> unit)  (** commit awaiting its (time, seq) slot *)
  | Done

and ev = { kind : kind; mutable dead : bool; mutable fired : bool }

type event_id = ev

type t = {
  mutable clock : int64;
  heap : ev Heap.t;
  mutable next_seq : int;
  mutable live : int;
  mutable domains : int;
  mutable events_fired : int;
  mutable par_batches : int;
  mutable par_computed : int;
}

let create () =
  {
    clock = 0L;
    heap = Heap.create ();
    next_seq = 0;
    live = 0;
    domains = 1;
    events_fired = 0;
    par_batches = 0;
    par_computed = 0;
  }

let now t = t.clock

let set_domains t n =
  let n = max 1 n in
  t.domains <- n;
  if n > 1 then Dpool.ensure_workers Dpool.global (n - 1)

let push t time ev =
  if Int64.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap ~time ~seq ev;
  t.live <- t.live + 1;
  ev

let schedule_at t time f = push t time { kind = Fn f; dead = false; fired = false }

let schedule_after t delta f = schedule_at t (Int64.add t.clock delta) f

let schedule_par t time compute =
  push t time
    { kind = Par (Atomic.make (Pending compute)); dead = false; fired = false }

let cancel t ev =
  if not (ev.fired || ev.dead) then begin
    ev.dead <- true;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Discard tombstoned events at the heap top; true when a live event
   is left there. A live top is only inspected, never reinserted, so
   [run]'s check-then-fire cycle costs one heap pop per fired event,
   and the fire path builds no option or tuple. *)
let rec skip_dead t =
  (not (Heap.is_empty t.heap))
  && ((not (Heap.top t.heap).dead) || (Heap.drop t.heap; skip_dead t))

(* Run every pending compute across the domain pool, one task each.
   [first] is the Par that just surfaced at the heap top (already popped,
   so the sweep below no longer sees it). *)
let precompute_batch t first =
  let task p =
    (fun () ->
      match Atomic.get p with
      | Pending compute -> Atomic.set p (Ready (compute ()))
      | Ready _ | Done -> ())
    [@vrace.worker]
  in
  let tasks = ref [ task first ] in
  Heap.iter t.heap (fun _ _ ev ->
      if not ev.dead then
        match ev.kind with
        | Par p when (match Atomic.get p with
                     | Pending _ -> true
                     | Ready _ | Done -> false) ->
            tasks := task p :: !tasks
        | Par _ | Fn _ -> ());
  let tasks = Array.of_list !tasks in
  t.par_batches <- t.par_batches + 1;
  t.par_computed <- t.par_computed + Array.length tasks;
  Dpool.run Dpool.global tasks

let fire t ev =
  t.events_fired <- t.events_fired + 1;
  match ev.kind with
  | Fn f -> f ()
  | Par p -> (
      (match Atomic.get p with
      | Pending compute ->
          if t.domains > 1 then precompute_batch t p
          else Atomic.set p (Ready (compute ()))
      | Ready _ | Done -> ());
      match Atomic.get p with
      | Ready commit ->
          Atomic.set p Done;
          commit ()
      | Pending _ | Done -> invalid_arg "Engine: parallel event fired twice")

(* Fire the event at the heap top, which [skip_dead] found live. *)
let fire_top t =
  let time = Heap.top_time t.heap and ev = Heap.top t.heap in
  Heap.drop t.heap;
  ev.fired <- true;
  t.live <- t.live - 1;
  t.clock <- time;
  fire t ev

let step t =
  skip_dead t
  && begin
       fire_top t;
       true
     end

let run t ?until () =
  let continue = ref true in
  while !continue do
    if not (skip_dead t) then continue := false
    else
      match until with
      | Some limit when Int64.compare (Heap.top_time t.heap) limit > 0 ->
          t.clock <- limit;
          continue := false
      | Some _ | None -> fire_top t
  done;
  match until with
  | Some limit when Int64.compare t.clock limit < 0 -> t.clock <- limit
  | Some _ | None -> ()

let advance_to t time =
  if Int64.compare time t.clock < 0 then
    invalid_arg "Engine.advance_to: time is in the past";
  if skip_dead t && Int64.compare (Heap.top_time t.heap) time < 0 then
    invalid_arg "Engine.advance_to: would skip a pending event";
  t.clock <- time

let events_fired t = t.events_fired

let par_stats t = (t.par_batches, t.par_computed)

let us x = Int64.mul (Int64.of_int x) 1_000L
let ms x = Int64.mul (Int64.of_int x) 1_000_000L
let sec x = Int64.mul (Int64.of_int x) 1_000_000_000L
let to_us t = Int64.to_float t /. 1e3
let to_ms t = Int64.to_float t /. 1e6
let to_sec t = Int64.to_float t /. 1e9
