(** Tests for the host-parallel engine stack: tombstone cancellation,
    the (time, seq) firing contract under arbitrary interleavings,
    parallel events ([schedule_par] / the [Usys.offload] syscall), and
    the headline property — the virtual trace of a full kernel workload
    is byte-identical whatever [sim_domains] says. *)

open Tharness

(* ---- cancel: the miscount regression ----

   The seed engine kept cancelled ids in a hashtable and decremented the
   pending count unconditionally, so cancelling a fired (or already
   cancelled) id skewed [pending] negative. The tombstone engine only
   drops the count when a live event is actually killed. *)

let cancel_fired_id_is_noop () =
  let e = Sim.Engine.create () in
  let id = Sim.Engine.schedule_at e 10L (fun () -> ()) in
  ignore (Sim.Engine.schedule_at e 20L (fun () -> ()));
  check_int "two pending" 2 (Sim.Engine.pending e);
  ignore (Sim.Engine.step e);
  check_int "one left after fire" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e id;
  check_int "cancelling a fired id changes nothing" 1 (Sim.Engine.pending e);
  Sim.Engine.run e ();
  check_int "drained" 0 (Sim.Engine.pending e);
  Sim.Engine.cancel e id;
  check_int "still zero" 0 (Sim.Engine.pending e)

let cancel_twice_counts_once () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let a = Sim.Engine.schedule_at e 10L (fun () -> incr fired) in
  ignore (Sim.Engine.schedule_at e 20L (fun () -> incr fired));
  ignore (Sim.Engine.schedule_at e 30L (fun () -> incr fired));
  Sim.Engine.cancel e a;
  check_int "one cancelled" 2 (Sim.Engine.pending e);
  Sim.Engine.cancel e a;
  Sim.Engine.cancel e a;
  check_int "double cancel counts once" 2 (Sim.Engine.pending e);
  Sim.Engine.run e ();
  check_int "survivors fired" 2 !fired;
  check_int "empty" 0 (Sim.Engine.pending e)

(* ---- the firing contract, property-tested ----

   Any interleaving of schedule_at / schedule_par / cancel / step must
   fire exactly the non-cancelled events, in (time, seq) order, with
   [pending] correct at every phase boundary. Run at 1 domain and at 4:
   the parallel batching path must not change observable order. *)

let firing_contract domains =
  qcheck ~count:60
    (Printf.sprintf "fires in (time,seq) order, %d domain%s" domains
       (if domains > 1 then "s" else ""))
    QCheck.(
      pair
        (list_of_size
           (Gen.int_range 1 30)
           (triple (int_bound 100) bool bool))
        (list_of_size
           (Gen.int_range 0 30)
           (triple (int_bound 100) bool bool)))
    (fun (batch1, batch2) ->
      let e = Sim.Engine.create () in
      Sim.Engine.set_domains e domains;
      let log = ref [] in
      let seq = ref 0 in
      let model = ref [] in
      (* (time, seq, cancelled) *)
      let ids = ref [] in
      let add_batch batch =
        List.iter
          (fun (off, par, cancelled) ->
            let time = Int64.add (Sim.Engine.now e) (Int64.of_int off) in
            let s = !seq in
            incr seq;
            let id =
              if par then
                Sim.Engine.schedule_par e time (fun () ->
                    let v = s in
                    fun () -> log := v :: !log)
              else Sim.Engine.schedule_at e time (fun () -> log := s :: !log)
            in
            if cancelled then Sim.Engine.cancel e id;
            ids := id :: !ids;
            model := (time, s, cancelled) :: !model)
          batch
      in
      let live () =
        List.length (List.filter (fun (_, _, c) -> not c) !model)
      in
      add_batch batch1;
      let ok1 = Sim.Engine.pending e = live () in
      (* interleave: fire half of what is pending, then schedule more *)
      let steps = Sim.Engine.pending e / 2 in
      for _ = 1 to steps do
        ignore (Sim.Engine.step e)
      done;
      let ok2 = Sim.Engine.pending e = live () - steps in
      add_batch batch2;
      (* re-cancelling everything already cancelled or fired must not
         move the count *)
      let before = Sim.Engine.pending e in
      List.iter
        (fun ((_, s, c), id) ->
          if c || List.mem s !log then Sim.Engine.cancel e id)
        (List.combine (List.rev !model) (List.rev !ids));
      let ok3 = Sim.Engine.pending e = before in
      Sim.Engine.run e ();
      let expected =
        !model
        |> List.filter (fun (_, _, c) -> not c)
        |> List.sort (fun (t1, s1, _) (t2, s2, _) ->
               match Int64.compare t1 t2 with 0 -> compare s1 s2 | c -> c)
        |> List.map (fun (_, s, _) -> s)
      in
      ok1 && ok2 && ok3
      && List.rev !log = expected
      && Sim.Engine.pending e = 0)

(* ---- parallel events ---- *)

let par_commit_order_and_stats () =
  let e = Sim.Engine.create () in
  Sim.Engine.set_domains e 4;
  let log = ref [] in
  for i = 0 to 7 do
    ignore
      (Sim.Engine.schedule_par e
         (Int64.of_int (100 + (10 * i)))
         (fun () ->
           let v = i * i in
           fun () -> log := v :: !log))
  done;
  Sim.Engine.run e ();
  check_bool "commits in schedule order" true
    (List.rev !log = [ 0; 1; 4; 9; 16; 25; 36; 49 ]);
  let batches, computes = Sim.Engine.par_stats e in
  check_int "one conservative-lookahead batch" 1 batches;
  check_int "all computes in it" 8 computes

let par_sequential_inline () =
  let e = Sim.Engine.create () in
  let cell = ref 0 in
  ignore
    (Sim.Engine.schedule_par e 50L (fun () ->
         let v = 42 in
         fun () -> cell := v));
  Sim.Engine.run e ();
  check_int "compute ran inline at fire" 42 !cell;
  let batches, _ = Sim.Engine.par_stats e in
  check_int "no batch at one domain" 0 batches

let par_cancelled_never_computes () =
  let e = Sim.Engine.create () in
  Sim.Engine.set_domains e 2;
  let computed = ref false in
  (* a live Par to trigger the batch sweep... *)
  ignore
    (Sim.Engine.schedule_par e 10L (fun () -> fun () -> ()));
  (* ...and a cancelled one the sweep must skip *)
  let id =
    Sim.Engine.schedule_par e 20L (fun () ->
        computed := true;
        fun () -> ())
  in
  Sim.Engine.cancel e id;
  Sim.Engine.run e ();
  check_bool "tombstoned compute never ran" false !computed

let offload_returns_value () =
  let r =
    in_kernel (fun _ ->
        User.Usys.offload 10_000 (fun () -> List.init 5 (fun i -> i * i)))
  in
  check_bool "offloaded compute's value reaches the thread" true
    (r = [ 0; 1; 4; 9; 16 ])

let offload_charges_virtual_time () =
  let (), t1 = in_kernel_timed (fun _ -> User.Usys.burn 500_000) in
  let (), t2 =
    in_kernel_timed (fun _ -> ignore (User.Usys.offload 500_000 (fun () -> 0)))
  in
  (* offload bills the same cycle cost as a burn of equal length *)
  check_bool "offload and burn cost the same virtual time" true (t1 = t2)

(* ---- the domain pool under real contention ----

   The vrace-adjacent dynamic check: drive Dpool.run with as many workers
   as the host recommends and prove no task is lost or executed twice,
   within a batch and across back-to-back batches (a worker that reads a
   batch late must not claim anything of the next one), and that a task's
   exception neither stops its batch nor leaks into the next. The static
   analyzer shows the types are domain-safe; this shows the implementation
   is. *)

let contention_domains =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

let pool () =
  Sim.Dpool.ensure_workers Sim.Dpool.global contention_domains;
  Sim.Dpool.global

let counters n = Array.init n (fun _ -> Atomic.make 0)
let each_once = Array.for_all (fun c -> Atomic.get c = 1)
let incr_tasks = Array.map (fun c () -> Atomic.incr c)

let dpool_runs_each_task_exactly_once () =
  qcheck ~count:15 "dpool batch runs every task exactly once"
    QCheck.(int_range 1 300)
    (fun n ->
      let hits = counters n in
      Sim.Dpool.run (pool ()) (incr_tasks hits);
      each_once hits)

(* Many small batches back to back, so a worker still draining batch k
   often overlaps the publication of batch k+1. A doubled task fails the
   count; a lost one leaves [run] waiting forever. *)
let dpool_back_to_back_batches () =
  qcheck ~count:15 "back-to-back dpool batches run every task once"
    QCheck.(list_of_size (Gen.int_range 1 1000) (int_range 1 4))
    (fun sizes ->
      let batches = List.map counters sizes in
      List.iter (fun hits -> Sim.Dpool.run (pool ()) (incr_tasks hits)) batches;
      List.for_all each_once batches)

exception Task_failed of int

let dpool_reraises_after_batch () =
  qcheck ~count:15 "a raising dpool task is re-raised after its batch"
    QCheck.(pair (int_range 1 100) small_nat)
    (fun (n, k) ->
      let bad = k mod n in
      let hits = counters n in
      let raised =
        match
          Sim.Dpool.run (pool ())
            (Array.mapi
               (fun i c () ->
                 Atomic.incr c;
                 if i = bad then raise (Task_failed i))
               hits)
        with
        | () -> None
        | exception Task_failed i -> Some i
      in
      let ran_all = each_once hits in
      let next = counters n in
      Sim.Dpool.run (pool ()) (incr_tasks next);
      raised = Some bad && ran_all && each_once next)

(* ---- the determinism ladder ----

   Boot the same miner workload at sim_domains ∈ {1, 2, 4}; the merged
   ktrace machine dumps must be byte-identical — parallel batching may
   only change wall-clock time, never virtual history. *)

let trace_md5 stage =
  let sched = stage.Proto.Stage.kernel.Core.Kernel.sched in
  let b = Buffer.create 65536 in
  Core.Ktrace.add_machine_dump b (Core.Ktrace.dump sched.Core.Sched.trace);
  Digest.to_hex (Digest.string (Buffer.contents b))

let miner_trace ~domains =
  let stage =
    Proto.Stage.boot ~prototype:5
      ~config_tweak:(fun c -> { c with Core.Kconfig.sim_domains = domains })
      ()
  in
  ignore
    (Proto.Stage.start stage "blockchain" [ "blockchain"; "4"; "34"; "99" ]);
  Proto.Stage.run_for stage (Sim.Engine.ms 400);
  trace_md5 stage

let determinism_across_domains () =
  let d1 = miner_trace ~domains:1 in
  let d2 = miner_trace ~domains:2 in
  let d4 = miner_trace ~domains:4 in
  check_string "2 domains replay the sequential trace" d1 d2;
  check_string "4 domains replay the sequential trace" d1 d4

let suite =
  ( "par",
    [
      quick "cancel of fired id is a no-op" cancel_fired_id_is_noop;
      quick "double cancel counts once" cancel_twice_counts_once;
      firing_contract 1;
      firing_contract 4;
      quick "par commits in order across domains" par_commit_order_and_stats;
      quick "par computes inline at one domain" par_sequential_inline;
      quick "cancelled par never computes" par_cancelled_never_computes;
      quick "offload returns the computed value" offload_returns_value;
      quick "offload charges burn-equivalent time" offload_charges_virtual_time;
      dpool_runs_each_task_exactly_once ();
      dpool_back_to_back_batches ();
      dpool_reraises_after_batch ();
      slow "same seed, same trace at 1/2/4 domains" determinism_across_domains;
    ] )
