(** Tests for the discrete-event substrate: heap, engine, rng, stats. *)

open Tharness

(* ---- heap ---- *)

(* Read and remove the minimum, as the engine's fire path does. *)
let take h =
  let v = Sim.Heap.top h in
  Sim.Heap.drop h;
  v

let heap_pop_order () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:30L ~seq:0 "c";
  Sim.Heap.push h ~time:10L ~seq:1 "a";
  Sim.Heap.push h ~time:20L ~seq:2 "b";
  let pop () = if Sim.Heap.is_empty h then "!" else take h in
  check_string "first" "a" (pop ());
  check_string "second" "b" (pop ());
  check_string "third" "c" (pop ());
  check_bool "empty" true (Sim.Heap.is_empty h)

let heap_fifo_at_same_time () =
  let h = Sim.Heap.create () in
  for i = 0 to 9 do
    Sim.Heap.push h ~time:5L ~seq:i i
  done;
  for i = 0 to 9 do
    if Sim.Heap.is_empty h then Alcotest.fail "heap empty early"
    else check_int (Printf.sprintf "fifo %d" i) i (take h)
  done

let heap_peek_non_destructive () =
  let h = Sim.Heap.create () in
  check_bool "empty peek" true (Sim.Heap.is_empty h);
  Alcotest.check_raises "top of an empty heap"
    (Invalid_argument "Heap.top: empty heap") (fun () ->
      ignore (Sim.Heap.top h));
  Sim.Heap.push h ~time:30L ~seq:0 "c";
  Sim.Heap.push h ~time:10L ~seq:1 "a";
  check_string "peek sees min" "a" (Sim.Heap.top h);
  check_bool "peek time" true (Sim.Heap.top_time h = 10L);
  check_int "peek does not remove" 2 (Sim.Heap.size h);
  check_string "pop agrees with peek" "a" (take h);
  check_int "pop removes" 1 (Sim.Heap.size h)

let heap_sorted_prop =
  qcheck "heap pops in nondecreasing time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri
        (fun i t -> Sim.Heap.push h ~time:(Int64.of_int t) ~seq:i t)
        times;
      let rec drain prev =
        if Sim.Heap.is_empty h then true
        else begin
          let t = Sim.Heap.top_time h in
          Sim.Heap.drop h;
          Int64.compare prev t <= 0 && drain t
        end
      in
      drain Int64.min_int)

let heap_size_tracks =
  qcheck "heap size equals pushes minus pops"
    QCheck.(pair (int_bound 200) (int_bound 200))
    (fun (pushes, pops) ->
      let h = Sim.Heap.create () in
      for i = 1 to pushes do
        Sim.Heap.push h ~time:(Int64.of_int i) ~seq:i i
      done;
      for _ = 1 to pops do
        if not (Sim.Heap.is_empty h) then Sim.Heap.drop h
      done;
      Sim.Heap.size h = max 0 (pushes - pops))

(* ---- engine ---- *)

let engine_fires_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule_at e 100L (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.schedule_at e 50L (fun () -> log := "a" :: !log));
  ignore (Sim.Engine.schedule_at e 150L (fun () -> log := "c" :: !log));
  Sim.Engine.run e ();
  check_string "order" "a,b,c" (String.concat "," (List.rev !log));
  check_bool "clock at last event" true (Sim.Engine.now e = 150L)

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule_at e 10L (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Sim.Engine.run e ();
  check_bool "cancelled event did not fire" false !fired;
  check_int "pending is zero" 0 (Sim.Engine.pending e)

let engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule_at e (Int64.of_int (i * 100)) (fun () -> incr count))
  done;
  Sim.Engine.run e ~until:550L ();
  check_int "five fired" 5 !count;
  check_bool "clock clamped" true (Sim.Engine.now e = 550L);
  Sim.Engine.run e ();
  check_int "rest fired" 10 !count

let engine_no_past_scheduling () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e 100L (fun () -> ()));
  Sim.Engine.run e ();
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Sim.Engine.schedule_at e 50L (fun () -> ())))

let engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule_at e 10L (fun () ->
         log := 10 :: !log;
         ignore (Sim.Engine.schedule_after e 5L (fun () -> log := 15 :: !log))));
  Sim.Engine.run e ();
  check_string "nested order" "10,15"
    (String.concat "," (List.map string_of_int (List.rev !log)))

let engine_advance_guard () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e 100L (fun () -> ()));
  Alcotest.check_raises "advance cannot skip events"
    (Invalid_argument "Engine.advance_to: would skip a pending event")
    (fun () -> Sim.Engine.advance_to e 200L);
  Sim.Engine.advance_to e 50L;
  check_bool "partial advance ok" true (Sim.Engine.now e = 50L)

let engine_time_units () =
  check_bool "us" true (Sim.Engine.us 3 = 3_000L);
  check_bool "ms" true (Sim.Engine.ms 3 = 3_000_000L);
  check_bool "sec" true (Sim.Engine.sec 3 = 3_000_000_000L);
  check_close "to_us" 1.5 (Sim.Engine.to_us 1_500L);
  check_close "to_sec" 2.5 (Sim.Engine.to_sec 2_500_000_000L)

(* ---- rng ---- *)

let rng_deterministic () =
  let a = Sim.Rng.create 99L and b = Sim.Rng.create 99L in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.next a = Sim.Rng.next b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 99L in
  let c = Sim.Rng.split a in
  check_bool "split differs from parent" true (Sim.Rng.next a <> Sim.Rng.next c)

let rng_int_bounds =
  qcheck "Rng.int stays in bounds"
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let rng_float_distribution () =
  let rng = Sim.Rng.create 5L in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float rng 1.0
  done;
  check_in_range "uniform mean" 0.47 0.53 (!sum /. float_of_int n)

let suite =
  ( "sim",
    [
      quick "heap pop order" heap_pop_order;
      quick "heap fifo ties" heap_fifo_at_same_time;
      quick "heap peek non-destructive" heap_peek_non_destructive;
      heap_sorted_prop;
      heap_size_tracks;
      quick "engine fires in order" engine_fires_in_order;
      quick "engine cancel" engine_cancel;
      quick "engine run until" engine_run_until;
      quick "engine rejects past" engine_no_past_scheduling;
      quick "engine nested scheduling" engine_nested_scheduling;
      quick "engine advance guard" engine_advance_guard;
      quick "engine time units" engine_time_units;
      quick "rng deterministic" rng_deterministic;
      quick "rng split" rng_split_independent;
      rng_int_bounds;
      quick "rng uniform mean" rng_float_distribution;
    ] )
