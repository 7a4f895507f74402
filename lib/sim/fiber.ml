(* Effect-based coroutines over the engine.

   A fiber is ordinary OCaml code run under a deep effect handler; where
   it used to be a chain of one-shot heap closures rescheduling
   themselves, it is now straight-line code that performs [Sleep] /
   [Yield] / [Await] and is suspended into a single-shot continuation.
   Every suspension maps to exactly one engine event with the same delay
   the closure chain would have used, so converting a service loop to a
   fiber does not perturb (time, seq) allocation — traces stay
   byte-identical.

   Cancellation is cooperative: [cancel] tombstones the suspension's
   engine event when the fiber is parked, or lets the fiber die with
   [Cancelled] at its next resume point when it is awaiting an ivar. A
   continuation dropped by cancellation is never discontinued (its
   resources are reclaimed by the GC along with the handle). *)

type _ Effect.t +=
  | Yield : unit Effect.t
  | Sleep : int64 -> unit Effect.t

exception Cancelled

type handle = {
  mutable pending : Engine.event_id option; (* parked suspension's event *)
  mutable cancelled : bool;
  mutable finished : bool;
}

module Ivar = struct
  type 'a state = Empty of ('a -> unit) list (* waiters, newest first *) | Full of 'a

  type 'a t = { engine : Engine.t; mutable state : 'a state }

  let create engine = { engine; state = Empty [] }

  let peek iv = match iv.state with Full v -> Some v | Empty _ -> None

  let is_full iv = peek iv <> None

  (* Waiters wake through zero-delay engine events in FIFO order, so a
     fill interleaves with other same-instant events deterministically. *)
  let fill iv v =
    match iv.state with
    | Full _ -> invalid_arg "Fiber.Ivar.fill: already filled"
    | Empty waiters ->
        iv.state <- Full v;
        List.iter
          (fun resume ->
            ignore (Engine.schedule_after iv.engine 0L (fun () -> resume v)))
          (List.rev waiters)

  let add_waiter iv resume =
    match iv.state with
    | Full _ -> invalid_arg "Fiber.Ivar.add_waiter: already filled"
    | Empty waiters -> iv.state <- Empty (resume :: waiters)
end

type _ Effect.t += Await : 'a Ivar.t -> 'a Effect.t

let yield () = Effect.perform Yield
let sleep delta = Effect.perform (Sleep delta)
let await iv = Effect.perform (Await iv)

open Effect.Deep

let make_handle () = { pending = None; cancelled = false; finished = false }

let rec exec engine h body =
  match_with body ()
    {
      retc = (fun () -> h.finished <- true);
      exnc =
        (fun e ->
          h.finished <- true;
          match e with Cancelled -> () | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some (fun (k : (a, unit) continuation) -> park engine h 0L k)
          | Sleep delta ->
              Some (fun (k : (a, unit) continuation) -> park engine h delta k)
          | Await iv ->
              Some
                (fun (k : (a, unit) continuation) ->
                  match Ivar.peek iv with
                  | Some v -> continue k v
                  | None ->
                      Ivar.add_waiter iv (fun v ->
                          if h.cancelled then discontinue k Cancelled
                          else continue k v))
          | _ -> None);
    }

and park : Engine.t -> handle -> int64 -> (unit, unit) continuation -> unit =
 fun engine h delta k ->
  h.pending <-
    Some
      (Engine.schedule_after engine delta (fun () ->
           h.pending <- None;
           if h.cancelled then discontinue k Cancelled else continue k ()))

and spawn ?(after = 0L) engine body =
  let h = make_handle () in
  h.pending <-
    Some
      (Engine.schedule_after engine after (fun () ->
           h.pending <- None;
           if not h.cancelled then exec engine h body));
  h

let run engine body =
  let h = make_handle () in
  exec engine h body;
  h

let spawn engine ?after body =
  match after with
  | Some after -> spawn ~after engine body
  | None -> spawn engine body

let cancel engine h =
  if not (h.finished || h.cancelled) then begin
    h.cancelled <- true;
    match h.pending with
    | Some id ->
        (* Parked: kill the wakeup event and drop the continuation. *)
        Engine.cancel engine id;
        h.pending <- None;
        h.finished <- true
    | None ->
        (* Running, or awaiting an ivar: dies at its next resume point. *)
        ()
  end

let finished h = h.finished
