(* Effect-based coroutines over the engine.

   A fiber is ordinary OCaml code run under a deep effect handler; where
   it used to be a chain of one-shot heap closures rescheduling
   themselves, it is now straight-line code that performs [Sleep] and is
   suspended into a single-shot continuation. Every suspension maps to exactly one engine event with the same delay
   the closure chain would have used, so converting a service loop to a
   fiber does not perturb (time, seq) allocation — traces stay
   byte-identical.

   Cancellation is cooperative: [cancel] tombstones the suspension's
   engine event when the fiber is parked, or lets the fiber die with
   [Cancelled] at its next resume point when it is running. A
   continuation dropped by cancellation is never discontinued (its
   resources are reclaimed by the GC along with the handle). *)

type _ Effect.t += Sleep : int64 -> unit Effect.t

exception Cancelled

type handle = {
  mutable pending : Engine.event_id option; (* parked suspension's event *)
  mutable cancelled : bool;
  mutable finished : bool;
}

let sleep delta = Effect.perform (Sleep delta)

open Effect.Deep

let make_handle () = { pending = None; cancelled = false; finished = false }

let park engine h delta k =
  h.pending <-
    Some
      (Engine.schedule_after engine delta (fun () ->
           h.pending <- None;
           if h.cancelled then discontinue k Cancelled else continue k ()))

let exec engine h body =
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
          | Sleep delta ->
              Some (fun (k : (a, unit) continuation) -> park engine h delta k)
          | _ -> None);
    }

let spawn engine ?(after = 0L) body =
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
        (* Running: dies at its next resume point. *)
        ()
  end

let finished h = h.finished
