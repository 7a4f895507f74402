(** The user-layer interposer: an effect handler wrapped around each
    program's [prog_main], inside the scheduler's own handler.

    User code (lib/user codecs and lib/apps) runs in a fiber and enters
    the kernel only by performing {!Core.Abi} effects, so the host time
    between two effects of one task is user time. The handler stops the
    clock when the task performs an effect, re-performs the effect to
    the scheduler's handler, and restarts the clock when it resumes the
    task. [Clone]/[Fork] bodies are wrapped the same way, so threads
    are covered, and [Offload] closures are wrapped to time the pool
    computes on whichever domain runs them.

    The interposer changes no effect and no argument the scheduler sees
    (a wrapped closure computes the same value), so virtual time is
    unchanged; the benchmark checks this by comparing the traced and
    untraced digests. Only the simulation thread runs user segments, so
    the segment clock is a plain global; offload counters are atomics. *)

open Core

let user_s = ref 0.
let traps = ref 0
let syscalls : (string, int ref) Hashtbl.t = Hashtbl.create 32
let offload_ns = Atomic.make 0
let offload_n = Atomic.make 0

(** Zero the accumulators: the timed phase starts. *)
let reset () =
  user_s := 0.;
  traps := 0;
  Hashtbl.reset syscalls;
  Atomic.set offload_ns 0;
  Atomic.set offload_n 0

(** The span id of the frame window being simulated; user segments are
    its children. *)
let window = ref 0

let seg_t0 = ref 0.

let seg_begin () = seg_t0 := Span.now ()

(* Close the running segment; returns its span id so an offload issued
   at this point can name the segment as its parent. *)
let seg_end () =
  let t1 = Span.now () in
  user_s := !user_s +. (t1 -. !seg_t0);
  let id = if Span.enabled () then Span.fresh_id () else 0 in
  Span.add ~fine:true ~id ~parent:!window "user" !seg_t0 t1;
  id

(* A segment ended by an effect: the task trapped into the kernel. *)
let trap () =
  incr traps;
  seg_end ()

let count_syscall call =
  let name = Abi.syscall_name call in
  match Hashtbl.find_opt syscalls name with
  | Some n -> incr n
  | None -> Hashtbl.replace syscalls name (ref 1)

let timed_compute ~parent fn () =
  let t0 = Span.now () in
  let finish () =
    let t1 = Span.now () in
    let ns = int_of_float ((t1 -. t0) *. 1e9) in
    let dom = (Domain.self () :> int) in
    ignore (Atomic.fetch_and_add offload_ns ns);
    ignore (Atomic.fetch_and_add offload_n 1);
    Span.add ~fine:true ~track:dom ~id:(Span.fresh_id ()) ~parent "offload" t0 t1
  in
  match fn () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let rec run body =
  let open Effect.Deep in
  seg_begin ();
  match_with body ()
    {
      retc =
        (fun code ->
          ignore (seg_end ());
          code);
      exnc =
        (fun e ->
          ignore (seg_end ());
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Abi.Sys call ->
              Some
                (fun (k : (a, int) continuation) ->
                  ignore (trap ());
                  count_syscall call;
                  let call =
                    match call with
                    | Abi.Clone child -> Abi.Clone (fun () -> run child)
                    | Abi.Fork child -> Abi.Fork (fun () -> run child)
                    | c -> c
                  in
                  let r = Effect.perform (Abi.Sys call) in
                  seg_begin ();
                  continue k r)
          | Abi.Burn cycles ->
              Some
                (fun (k : (a, int) continuation) ->
                  ignore (trap ());
                  Effect.perform (Abi.Burn cycles);
                  seg_begin ();
                  continue k ())
          | Abi.Offload (cycles, fn) ->
              Some
                (fun (k : (a, int) continuation) ->
                  let parent = trap () in
                  let r =
                    Effect.perform
                      (Abi.Offload (cycles, timed_compute ~parent fn))
                  in
                  seg_begin ();
                  continue k r)
          | Abi.Frame_mark label ->
              Some
                (fun (k : (a, int) continuation) ->
                  ignore (trap ());
                  Effect.perform (Abi.Frame_mark label);
                  seg_begin ();
                  continue k ())
          | _ -> None);
    }

(** [wrap main] is [main] with every run of it interposed. *)
let wrap main argv = run (fun () -> main argv)
