(** Trace-event classification for the bench miners.

    The miners (latency, measure, schedbench, tracebench) walk the Ktrace
    ring looking for a handful of event kinds. Matching with a wildcard
    at each site would hide new event variants from audit (vlint R004),
    so {!kind} maps every [Ktrace.event] to a small bench-side variant in
    one match that spells each constructor out — adding a constructor
    fails this file's build until it is classified below. The miners
    then match on {!kind} freely: its constructor names are not
    [Ktrace.event]'s, so R004 does not treat those matches as matches
    over trace events. *)

open Core.Ktrace

type kind =
  | Sys_in of int  (** syscall entry, pid *)
  | Sys_out of int  (** syscall exit, pid *)
  | Woken of int  (** pid made runnable *)
  | Switch of int * int  (** context switch, from pid, to pid *)
  | Keypress  (** USB report arrived in the driver *)
  | Delivered of int  (** pid that read the input event *)
  | Frame of int  (** pid that pushed a frame *)
  | Other

let kind = function
  | Syscall_enter (pid, _) -> Sys_in pid
  | Syscall_exit (pid, _) -> Sys_out pid
  | Sched_wakeup pid -> Woken pid
  | Ctx_switch (from_pid, to_pid) -> Switch (from_pid, to_pid)
  | Kbd_report -> Keypress
  | Event_delivered pid -> Delivered pid
  | Frame_present pid -> Frame pid
  | Irq_enter _ | Irq_exit _ | Sched_migrate _ | Ipi_send _ | Ipi_recv _
  | Poll_return _ | Wm_composite | Lock_acquire _ | Lock_release _
  | Sem_block _ | Sem_wake _ | Custom _ | Span_begin _ | Span_end _
  | Task_state _ | Runq_depth _ | Probe _ ->
      Other

(* The Figure-11 input breakdown, mined from a sorted dump: each
   keypress pairs with the next delivery to an app, and that delivery
   with the next frame presented after it. Returns the keypress →
   delivery and delivery → frame samples, in ms, in trace order. *)
let keypresses events =
  let deliver = ref [] and respond = ref [] in
  let rec scan = function
    | [] -> ()
    | e :: rest ->
        (match kind e.ev with
        | Keypress -> (
            match
              List.find_opt
                (fun d -> match kind d.ev with Delivered _ -> true | _ -> false)
                rest
            with
            | Some d -> (
                deliver :=
                  Sim.Engine.to_ms (Int64.sub d.ts_ns e.ts_ns) :: !deliver;
                match
                  List.find_opt
                    (fun f ->
                      (match kind f.ev with Frame _ -> true | _ -> false)
                      && Int64.compare f.ts_ns d.ts_ns > 0)
                    rest
                with
                | Some f ->
                    respond :=
                      Sim.Engine.to_ms (Int64.sub f.ts_ns d.ts_ns) :: !respond
                | None -> ())
            | None -> ())
        | _ -> ());
        scan rest
  in
  scan events;
  (List.rev !deliver, List.rev !respond)

(* Mean of [xs] by running update, m += (x - m) / n: the arithmetic the
   pinned figures were computed with, to the last bit. 0 for no samples. *)
let mean xs =
  fst
    (List.fold_left
       (fun (m, n) x ->
         let n = n + 1 in
         (m +. ((x -. m) /. float_of_int n), n))
       (0.0, 0) xs)
