type t = {
  engine : Sim.Engine.t;
  core_shots : Sim.Engine.event_id option array;
  core_fire : (unit -> unit) array;
      (** each core's expiry action, built once: re-arming, which every
          scheduler tick does, allocates no closure and no line *)
}

let create engine intc ~cores =
  let core_shots = Array.make cores None in
  let fire core =
    let line = Irq.Core_timer core in
    fun () ->
      core_shots.(core) <- None;
      Intc.raise_line intc line
  in
  { engine; core_shots; core_fire = Array.init cores fire }

let counter_us t = Int64.div (Sim.Engine.now t.engine) 1_000L

let disarm_core_timer t ~core =
  match t.core_shots.(core) with
  | None -> ()
  | Some id ->
      Sim.Engine.cancel t.engine id;
      t.core_shots.(core) <- None

let arm_core_timer t ~core ~delta_ns =
  disarm_core_timer t ~core;
  t.core_shots.(core) <-
    Some (Sim.Engine.schedule_after t.engine delta_ns t.core_fire.(core))

let core_timer_armed t ~core = t.core_shots.(core) <> None
