type t = {
  engine : Sim.Engine.t;
  intc : Intc.t;
  core_shots : Sim.Engine.event_id option array;
}

let create engine intc ~cores =
  { engine; intc; core_shots = Array.make cores None }

let counter_us t = Int64.div (Sim.Engine.now t.engine) 1_000L

let disarm_core_timer t ~core =
  match t.core_shots.(core) with
  | None -> ()
  | Some id ->
      Sim.Engine.cancel t.engine id;
      t.core_shots.(core) <- None

let arm_core_timer t ~core ~delta_ns =
  disarm_core_timer t ~core;
  let id =
    Sim.Engine.schedule_after t.engine delta_ns (fun () ->
        t.core_shots.(core) <- None;
        Intc.raise_line t.intc (Irq.Core_timer core))
  in
  t.core_shots.(core) <- Some id

let core_timer_armed t ~core = t.core_shots.(core) <> None
