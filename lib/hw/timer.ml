type t = {
  engine : Sim.Engine.t;
  intc : Intc.t;
  mutable sys_compare : Sim.Engine.event_id option;
  core_shots : Sim.Engine.event_id option array;
}

let create engine intc ~cores =
  { engine; intc; sys_compare = None; core_shots = Array.make cores None }

let counter_us t = Int64.div (Sim.Engine.now t.engine) 1_000L

let clear_sys_compare t =
  match t.sys_compare with
  | None -> ()
  | Some id ->
      Sim.Engine.cancel t.engine id;
      t.sys_compare <- None

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
