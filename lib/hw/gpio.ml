type button = Up | Down | Left | Right | A | B | X | Y | Start | Select

type t = {
  intc : Intc.t;
  held : (button, unit) Hashtbl.t;
  mutable edges : (button * bool) list;  (* newest first *)
}

let create _engine intc = { intc; held = Hashtbl.create 16; edges = [] }

let latch t button pressed =
  t.edges <- (button, pressed) :: t.edges;
  Intc.raise_line t.intc Irq.Gpio_bank

let press t button =
  if not (Hashtbl.mem t.held button) then begin
    Hashtbl.replace t.held button ();
    latch t button true
  end

let release t button =
  if Hashtbl.mem t.held button then begin
    Hashtbl.remove t.held button;
    latch t button false
  end

let take_edges t =
  let edges = List.rev t.edges in
  t.edges <- [];
  edges

let press_panic_button t = Intc.raise_line t.intc Irq.Fiq_button
