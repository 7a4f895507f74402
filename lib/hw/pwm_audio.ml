let fifo_capacity = 8192
let chunk = 512
let tail_capacity = 65536

type t = {
  engine : Sim.Engine.t;
  rate : int;
  fifo : int Queue.t;
  mutable running : bool;
  mutable underruns : int;
  mutable played : int;
  tail : int array;
  mutable tail_len : int;
  mutable tail_pos : int;  (* ring cursor once full *)
  mutable listener : (unit -> unit) option;
}

let create engine ~rate =
  assert (rate > 0);
  {
    engine;
    rate;
    fifo = Queue.create ();
    running = false;
    underruns = 0;
    played = 0;
    tail = Array.make tail_capacity 0;
    tail_len = 0;
    tail_pos = 0;
    listener = None;
  }

let rate t = t.rate

let emit t sample =
  t.played <- t.played + 1;
  if t.tail_len < tail_capacity then begin
    t.tail.(t.tail_len) <- sample;
    t.tail_len <- t.tail_len + 1
  end
  else begin
    t.tail.(t.tail_pos) <- sample;
    t.tail_pos <- (t.tail_pos + 1) mod tail_capacity
  end

let chunk_period_ns t =
  Int64.div (Int64.mul (Int64.of_int chunk) 1_000_000_000L) (Int64.of_int t.rate)

let rec drain t () =
  if t.running then begin
    let available = Queue.length t.fifo in
    if available < chunk then t.underruns <- t.underruns + 1;
    for _ = 1 to chunk do
      let s = if Queue.is_empty t.fifo then 0 else Queue.pop t.fifo in
      emit t s
    done;
    (match t.listener with Some f -> f () | None -> ());
    ignore (Sim.Engine.schedule_after t.engine (chunk_period_ns t) (drain t))
  end

let start t =
  if not t.running then begin
    t.running <- true;
    ignore (Sim.Engine.schedule_after t.engine (chunk_period_ns t) (drain t))
  end

let fifo_space t = fifo_capacity - Queue.length t.fifo

let push_samples t samples =
  let space = fifo_space t in
  let n = min space (Array.length samples) in
  for i = 0 to n - 1 do
    Queue.add samples.(i) t.fifo
  done;
  n

let underruns t = t.underruns
let samples_played t = t.played

let recent_output t =
  if t.tail_len < tail_capacity then Array.sub t.tail 0 t.tail_len
  else
    Array.init tail_capacity (fun i ->
        t.tail.((t.tail_pos + i) mod tail_capacity))

let set_drain_listener t f = t.listener <- Some f
