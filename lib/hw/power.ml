type profile = {
  board_idle_w : float;
  core_active_w : float;
  io_active_w : float;
  hat_w : float;
  battery_wh : float;
}

let pi3_game_hat =
  {
    board_idle_w = 1.88;
    core_active_w = 1.10;
    io_active_w = 0.30;
    hat_w = 1.15;
    battery_wh = 3.0 *. 3.7 (* one 18650: 3000 mAh at 3.7 V *);
  }

let board_power p ~busy_cores ~io_fraction =
  assert (busy_cores >= 0.0 && io_fraction >= 0.0);
  p.board_idle_w
  +. (p.core_active_w *. busy_cores)
  +. (p.io_active_w *. min 1.0 io_fraction)

let total_power p ~busy_cores ~io_fraction =
  board_power p ~busy_cores ~io_fraction +. p.hat_w

let battery_hours p ~watts =
  assert (watts > 0.0);
  p.battery_wh /. watts

(* ---- the supply rail: power-cut injection ---- *)

type supply = {
  mutable alive : bool;
  mutable sector_budget : int option;
      (* media sectors the rail will still power; [None] = unlimited *)
  mutable media_sectors : int;
}

let supply () = { alive = true; sector_budget = None; media_sectors = 0 }

let alive s = s.alive

let cut s =
  if s.alive then begin
    s.alive <- false;
    s.sector_budget <- Some 0
  end

let cut_after_media_writes s ~sectors =
  assert (sectors >= 0);
  if sectors = 0 then cut s else s.sector_budget <- Some sectors

let media_budget s ~sectors =
  if sectors <= 0 then 0
  else if not s.alive then 0
  else
    match s.sector_budget with
    | None ->
        s.media_sectors <- s.media_sectors + sectors;
        sectors
    | Some budget ->
        let granted = min budget sectors in
        s.sector_budget <- Some (budget - granted);
        s.media_sectors <- s.media_sectors + granted;
        if budget - granted = 0 then cut s;
        granted

let revive s =
  s.alive <- true;
  s.sector_budget <- None

let media_writes s = s.media_sectors
