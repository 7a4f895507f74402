(** DOOM — the doomgeneric-style port (§3, §4.5): a real software-rendered
    3D engine (textured raycast walls, shaded floors, billboard sprites, a
    status bar) driving the framebuffer directly, polling keys without
    blocking (the Prototype 5 non-blocking IO path), and autopiloting when
    nobody is at the keyboard — so benches exercise the same code path as
    play.

    Per-frame cost = real per-pixel work (texture sampling, shading)
    plus the game-logic charge of the id tick (thinkers, BSP-ish checks),
    calibrated so Pi3 lands in Table 4's ~62 FPS band. *)


open User

let screen_w = 640
let screen_h = 480
let view_h = 400 (* status bar below *)

(* cycle model *)
let cycles_wall_px = 52 (* texture fetch + shade + store *)
let cycles_floor_px = 16
let cycles_sprite_px = 14
let cycles_game_tick = 3_300_000 (* thinkers, collision, AI *)
let cycles_per_ray_step = 18

let map_n = 24

let map =
  (* 1..3 = wall texture ids, 0 = open *)
  Array.init map_n (fun y ->
      Array.init map_n (fun x ->
          if x = 0 || y = 0 || x = map_n - 1 || y = map_n - 1 then 1
          else if (x mod 6 = 3 && y mod 4 <> 1) && (x + y) mod 7 <> 0 then 2
          else if x mod 9 = 5 && y mod 5 = 2 then 3
          else 0))

let wall_at x y =
  if x < 0 || y < 0 || x >= map_n || y >= map_n then 1
  else map.(y).(x)

(* procedural 64x64 textures *)
let tex_n = 64

let textures =
  [|
    (* gray stone blocks *)
    Array.init (tex_n * tex_n) (fun i ->
        let x = i mod tex_n and y = i / tex_n in
        let edge = x mod 16 < 1 || y mod 16 < 1 in
        let base = 110 + ((x * 7 + y * 13) mod 24) in
        if edge then Gfx.rgb 50 50 55 else Gfx.rgb base base (base + 8));
    (* red brick *)
    Array.init (tex_n * tex_n) (fun i ->
        let x = i mod tex_n and y = i / tex_n in
        let row = y / 8 in
        let xoff = if row mod 2 = 0 then 0 else 8 in
        let mortar = y mod 8 < 1 || (x + xoff) mod 16 < 1 in
        if mortar then Gfx.rgb 140 130 120
        else Gfx.rgb (150 + ((x * y) mod 30)) 50 40);
    (* green tech *)
    Array.init (tex_n * tex_n) (fun i ->
        let x = i mod tex_n and y = i / tex_n in
        let glow = (x / 4 + y / 4) mod 2 = 0 in
        if glow then Gfx.rgb 30 (120 + (x mod 40)) 60 else Gfx.rgb 20 60 40);
  |]

let texture id = textures.((id - 1) mod Array.length textures)

type sprite = { mutable sx : float; mutable sy : float; mutable alive : bool }

type state = {
  mutable px : float;
  mutable py : float;
  mutable dir : float;
  mutable health : int;
  mutable ammo : int;
  mutable frame : int;
  mutable fire_flash : int;
  sprites : sprite array;
  zbuf : float array;
}

let fresh_state () =
  {
    px = 2.5;
    py = 2.5;
    dir = 0.4;
    health = 100;
    ammo = 50;
    frame = 0;
    fire_flash = 0;
    sprites =
      [|
        { sx = 8.5; sy = 6.5; alive = true };
        { sx = 14.5; sy = 12.5; alive = true };
        { sx = 20.5; sy = 18.5; alive = true };
        { sx = 5.5; sy = 17.5; alive = true };
      |];
    zbuf = Array.make screen_w infinity;
  }

type input = {
  forward : bool;
  back : bool;
  turn_l : bool;
  turn_r : bool;
  fire : bool;
}

let no_input = { forward = false; back = false; turn_l = false; turn_r = false; fire = false }

(* Autopilot: walk forward, turn away from walls, fire at intervals. *)
let bot st =
  let probe = 0.8 in
  let nx = st.px +. (cos st.dir *. probe) and ny = st.py +. (sin st.dir *. probe) in
  let blocked = wall_at (int_of_float nx) (int_of_float ny) <> 0 in
  {
    forward = not blocked;
    back = false;
    turn_l = blocked;
    turn_r = (not blocked) && st.frame mod 97 < 8;
    fire = st.frame mod 61 = 0;
  }

let step st input =
  st.frame <- st.frame + 1;
  if st.fire_flash > 0 then st.fire_flash <- st.fire_flash - 1;
  let turn = 0.045 in
  if input.turn_l then st.dir <- st.dir -. turn;
  if input.turn_r then st.dir <- st.dir +. turn;
  let speed = 0.08 in
  let move dx dy =
    let nx = st.px +. dx and ny = st.py +. dy in
    if wall_at (int_of_float nx) (int_of_float st.py) = 0 then st.px <- nx;
    if wall_at (int_of_float st.px) (int_of_float ny) = 0 then st.py <- ny
  in
  if input.forward then move (cos st.dir *. speed) (sin st.dir *. speed);
  if input.back then move (-.cos st.dir *. speed) (-.sin st.dir *. speed);
  if input.fire && st.ammo > 0 then begin
    st.ammo <- st.ammo - 1;
    st.fire_flash <- 3;
    (* hitscan: kill the nearest sprite within a narrow cone *)
    Array.iter
      (fun s ->
        if s.alive then begin
          let dx = s.sx -. st.px and dy = s.sy -. st.py in
          let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
          let angle = atan2 dy dx -. st.dir in
          let angle = atan2 (sin angle) (cos angle) in
          if Float.abs angle < 0.1 && dist < 12.0 then s.alive <- false
        end)
      st.sprites
  end;
  (* respawn sprites occasionally so long runs keep working *)
  if st.frame mod 600 = 0 then
    Array.iter (fun s -> s.alive <- true) st.sprites

(* DDA raycast for one column; returns (distance, texture id, tex x, steps) *)
let cast st angle =
  let dx = cos angle and dy = sin angle in
  let map_x = ref (int_of_float st.px) and map_y = ref (int_of_float st.py) in
  let delta_x = if dx = 0.0 then 1e30 else Float.abs (1.0 /. dx) in
  let delta_y = if dy = 0.0 then 1e30 else Float.abs (1.0 /. dy) in
  let step_x = if dx < 0.0 then -1 else 1 in
  let step_y = if dy < 0.0 then -1 else 1 in
  let side_x =
    ref
      (if dx < 0.0 then (st.px -. float_of_int !map_x) *. delta_x
       else (float_of_int (!map_x + 1) -. st.px) *. delta_x)
  in
  let side_y =
    ref
      (if dy < 0.0 then (st.py -. float_of_int !map_y) *. delta_y
       else (float_of_int (!map_y + 1) -. st.py) *. delta_y)
  in
  let side = ref 0 and hit = ref 0 and steps = ref 0 in
  while !hit = 0 do
    incr steps;
    if !side_x < !side_y then begin
      side_x := !side_x +. delta_x;
      map_x := !map_x + step_x;
      side := 0
    end
    else begin
      side_y := !side_y +. delta_y;
      map_y := !map_y + step_y;
      side := 1
    end;
    hit := wall_at !map_x !map_y
  done;
  let dist =
    if !side = 0 then !side_x -. delta_x else !side_y -. delta_y
  in
  let wall_hit =
    if !side = 0 then st.py +. (dist *. dy) else st.px +. (dist *. dx)
  in
  let texx = int_of_float (Float.rem wall_hit 1.0 *. float_of_int tex_n) in
  (Float.max 0.05 dist, !hit, texx land (tex_n - 1), !steps, !side)

let shade px factor =
  let f c = int_of_float (float_of_int c *. factor) in
  Gfx.rgb (f ((px lsr 16) land 0xff)) (f ((px lsr 8) land 0xff)) (f (px land 0xff))

let render st gfx =
  let cost = ref cycles_game_tick in
  let fov = 1.05 in
  (* ceiling and floor: vertical shading bands *)
  for y = 0 to (view_h / 2) - 1 do
    let shade_c = 40 + (y * 30 / view_h) in
    Gfx.fill_rect gfx ~x:0 ~y ~w:screen_w ~h:1 (Gfx.rgb shade_c shade_c (shade_c + 12))
  done;
  for y = view_h / 2 to view_h - 1 do
    let d = y - (view_h / 2) in
    let shade_f = 35 + (d * 90 / view_h) in
    Gfx.fill_rect gfx ~x:0 ~y ~w:screen_w ~h:1 (Gfx.rgb (shade_f + 14) shade_f (shade_f / 2))
  done;
  cost := !cost + (screen_w * view_h * cycles_floor_px / 2);
  (* walls *)
  for col = 0 to screen_w - 1 do
    let angle = st.dir +. ((float_of_int col /. float_of_int screen_w) -. 0.5) *. fov in
    let dist, texid, texx, steps, side = cast st angle in
    let corrected = dist *. cos (angle -. st.dir) in
    st.zbuf.(col) <- corrected;
    let height = min view_h (int_of_float (float_of_int view_h /. corrected)) in
    let y0 = (view_h - height) / 2 in
    let tex = texture texid in
    let dim = (if side = 1 then 0.7 else 1.0) /. (1.0 +. (corrected *. 0.12)) in
    for y = y0 to y0 + height - 1 do
      let texy = (y - y0) * tex_n / max 1 height in
      let px = tex.((texy * tex_n) + texx) in
      Gfx.put gfx ~x:col ~y (shade px dim)
    done;
    cost := !cost + (height * cycles_wall_px) + (steps * cycles_per_ray_step)
  done;
  (* billboard sprites, far to near *)
  let order =
    st.sprites |> Array.to_list
    |> List.filter (fun s -> s.alive)
    |> List.map (fun s ->
           let dx = s.sx -. st.px and dy = s.sy -. st.py in
           (sqrt ((dx *. dx) +. (dy *. dy)), s))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  List.iter
    (fun (dist, s) ->
      if dist > 0.5 then begin
        let angle = atan2 (s.sy -. st.py) (s.sx -. st.px) -. st.dir in
        let angle = atan2 (sin angle) (cos angle) in
        if Float.abs angle < fov /. 1.6 then begin
          let size = min 300 (int_of_float (float_of_int view_h /. dist *. 0.7)) in
          let center = int_of_float ((angle /. fov +. 0.5) *. float_of_int screen_w) in
          let y0 = (view_h / 2) - (size / 2) in
          for sx = max 0 (center - (size / 2)) to min (screen_w - 1) (center + (size / 2)) do
            if dist < st.zbuf.(sx) then begin
              for sy = max 0 y0 to min (view_h - 1) (y0 + size) do
                let u = (sx - (center - (size / 2))) * 2 - size in
                let v = (sy - y0) * 2 - size in
                if (u * u) + (v * v) < size * size then
                  Gfx.put gfx ~x:sx ~y:sy
                    (Gfx.rgb (160 - min 100 (int_of_float (dist *. 10.0))) 30 30)
              done;
              cost := !cost + (size * cycles_sprite_px)
            end
          done
        end
      end)
    order;
  (* muzzle flash *)
  if st.fire_flash > 0 then
    Gfx.fill_rect gfx ~x:(screen_w / 2 - 20) ~y:(view_h - 80) ~w:40 ~h:40
      (Gfx.rgb 255 220 90);
  (* status bar *)
  Gfx.fill_rect gfx ~x:0 ~y:view_h ~w:screen_w ~h:(screen_h - view_h)
    (Gfx.rgb 40 40 40);
  Gfx.text gfx ~x:16 ~y:(view_h + 30) ~color:0xff4040
    (Printf.sprintf "HEALTH %d" st.health);
  Gfx.text gfx ~x:200 ~y:(view_h + 30) ~color:0xffff60
    (Printf.sprintf "AMMO %d" st.ammo);
  Gfx.text gfx ~x:400 ~y:(view_h + 30) ~color:0x80ff80
    (Printf.sprintf "FRAME %d" st.frame);
  Gfx.charge gfx !cost

let input_of_events events held =
  List.iter
    (fun ev ->
      let p = ev.Uevents.pressed in
      match ev.Uevents.key with
      | Uevents.Up | Uevents.Char 'w' -> held := { !held with forward = p }
      | Uevents.Down | Uevents.Char 's' -> held := { !held with back = p }
      | Uevents.Left -> held := { !held with turn_l = p }
      | Uevents.Right -> held := { !held with turn_r = p }
      | Uevents.Space -> held := { !held with fire = p }
      | Uevents.Enter | Uevents.Escape | Uevents.Tab | Uevents.Char _
      | Uevents.Other _ ->
          ())
    events

(* argv: doom [frames] [cap_fps] *)
let main env argv =
  Usys.in_frame "doom_main" (fun () ->
      let frames = match argv with _ :: f :: _ -> int_of_string f | _ -> 0 in
      let cap_fps = match argv with _ :: _ :: c :: _ -> int_of_string c | _ -> 0 in
      (* id-style zone memory, plus the WAD read into it (§4.5: loading
         DOOM's multi-MB assets is what motivates FAT32 + range IO) *)
      ignore (Usys.sbrk (12 * 1024 * 1024));
      (match Usys.slurp "/d/doom/doom1.wad" with
      | Ok wad ->
          ignore (Usys.sbrk (Bytes.length wad));
          Usys.burn (Bytes.length wad / 4) (* lump directory parse *)
      | Error _ -> ());
      match Gfx.direct env with
      | Error e -> e
      | Ok gfx -> (
          (* non-blocking key polling: the §4.5 enhancement *)
          let ev_fd =
            Usys.open_ "/dev/events" (Core.Abi.o_rdonly lor Core.Abi.o_nonblock)
          in
          if ev_fd < 0 then -ev_fd
          else begin
            let st = fresh_state () in
            let held = ref no_input in
            let manual_until = ref 0 in
            while frames = 0 || st.frame < frames do
              let events = Uevents.read_events ev_fd in
              if events <> [] then manual_until := st.frame + 300;
              input_of_events events held;
              let input = if st.frame < !manual_until then !held else bot st in
              step st input;
              render st gfx;
              Gfx.present gfx;
              if cap_fps > 0 then ignore (Usys.sleep (1000 / cap_fps))
            done;
            ignore (Usys.close ev_fd);
            0
          end))
