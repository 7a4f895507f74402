(** launcher — the GUI frontend (§3): an animated background with a menu
    of installed programs; Enter forks and execs the selection, arrows
    move the cursor. *)


open User

let entries =
  [
    ("donut", [ "donut"; "pixels"; "300" ]);
    ("mario", [ "mario"; "sdl"; "600" ]);
    ("doom", [ "doom"; "600" ]);
    ("music", [ "music" ]);
    ("video", [ "video" ]);
    ("slider", [ "slider" ]);
    ("sysmon", [ "sysmon"; "30" ]);
    ("blockchain", [ "blockchain"; "4"; "12"; "2" ]);
    ("sh", [ "sh" ]);
  ]

(* The window's geometry. *)
let width = 300
let height = 260

(* The animated background, drifting diagonal colour bands: pixel
   (x, y) of frame [tick] is band (x + y + 3 * tick) mod 96. Each row is
   row 0 shifted, so every row is [width] words of one strip, built
   once, whose word k is band k mod 96: row y of frame [tick] starts at
   word (y + 3 * tick) mod 96. *)
let background gfx =
  let w = gfx.Gfx.width in
  let strip =
    Gfx.words_of_ints
      (Array.init (w + 96) (fun k ->
           let v = k mod 96 in
           Gfx.rgb (16 + (v / 4)) (20 + (v / 3)) (48 + (v / 2))))
  in
  fun ~tick ->
    for y = 0 to gfx.Gfx.height - 1 do
      Gfx.blit_row gfx ~y ~src:strip ~src_off:((y + (tick * 3)) mod 96) ~x:0 ~w
    done

(* The title and the menu, the entry under [cursor] highlighted. *)
let menu gfx ~cursor =
  Gfx.text gfx ~x:12 ~y:8 ~color:0xffffff "VOS LAUNCHER";
  List.iteri
    (fun i (name, _) ->
      let y = 32 + (i * 22) in
      if i = cursor then
        Gfx.fill_rect gfx ~x:8 ~y:(y - 4) ~w:(gfx.Gfx.width - 16) ~h:18 (Gfx.rgb 60 80 160);
      Gfx.text gfx ~x:16 ~y ~color:0xffffff name)
    entries

(* argv: launcher [iterations] *)
let main env argv =
  Usys.in_frame "launcher_main" (fun () ->
      let iters = match argv with _ :: n :: _ -> int_of_string n | _ -> 0 in
      match Minisdl.init env (Minisdl.Window { w = width; h = height; x = 20; y = 100; alpha = 255 }) with
      | Error e -> e
      | Ok sdl ->
          let gfx = Minisdl.surface sdl in
          let background = background gfx in
          let cursor = ref 0 in
          let tick = ref 0 in
          let running = ref true in
          while !running && (iters = 0 || !tick < iters) do
            incr tick;
            background ~tick:!tick;
            menu gfx ~cursor:!cursor;
            Minisdl.present sdl;
            List.iter
              (fun ev ->
                if ev.Uevents.pressed then
                  match ev.Uevents.key with
                  | Uevents.Up -> cursor := (max 0 (!cursor - 1))
                  | Uevents.Down ->
                      cursor := min (List.length entries - 1) (!cursor + 1)
                  | Uevents.Enter ->
                      let name, argv = List.nth entries !cursor in
                      let pid =
                        Usys.fork (fun () ->
                            let rc = Usys.exec ("/" ^ name) argv in
                            (* exec only returns on failure *)
                            rc)
                      in
                      Usys.printf "[launcher] started %s as pid %d\n" name pid
                  | Uevents.Escape -> running := false
                  | Uevents.Left | Uevents.Right | Uevents.Tab | Uevents.Space
                  | Uevents.Char _ | Uevents.Other _ ->
                      ())
              (Minisdl.wait_events sdl ~timeout_ms:33)
          done;
          Minisdl.quit sdl;
          0)
