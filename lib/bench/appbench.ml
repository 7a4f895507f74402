(** Table 4: app throughput (FPS) across platforms and OSes.

    VOS numbers are measured from the simulation (warm-up excluded, like
    the paper's 20 s warm-up protocol — scaled to the simulation's
    measurement windows). Linux/FreeBSD columns apply {!Osmodel} to the
    measured frame times; they do not run mario-noinput/proc (devfs/procfs
    interfaces specific to VOS), matching the '-' cells. *)

type app_case = {
  case_name : string;
  prog : string;
  argv : string list;
  warmup_s : float;
  measure_s : float;
  applogic_share : float;
      (** share of the frame spent in app logic+libs (Fig. 11), which the
          libc factor scales in the baseline models *)
  newlib_factor : float;
      (** how much our newlib-class library inflates this app's logic
          relative to a glibc/BSD build (1.0 = not newlib-bound) *)
  window_px : int;  (** pixels blitted per frame on a production OS *)
}

let cases =
  [
    { case_name = "DOOM"; prog = "doom"; argv = [ "doom"; "0" ]; warmup_s = 5.5;
      measure_s = 6.0; applogic_share = 0.80; newlib_factor = 1.0;
      window_px = 640 * 480 };
    { case_name = "video (480p)"; prog = "video";
      argv = [ "video"; "/d/videos/clip480.mv1"; "0" ]; warmup_s = 2.0;
      measure_s = 6.0; applogic_share = 0.85; newlib_factor = 1.0;
      window_px = 640 * 480 };
    { case_name = "video (720p)"; prog = "video";
      argv = [ "video"; "/d/videos/clip720.mv1"; "0" ]; warmup_s = 2.5;
      measure_s = 6.0; applogic_share = 0.88; newlib_factor = 1.0;
      window_px = 640 * 480 };
    { case_name = "mario-noinput"; prog = "mario";
      argv = [ "mario"; "noinput"; "0" ]; warmup_s = 1.0; measure_s = 5.0;
      applogic_share = 0.90; newlib_factor = 1.0; window_px = 256 * 240 };
    { case_name = "mario-proc"; prog = "mario"; argv = [ "mario"; "proc"; "0" ];
      warmup_s = 1.0; measure_s = 5.0; applogic_share = 0.85;
      newlib_factor = 1.0; window_px = 256 * 240 };
    { case_name = "mario-sdl"; prog = "mario"; argv = [ "mario"; "sdl"; "0" ];
      warmup_s = 1.0; measure_s = 5.0; applogic_share = 0.87;
      newlib_factor = 1.55 (* 13.6M vs 8.75M emu cycles: the newlib tax *);
      window_px = 256 * 240 };
  ]

let mario_variant case =
  String.equal case.case_name "mario-noinput"
  || String.equal case.case_name "mario-proc"

let measure_ours ~platform case =
  let stage = Proto.Stage.boot ~platform ~prototype:5 () in
  Measure.app_fps stage ~prog:case.prog ~argv:case.argv
    ~warmup_s:case.warmup_s ~measure_s:case.measure_s

type cell = Fps of float | Not_run

type row = { row_name : string; cells : (string * cell) list }

let platforms = [ Hw.Board.pi3; Hw.Board.qemu_wsl; Hw.Board.qemu_vm ]

let run () =
  List.map
    (fun case ->
      (* measure ours on each platform *)
      let ours =
        List.map
          (fun platform ->
            (platform.Hw.Board.plat_name, measure_ours ~platform case))
          platforms
      in
      let pi3_fps = match ours with (_, m) :: _ -> m | [] -> 0.0 in
      (* production OS columns on pi3 only, like the paper *)
      let baseline model =
        if mario_variant case && not model.Osmodel.runs_mario_variants then
          Not_run
        else
          Fps
            (Osmodel.fps model ~ours_fps:pi3_fps
               ~applogic_share:case.applogic_share
               ~newlib_factor:case.newlib_factor ~window_px:case.window_px)
      in
      {
        row_name = case.case_name;
        cells =
          List.concat
            [
              (match ours with
              | (name, m) :: _ -> [ ("pi3/" ^ name, Fps m) ]
              | [] -> []);
              [ ("pi3/linux", baseline Osmodel.linux) ];
              [ ("pi3/freebsd", baseline Osmodel.freebsd) ];
              List.filter_map
                (fun (name, m) ->
                  if String.equal name "pi3" then None
                  else Some (name ^ "/ours", Fps m))
                ours;
            ];
      })
    cases

let render rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-14s %-18s %-12s %-12s %-18s %-18s\n" "app" "pi3/ours"
       "pi3/linux" "pi3/freebsd" "qemu-wsl/ours" "qemu-vm/ours");
  List.iter
    (fun row ->
      Buffer.add_string buf (Printf.sprintf "%-14s" row.row_name);
      List.iter
        (fun (_, cell) ->
          match cell with
          | Fps m -> Buffer.add_string buf (Printf.sprintf " %8.2f      " m)
          | Not_run -> Buffer.add_string buf (Printf.sprintf " %8s      " "-"))
        row.cells;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
