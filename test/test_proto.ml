(** Tests for the inverse-engineering framework: the feature matrix
    (Table 1) as a theorem, prototype staging across all five stages, the
    asset generators, and the SLoC analysis behind Figure 7. *)

open Tharness

let matrix_validates () =
  let violations = Proto.Matrix.validate () in
  List.iter (fun v -> print_endline (Proto.Matrix.describe_violation v)) violations;
  check_int "no violations" 0 (List.length violations)

let matrix_monotone_growth () =
  for k = 2 to 5 do
    let prev = Proto.Matrix.features_of_prototype (k - 1) in
    let cur = Proto.Matrix.features_of_prototype k in
    check_bool
      (Printf.sprintf "P%d superset of P%d" k (k - 1))
      true
      (List.for_all (fun f -> List.mem f cur) prev);
    check_bool (Printf.sprintf "P%d strictly grows" k) true
      (List.length cur > List.length prev)
  done

let matrix_closure_sound () =
  (* closing a set must contain the set and be a fixpoint *)
  let base = [ Proto.Feature.Window_manager ] in
  let closed = Proto.Feature.close base in
  check_bool "contains base" true (List.mem Proto.Feature.Window_manager closed);
  check_bool "pulled in multicore" true (List.mem Proto.Feature.Multicore closed);
  check_bool "pulled in interrupts" true (List.mem Proto.Feature.Interrupts closed);
  check_bool "fixpoint" true
    (List.length (Proto.Feature.close closed) = List.length closed)

let matrix_renders () =
  let text = Proto.Matrix.render () in
  check_bool "mentions DOOM" true
    (let rec has i =
       i + 4 <= String.length text
       && (String.equal (String.sub text i 4) "DOOM" || has (i + 1))
     in
     has 0);
  check_bool "five columns" true (String.length text > 500)

let prototype1_donut_on_bare_metal () =
  let stage = Proto.Stage.boot ~prototype:1 () in
  ignore (Proto.Stage.kernel_donut stage ~pace:`Busy_wait ~frames:10 ~speed:0.07);
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  (* pixels appeared on the framebuffer *)
  let fb = Option.get stage.Proto.Stage.kernel.Core.Kernel.fb in
  let lit = ref 0 in
  for y = 0 to Hw.Framebuffer.height fb - 1 do
    for x = 0 to Hw.Framebuffer.width fb - 1 do
      if Hw.Framebuffer.display_pixel fb ~x ~y <> 0 then incr lit
    done
  done;
  check_bool "donut pixels visible" true (!lit > 200)

let prototype2_concurrent_donuts () =
  let stage = Proto.Stage.boot ~prototype:2 () in
  let d1 = Proto.Stage.kernel_donut stage ~pace:(`Sleep 20) ~frames:30 ~speed:0.07 in
  let d2 = Proto.Stage.kernel_donut stage ~pace:(`Sleep 40) ~frames:30 ~speed:0.11 in
  Proto.Stage.run_for stage (Sim.Engine.sec 3);
  (* both ran to completion concurrently under the P2 scheduler *)
  check_string "donut 1 done" "zombie" (Core.Task.state_name d1);
  check_string "donut 2 done" "zombie" (Core.Task.state_name d2)

let prototype3_mario_noinput () =
  let stage = Proto.Stage.boot ~prototype:3 () in
  let task = Proto.Stage.start stage "mario" [ "mario"; "noinput"; "0" ] in
  Proto.Stage.run_for stage (Sim.Engine.sec 2);
  check_bool "frames rendered under P3" true
    (Core.Sched.frames_presented stage.Proto.Stage.kernel.Core.Kernel.sched
       ~pid:task.Core.Task.pid
    > 50)

let prototype4_files_and_sound () =
  let stage = Proto.Stage.boot ~prototype:4 () in
  (* P4 has xv6fs + devfs but no FAT *)
  let kernel = stage.Proto.Stage.kernel in
  match
    Benchlib.Measure.run_task kernel ~name:"p4" (fun () ->
        let fd = User.Usys.open_ "/roms/mario.nes" Core.Abi.o_rdonly in
        if fd < 0 then 1
        else begin
          ignore (User.Usys.close fd);
          (* FAT path must be absent *)
          if User.Usys.open_ "/d/anything" Core.Abi.o_rdonly >= 0 then 2
          else begin
            let sb = User.Usys.open_ "/dev/sb" Core.Abi.o_wronly in
            if sb < 0 then 3
            else begin
              ignore (User.Usys.write sb (Bytes.make 2048 'q'));
              ignore (User.Usys.close sb);
              0
            end
          end
        end)
  with
  | Ok (0, _) -> ()
  | Ok (rc, _) -> Alcotest.failf "P4 scenario failed at step %d" rc
  | Error e -> Alcotest.fail e

let prototype5_full_desktop () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  check_bool "wm present" true (stage.Proto.Stage.kernel.Core.Kernel.wm <> None);
  check_bool "audio present" true (stage.Proto.Stage.kernel.Core.Kernel.audio <> None);
  (* fat mounted with media *)
  match
    Benchlib.Measure.run_task stage.Proto.Stage.kernel ~name:"p5" (fun () ->
        let fd = User.Usys.open_ "/d/videos/clip480.mv1" Core.Abi.o_rdonly in
        if fd < 0 then 1
        else begin
          ignore (User.Usys.close fd);
          0
        end)
  with
  | Ok (0, _) -> ()
  | Ok _ -> Alcotest.fail "FAT media missing at P5"
  | Error e -> Alcotest.fail e

let assets_decode () =
  let bmp = check_ok "bmp" (User.Bmp.decode (Proto.Assets.slide_bmp ())) in
  check_int "bmp width" 320 bmp.User.Bmp.width;
  let png = check_ok "pngl" (User.Pnglite.decode (Proto.Assets.slide_pngl ())) in
  check_int "png height" 240 png.User.Pnglite.height;
  let gif = check_ok "gifl" (User.Giflite.decode (Proto.Assets.slide_gifl ())) in
  check_int "gif frames" 6 (Array.length gif.User.Giflite.frames);
  let clip = check_ok "mv1" (User.Mv1.unpack (Proto.Assets.clip_480p ())) in
  check_int "clip width" 640 clip.User.Mv1.width;
  let rate, n, _ = check_ok "vogg" (User.Adpcm.unpack (Proto.Assets.track_vogg ())) in
  check_int "rate" 44100 rate;
  check_bool "8s of audio" true (n = 8 * 44100)

(* Every staged asset, pinned by MD5. The assets are workload inputs:
   the FAT image, SD reads, traces and perfbench goldens all follow from
   these bytes, so an encoder or generator change must leave each one
   exactly as it is. *)
let staged_assets_pinned () =
  let check_files what files expected =
    check_int (what ^ " file count") (List.length expected) (List.length files);
    List.iter2
      (fun (path, data) (want_path, want) ->
        check_string (what ^ " path") want_path path;
        check_string (what ^ " " ^ path) want (Digest.to_hex (Digest.bytes data)))
      files expected
  in
  let ramdisk =
    [
      ("/slides/one.bmp", "8f4689cb72cc0529fbbf3cb1d4efa133");
      ("/slides/two.pngl", "ddb4ecd2153b86f16f90301bf293a801");
      ("/slides/three.gifl", "7103b5b4dbd7fa6f2afcd12ef7665637");
      ("/roms/mario.nes", "e5bb99576f86b38e48bd4e13b92a2f13");
      ("/roms/zelda.nes", "b9c697a9a5f6faef8b2ae29216616ea6");
      ("/roms/tetris.nes", "9ad7b98f90761462967b3648a793469c");
      ("/scripts/demo.sh", "aa440b9906af67408c6ac8b1bcb52f0a");
    ]
  in
  check_files "ramdisk 4" (Proto.Stage.ramdisk_files 4) ramdisk;
  check_files "ramdisk 5" (Proto.Stage.ramdisk_files 5) ramdisk;
  check_files "fat 5" (Proto.Stage.fat_files 5)
    [
      ("/videos/clip480.mv1", "8a09abe3c4a1ed6400d4109b09a552d8");
      ("/videos/clip720.mv1", "896d2bd5410c4188b9e115b5529e5470");
      ("/videos/clipaudio.vogg", "e9eaa46bca3bbf799f588d7056efe9cd");
      ("/music/track1.vogg", "fa55282adc9f9ba1154f75e7abbbc118");
      ("/music/cover1.pngl", "050849e68ec4588717c36884b3810d87");
      ("/slides/hires.pngl", "f70504b2f1996cb9d3d281b75154cb34");
      ("/slides/one.bmp", "8f4689cb72cc0529fbbf3cb1d4efa133");
      ("/doom/doom1.wad", "c8c9c3837455104b8439664bee1bd27c");
    ]

let sloc_analysis () =
  let report = Proto.Sloc.analyze () in
  check_bool "no missing files" true (report.Proto.Sloc.missing = []);
  (* cumulative growth, like Figure 7 *)
  let kernel_totals = report.Proto.Sloc.kernel_totals in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "kernel SLoC grows by stage" true (monotone kernel_totals);
  check_bool "apps SLoC grows by stage" true (monotone report.Proto.Sloc.app_totals);
  let p1 = List.assoc 1 kernel_totals and p5 = List.assoc 5 kernel_totals in
  check_bool "P1 kernel is small" true (p1 < p5 / 2);
  check_bool "P5 kernel is thousands of lines" true (p5 > 4000)

(* Figure 7 is honest only if it counts every module: a file added under
   one of the OS layers without an inventory entry fails here. *)
let sloc_attributes_every_module () =
  let report = Proto.Sloc.analyze () in
  (* the scan must see the tree, or the check below is vacuous *)
  let files =
    Proto.Sloc.layer_files (Option.get (Proto.Sloc.repo_root ()))
  in
  check_bool "scan sees lib/sim" true (List.mem "lib/sim/engine.ml" files);
  check_bool "scan sees lib/apps" true (List.mem "lib/apps/doom.ml" files);
  check_string "unattributed files" ""
    (String.concat " " report.Proto.Sloc.unattributed)

let survey_is_deterministic () =
  let a = Benchlib.Survey.run ~seed:48L () in
  let b = Benchlib.Survey.run ~seed:48L () in
  check_bool "same seed same survey" true
    (List.for_all2
       (fun x y -> x.Benchlib.Survey.counts = y.Benchlib.Survey.counts)
       a b);
  (* distribution shape: strong agreement everywhere, N preserved *)
  List.iter
    (fun s ->
      check_int "48 respondents" 48 (Array.fold_left ( + ) 0 s.Benchlib.Survey.counts);
      check_bool "majority agrees" true (s.Benchlib.Survey.agree_pct > 60.0))
    a

let osmodel_shapes () =
  (* the cross-OS model must preserve the paper's comparative claims *)
  let fork_linux =
    Benchlib.Osmodel.latency_us Benchlib.Osmodel.linux ~bench:`Fork ~ours_us:500.0
      ~fork_pages:530
  in
  check_bool "our fork slower than lazy linux" true (fork_linux < 500.0);
  let md5_xv6 =
    Benchlib.Osmodel.latency_us Benchlib.Osmodel.xv6 ~bench:`Compute ~ours_us:100.0
      ~fork_pages:0
  in
  check_bool "musl slower on compute" true (md5_xv6 > 100.0);
  let doom_linux =
    Benchlib.Osmodel.fps Benchlib.Osmodel.linux ~ours_fps:62.0 ~applogic_share:0.8
      ~newlib_factor:1.0 ~window_px:(640 * 480)
  in
  check_in_range "linux DOOM roughly half ours" 25.0 45.0 doom_linux

(* ---- the shared BENCH report ---- *)

let report_escapes_strings () =
  let open Benchlib.Report in
  check_string "quote, backslash, controls"
    "\"a\\\"b\\\\c\\u000a\\u0009\\u0001\\u001f/\xc3\xa9\""
    (to_string (String "a\"b\\c\n\t\001\031/\xc3\xa9"))

let report_numbers () =
  let open Benchlib.Report in
  List.iter
    (fun x ->
      check_string "non-finite is null" "null" (to_string (Fixed (3, x))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun (n, x, printf) ->
      check_string printf printf (to_string (Fixed (n, x))))
    [
      (0, 45690.49, Printf.sprintf "%.0f" 45690.49);
      (1, 0.05, Printf.sprintf "%.1f" 0.05);
      (2, -1.255, Printf.sprintf "%.2f" (-1.255));
      (3, 2.0, Printf.sprintf "%.3f" 2.0);
      (4, 0.12124999, Printf.sprintf "%.4f" 0.12124999);
    ];
  check_string "int64" "-9223372036854775808" (to_string (Int64 Int64.min_int))

let report_layout () =
  let open Benchlib.Report in
  (* key order is kept; rows below the second level stay on one line *)
  check_string "object order and layout"
    "{\n\
    \  \"z\": 1,\n\
    \  \"a\": [\n\
    \    {\"y\": true, \"b\": \"s\"},\n\
    \    []\n\
    \  ],\n\
    \  \"m\": {}\n\
     }"
    (to_string
       (Obj
          [
            ("z", Int 1);
            ( "a",
              List [ Obj [ ("y", Bool true); ("b", String "s") ]; List [] ] );
            ("m", Obj []);
          ]));
  check_string "exactly two top-level keys"
    "{\n\
    \  \"deterministic\": {\n\
    \    \"n\": 1\n\
    \  },\n\
    \  \"host\": {}\n\
     }\n"
    (render ([ ("n", Int 1) ], []))

(* A simbench row's p90 is the 0.90 quantile, not the max: samples of
   1..100 us put it near 90 us. *)
let simbench_p90 () =
  let hist = Core.Kperf.Hist.create () in
  for us = 1 to 100 do
    Core.Kperf.Hist.record hist (Int64.of_int (us * 1000))
  done;
  let mean, p90, per_s = Benchlib.Simbench.event_cost hist in
  check_bool "p90 below the max" true (p90 < 100_000.0);
  check_bool "p90 above the median" true
    (p90 > Core.Kperf.Hist.percentile_ns hist 0.5);
  check_in_range "mean" 50_499.0 50_501.0 mean;
  check_in_range "events/s" 19_801.0 19_802.0 per_s

let suite =
  ( "proto",
    [
      quick "feature matrix validates (Table 1)" matrix_validates;
      quick "prototypes grow monotonically" matrix_monotone_growth;
      quick "feature closure is sound" matrix_closure_sound;
      quick "matrix renders" matrix_renders;
      slow "P1: baremetal donut" prototype1_donut_on_bare_metal;
      slow "P2: concurrent donuts" prototype2_concurrent_donuts;
      slow "P3: mario without input" prototype3_mario_noinput;
      slow "P4: files and sound, no FAT" prototype4_files_and_sound;
      slow "P5: full desktop" prototype5_full_desktop;
      quick "synthetic assets decode" assets_decode;
      quick "sloc analysis (Figure 7)" sloc_analysis;
      quick "every layer module is attributed (Figure 7)"
        sloc_attributes_every_module;
      quick "survey model deterministic (Figure 13)" survey_is_deterministic;
      quick "os model preserves paper shapes" osmodel_shapes;
      quick "report escapes strings" report_escapes_strings;
      quick "report prints numbers" report_numbers;
      quick "report layout" report_layout;
      quick "simbench p90 is the 0.90 quantile" simbench_p90;
      quick "staged asset bytes are pinned" staged_assets_pinned;
    ] )
