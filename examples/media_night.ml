(* Media night: the Prototype 5 media stack — play a VOGG track with its
   album cover, then an MV1 video clip, watching the producer-consumer
   audio pipeline (§4.4) and the decode path (§5.2) at work.

     dune exec examples/media_night.exe
*)

let () =
  let stage = Proto.Stage.boot ~prototype:5 () in
  let kernel = stage.Proto.Stage.kernel in
  let pwm = kernel.Core.Kernel.board.Hw.Board.pwm in

  print_endline "== music: /d/music/track1.vogg (ADPCM over /dev/sb via DMA) ==";
  let music =
    Proto.Stage.start stage "music"
      [ "music"; "/d/music/track1.vogg"; "/d/music/cover1.pngl" ]
  in
  Proto.Stage.run_for stage (Sim.Engine.sec 4);
  Printf.printf "  %d samples played, underruns %d\n"
    (Hw.Pwm_audio.samples_played pwm)
    (Hw.Pwm_audio.underruns pwm);
  let wave = Hw.Pwm_audio.recent_output pwm in
  let n = Array.length wave in
  print_string "  waveform tail: ";
  for i = 0 to 59 do
    let s = wave.(n - 60 + i) in
    print_char
      (if s > 6000 then '#' else if s > 0 then '+' else if s > -6000 then '-' else '_')
  done;
  print_newline ();
  ignore (Core.Kernel.spawn_user kernel ~name:"killer" (fun () ->
      ignore (User.Usys.kill music.Core.Task.pid);
      0));
  Proto.Stage.run_for stage (Sim.Engine.ms 100);

  print_endline "\n== video: /d/videos/clip480.mv1 (DCT decode + NEON YUV) ==";
  let video =
    Proto.Stage.start stage "video" [ "video"; "/d/videos/clip480.mv1"; "90" ]
  in
  let t0 = Core.Kernel.now kernel in
  let f0 =
    Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid:video.Core.Task.pid
  in
  Proto.Stage.run_for stage (Sim.Engine.sec 4);
  let frames =
    Core.Sched.frames_presented kernel.Core.Kernel.sched ~pid:video.Core.Task.pid
    - f0
  in
  Printf.printf "  %d frames in %.1f s of virtual time (target 30 FPS native)\n"
    frames
    (Sim.Engine.to_sec (Int64.sub (Core.Kernel.now kernel) t0));

  let fb = Option.get kernel.Core.Kernel.fb in
  print_endline "\n  a video frame, in ASCII:";
  print_string (Hw.Framebuffer.to_ascii fb ~cols:72 ~rows:20);

  Printf.printf "\nOS memory in use: %.1f MB (paper: 21-42 MB)\n"
    (float_of_int (Core.Kernel.os_memory_bytes kernel) /. 1048576.0)
