(** Kernel microbenchmarks: the workloads behind Figure 8 (latencies,
    filesystem throughput, boot time) and Figure 9 (the cross-OS
    comparison applies {!Osmodel} to these measurements). *)

let fresh_kernel ?(platform = Hw.Board.pi3) ?(config = Core.Kconfig.full) () =
  Core.Kernel.boot
    { Core.Kernel.default_spec with sp_platform = platform; sp_config = config }

(* ---- syscall latency: getpid over [iters] calls ---- *)

let iters = 5000

let getpid_us kernel =
  let elapsed =
    Measure.run_task kernel ~name:"bench-getpid" (fun () ->
        for _ = 1 to iters do
          ignore (User.Usys.getpid ())
        done;
        0)
  in
  match elapsed with
  | Ok (_, ns) -> Sim.Engine.to_us ns /. float_of_int iters
  | Error e -> invalid_arg e

(* ---- sbrk latency: grow/shrink one page ---- *)

let sbrk_us kernel =
  match
    Measure.run_task kernel ~name:"bench-sbrk" (fun () ->
        for _ = 1 to iters / 2 do
          ignore (User.Usys.sbrk 4096);
          ignore (User.Usys.sbrk (-4096))
        done;
        0)
  with
  | Ok (_, ns) -> Sim.Engine.to_us ns /. float_of_int iters
  | Error e -> invalid_arg e

(* ---- fork+wait latency, with [heap_kb] resident to copy ---- *)

let fork_iters = 100

let fork_us ~heap_kb kernel =
  match
    Measure.run_task kernel ~name:"bench-fork" (fun () ->
        ignore (User.Usys.sbrk (heap_kb * 1024));
        for _ = 1 to fork_iters do
          let pid = User.Usys.fork (fun () -> 0) in
          assert (pid > 0);
          ignore (User.Usys.wait ())
        done;
        0)
  with
  | Ok (_, ns) ->
      (* each iteration includes the child's exit and the parent's wait;
         report the fork share like the paper's lat_fork does *)
      Sim.Engine.to_us ns /. float_of_int fork_iters /. 2.0
  | Error e -> invalid_arg e

let fork_pages ~heap_kb = (heap_kb * 1024 / 4096) + 18 (* code + stack *)

(* ---- one-way pipe IPC: 1-byte ping-pong between two processes ---- *)

let ipc_us ?(iters = iters) kernel =
  match
    Measure.run_task kernel ~name:"bench-ipc" (fun () ->
        match (User.Usys.pipe (), User.Usys.pipe ()) with
        | Ok (r1, w1), Ok (r2, w2) ->
            let child =
              User.Usys.fork (fun () ->
                  let live = ref true in
                  while !live do
                    match User.Usys.read r1 1 with
                    | Ok b when Bytes.length b = 1 ->
                        ignore (User.Usys.write w2 (Bytes.of_string "y"))
                    | Ok _ | Error _ -> live := false
                  done;
                  0)
            in
            for _ = 1 to iters do
              ignore (User.Usys.write w1 (Bytes.of_string "x"));
              ignore (User.Usys.read r2 1)
            done;
            ignore (User.Usys.kill child);
            ignore (User.Usys.wait ());
            0
        | _ -> 1)
  with
  | Ok (_, ns) ->
      (* round trip = 2 one-way messages *)
      Sim.Engine.to_us ns /. float_of_int iters /. 2.0
  | Error e -> invalid_arg e

(* ---- filesystem throughput (KB/s) ---- *)

let fs_throughput_kbps kernel ~path ~bytes ~chunk ~direction =
  let data = Bytes.make chunk 'v' in
  match
    Measure.run_task kernel ~name:"bench-fs" (fun () ->
        (match direction with
        | `Write ->
            let fd = User.Usys.open_ path (Core.Abi.o_create lor Core.Abi.o_wronly) in
            assert (fd >= 0);
            let written = ref 0 in
            while !written < bytes do
              let n = User.Usys.write fd data in
              assert (n > 0);
              written := !written + n
            done;
            ignore (User.Usys.close fd)
        | `Read ->
            let fd = User.Usys.open_ path Core.Abi.o_rdonly in
            assert (fd >= 0);
            let got = ref 0 in
            let eof = ref false in
            while (not !eof) && !got < bytes do
              match User.Usys.read fd chunk with
              | Ok b when Bytes.length b > 0 -> got := !got + Bytes.length b
              | Ok _ | Error _ -> eof := true
            done;
            ignore (User.Usys.close fd));
        0)
  with
  | Ok (_, ns) -> float_of_int bytes /. 1024.0 /. Sim.Engine.to_sec ns
  | Error e -> invalid_arg e

(* Prepare a file of [bytes] on the FAT partition or xv6fs for reads. *)
let prepare_file kernel ~path ~bytes =
  match
    Measure.run_task kernel ~name:"bench-prep" (fun () ->
        let fd = User.Usys.open_ path (Core.Abi.o_create lor Core.Abi.o_wronly) in
        assert (fd >= 0);
        let chunk = Bytes.make 65536 'p' in
        let written = ref 0 in
        while !written < bytes do
          let n = User.Usys.write fd (Bytes.sub chunk 0 (min 65536 (bytes - !written))) in
          assert (n > 0);
          written := !written + n
        done;
        ignore (User.Usys.close fd);
        0)
  with
  | Ok _ -> ()
  | Error e -> invalid_arg e

(* ---- compute: md5sum of [kb] and qsort of [n] ints ---- *)

(* Both burn the cycles of VOS's newlib; Osmodel scales the result by
   each OS's libc factor. *)
let md5_us ~kb kernel =
  match
    Measure.run_task kernel ~name:"bench-md5" (fun () ->
        let data = Bytes.make (kb * 1024) 'm' in
        let _, blocks = User.Md5.digest_with_blocks data in
        User.Usys.burn (blocks * User.Md5.cycles_per_block);
        0)
  with
  | Ok (_, ns) -> Sim.Engine.to_us ns
  | Error e -> invalid_arg e

let qsort_cycles_per_cmp = 22

let qsort_us ~n kernel =
  match
    Measure.run_task kernel ~name:"bench-qsort" (fun () ->
        let rng = Sim.Rng.create 7L in
        let arr = Array.init n (fun _ -> Sim.Rng.int rng 1_000_000) in
        let comparisons = ref 0 in
        Array.sort
          (fun a b ->
            incr comparisons;
            compare a b)
          arr;
        assert (Array.length arr = n);
        User.Usys.burn (!comparisons * qsort_cycles_per_cmp);
        0)
  with
  | Ok (_, ns) -> Sim.Engine.to_us ns
  | Error e -> invalid_arg e

(* ---- boot time ---- *)

type boot_times = { to_kernel_s : float; to_shell_s : float }

let boot_time () =
  let t = Proto.Stage.boot ~prototype:5 () in
  let kernel = t.Proto.Stage.kernel in
  let to_kernel = Sim.Engine.to_sec Hw.Board.pi3.Hw.Board.firmware_boot_ns in
  (* spawn the shell; "shell prompt" = the prompt string reaching the UART *)
  ignore (Proto.Stage.start t "sh" [ "sh" ]);
  let deadline = Int64.add (Core.Kernel.now kernel) (Sim.Engine.sec 30) in
  Measure.drive kernel ~deadline ~stop:(fun () ->
      let out = Core.Kernel.uart_output kernel in
      let n = String.length out and p = String.length "vos$ " in
      n >= p && String.equal (String.sub out (n - p) p) "vos$ ");
  { to_kernel_s = to_kernel; to_shell_s = Sim.Engine.to_sec (Core.Kernel.now kernel) }
