(** Kernel tests: scheduler and tasks, virtual memory, IPC and
    synchronization, the file layer, device files, the window manager and
    the debugging machinery. Most tests boot a real Prototype-5 kernel and
    run user closures through the full syscall path. *)

open Tharness
open User

(* ---- scheduler and tasks ---- *)

let sched_getpid_cost () =
  let (), elapsed =
    in_kernel_timed (fun _ ->
        for _ = 1 to 100 do
          ignore (Usys.getpid ())
        done)
  in
  let per_call = Sim.Engine.to_us elapsed /. 100.0 in
  (* Figure 8's ~3 us *)
  check_in_range "getpid ~3us" 2.0 4.5 per_call

let sched_sleep_advances_time () =
  let (), elapsed = in_kernel_timed (fun _ -> ignore (Usys.sleep 50)) in
  check_in_range "sleep 50ms" 49.0 55.0 (Sim.Engine.to_ms elapsed)

let sched_fork_wait_exit () =
  in_kernel (fun _ ->
      let child = Usys.fork (fun () -> 42) in
      check_bool "child pid positive" true (child > 0);
      let reaped = Usys.wait () in
      check_int "reaped the child" child reaped;
      check_int "no more children" (-Core.Errno.echild) (Usys.wait ()))

let sched_fork_returns_child_pid_to_parent () =
  in_kernel (fun _ ->
      let me = Usys.getpid () in
      let seen = ref 0 in
      let child = Usys.fork (fun () -> seen := Usys.getpid (); 0) in
      ignore (Usys.wait ());
      check_bool "child saw its own pid" true (!seen = child && !seen <> me))

let sched_many_children () =
  in_kernel (fun _ ->
      let n = 12 in
      let counter = ref 0 in
      let pids = List.init n (fun _ -> Usys.fork (fun () -> incr counter; 0)) in
      check_bool "all forked" true (List.for_all (fun p -> p > 0) pids);
      for _ = 1 to n do
        ignore (Usys.wait ())
      done;
      check_int "all children ran" n !counter)

let sched_preemption_interleaves () =
  (* two CPU-bound tasks on one core must make comparable progress *)
  let config = { Core.Kconfig.full with Core.Kconfig.multicore = false } in
  let kernel = boot_kernel ~config () in
  let progress = [| 0; 0 |] in
  let spin slot () =
    for _ = 1 to 200 do
      Usys.burn 1_000_000 (* 1 ms *);
      progress.(slot) <- progress.(slot) + 1
    done;
    0
  in
  ignore (Core.Kernel.spawn_user kernel ~name:"spin0" (spin 0));
  ignore (Core.Kernel.spawn_user kernel ~name:"spin1" (spin 1));
  Core.Kernel.run_for kernel (Sim.Engine.ms 100);
  check_bool "both ran" true (progress.(0) > 10 && progress.(1) > 10);
  let ratio = float_of_int progress.(0) /. float_of_int (max 1 progress.(1)) in
  check_in_range "fair within 2x" 0.5 2.0 ratio

let sched_multicore_parallelism () =
  (* 4 cpu-bound tasks on 4 cores: wall time ~= single task time *)
  let kernel = boot_kernel () in
  let done_count = ref 0 in
  for i = 1 to 4 do
    ignore
      (Core.Kernel.spawn_user kernel ~name:(Printf.sprintf "w%d" i) (fun () ->
           Usys.burn 100_000_000 (* 100 ms of work *);
           incr done_count;
           0))
  done;
  let t0 = Core.Kernel.now kernel in
  Core.Kernel.run_for kernel (Sim.Engine.ms 150);
  check_int "all finished" 4 !done_count;
  ignore t0;
  (* each core should have run ~100ms busy *)
  for c = 0 to 3 do
    let busy = Sim.Engine.to_ms (Core.Sched.core_busy_ns kernel.Core.Kernel.sched c) in
    check_in_range (Printf.sprintf "core %d busy" c) 90.0 140.0 busy
  done

let sched_kill_running () =
  let kernel = boot_kernel () in
  let task =
    Core.Kernel.spawn_user kernel ~name:"victim" (fun () ->
        let rec forever () =
          Usys.burn 1_000_000;
          forever ()
        in
        forever ())
  in
  run_for kernel 1;
  check_bool "running" true (Core.Task.state_name task <> "zombie");
  ignore
    (Core.Kernel.spawn_user kernel ~name:"killer" (fun () ->
         ignore (Usys.kill task.Core.Task.pid);
         0));
  run_for kernel 1;
  check_string "killed" "zombie" (Core.Task.state_name task)

let sched_kill_blocked () =
  let kernel = boot_kernel () in
  let task =
    Core.Kernel.spawn_user kernel ~name:"sleeper" (fun () ->
        ignore (Usys.sleep 1_000_000);
        0)
  in
  run_for kernel 1;
  ignore
    (Core.Kernel.spawn_user kernel ~name:"killer" (fun () ->
         ignore (Usys.kill task.Core.Task.pid);
         0));
  run_for kernel 1;
  check_string "blocked task killed" "zombie" (Core.Task.state_name task)

let sched_exec_replaces_image () =
  let kernel =
    Core.Kernel.boot
      {
        Core.Kernel.default_spec with
        sp_programs =
          [
            {
              Core.Kernel.prog_name = "child";
              prog_size = 8192;
              prog_main = (fun argv -> Usys.print (String.concat "," argv); 7);
            };
          ];
      }
  in
  (match
     Benchlib.Measure.run_task kernel ~name:"execer" (fun () ->
         let pid = Usys.fork (fun () -> Usys.exec "/child" [ "child"; "x" ]) in
         ignore pid;
         ignore (Usys.wait ());
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_bool "child printed argv" true
    (let out = Core.Kernel.uart_output kernel in
     String.length out >= 7
     &&
     let rec has i =
       i + 7 <= String.length out
       && (String.equal (String.sub out i 7) "child,x" || has (i + 1))
     in
     has 0)

let sched_exec_missing_program () =
  in_kernel (fun _ ->
      check_int "ENOENT" (-Core.Errno.enoent) (Usys.exec "/nothere" [ "x" ]))

let sched_uptime_monotone () =
  in_kernel (fun _ ->
      let a = Usys.uptime_ms () in
      ignore (Usys.sleep 10);
      let b = Usys.uptime_ms () in
      check_bool "uptime advanced" true (b >= a + 10))

(* ENOSYS gating, the behavioural copy of Table 1: every stage-gated
   syscall, issued once with harmless arguments at each prototype. A row
   reads P1..P5; "x" means the call is served (whatever it returns), "."
   means -ENOSYS. Calls run in this order, so fork's child is reaped by
   wait. *)
let gating_table =
  let open Core.Abi in
  let b = Bytes.of_string "g" in
  [
    ("sleep", ".xxxx", Sleep 1);
    ("nice", ".xxxx", Nice 0);
    ("fork", "..xxx", Fork (fun () -> 0));
    ("wait", "..xxx", Wait);
    ("kill", "..xxx", Kill 9999);
    ("sbrk", "..xxx", Sbrk 0);
    ("mmap fb", "..xxx", Mmap (-1));
    ("write 1", "..xxx", Write (1, b));
    ("exec", "...xx", Exec ("/nothere", [ "x" ]));
    ("open", "...xx", Open ("/nothere", o_rdonly));
    ("close", "...xx", Close 99);
    ("read", "...xx", Read (99, 1));
    ("write 99", "...xx", Write (99, b));
    ("lseek", "...xx", Lseek (99, 0, 0));
    ("dup", "...xx", Dup 99);
    ("pipe", "...xx", Pipe 0);
    ("fstat", "...xx", Fstat 99);
    ("mkdir", "...xx", Mkdir "/gate");
    ("unlink", "...xx", Unlink "/nothere");
    ("chdir", "...xx", Chdir "/");
    ("fsync", "...xx", Fsync 99);
    ("poll", "....x", Poll ([ 0 ], 0));
    ("clone", "....x", Clone (fun () -> 0));
    ("join", "....x", Join 9999);
    ("sem_open", "....x", Sem_open 1);
    ("sem_post", "....x", Sem_post 9999);
    ("sem_wait", "....x", Sem_wait 9999);
    ("sem_close", "....x", Sem_close 9999);
  ]

let sched_feature_gating () =
  let served = Array.make_matrix (List.length gating_table) 5 '?' in
  for k = 1 to 5 do
    let kernel =
      boot_kernel ~config:{ (Core.Kconfig.prototype k) with kcheck = true } ()
    in
    (* P1-2 have no userspace: their code runs as kernel tasks *)
    let spawn =
      if k <= 2 then Core.Kernel.spawn_kernel else Core.Kernel.spawn_user
    in
    let finished = ref false in
    ignore
      (spawn kernel ~name:"gate" (fun () ->
           List.iteri
             (fun i (_, _, call) ->
               served.(i).(k - 1) <-
                 (match Usys.sys call with
                 | Core.Abi.R_int e when e = -Core.Errno.enosys -> '.'
                 | _ -> 'x'))
             gating_table;
           finished := true;
           0));
    Benchlib.Measure.drive kernel
      ~deadline:(Int64.add (Core.Kernel.now kernel) (Sim.Engine.sec 10))
      ~stop:(fun () -> !finished);
    check_bool (Printf.sprintf "P%d gate task finished" k) true !finished
  done;
  let table row =
    String.concat "\n"
      (List.mapi
         (fun i (name, expected, _) -> Printf.sprintf "%-9s %s" name (row i expected))
         gating_table)
  in
  check_string "ENOSYS table, P1..P5"
    (table (fun _ expected -> expected))
    (table (fun i _ -> String.init 5 (fun c -> served.(i).(c))));
  (* Prototype 3's write() is hardwired to the UART (par 4.3) *)
  check_bool "P3 write reaches the UART" true
    (let p3 = { (Core.Kconfig.prototype 3) with kcheck = true } in
     in_kernel ~config:p3 (fun _ -> Usys.write_str 1 "p3" > 0))

let suite_sched =
  ( "kernel.sched",
    [
      quick "getpid cost ~3us" sched_getpid_cost;
      quick "sleep advances virtual time" sched_sleep_advances_time;
      quick "fork/wait/exit" sched_fork_wait_exit;
      quick "fork pid visibility" sched_fork_returns_child_pid_to_parent;
      quick "many children" sched_many_children;
      quick "preemption interleaves" sched_preemption_interleaves;
      quick "multicore parallelism" sched_multicore_parallelism;
      quick "kill running task" sched_kill_running;
      quick "kill blocked task" sched_kill_blocked;
      quick "exec replaces image" sched_exec_replaces_image;
      quick "exec missing program" sched_exec_missing_program;
      quick "uptime monotone" sched_uptime_monotone;
      quick "prototype feature gating (ENOSYS)" sched_feature_gating;
    ] )

(* ---- virtual memory ---- *)

let vm_sbrk_grows_and_shrinks () =
  in_kernel (fun kernel ->
      let used0 = Core.Kalloc.used_pages kernel.Core.Kernel.kalloc in
      let brk0 = Usys.sbrk 0 in
      let addr = Usys.sbrk 65536 in
      check_int "sbrk returns old break" brk0 addr;
      check_bool "pages allocated" true
        (Core.Kalloc.used_pages kernel.Core.Kernel.kalloc >= used0 + 16);
      ignore (Usys.sbrk (-65536));
      check_int "back to start" brk0 (Usys.sbrk 0))

let vm_fork_copies_pages () =
  in_kernel (fun kernel ->
      ignore (Usys.sbrk (40 * 4096));
      let used_before = Core.Kalloc.used_pages kernel.Core.Kernel.kalloc in
      let child = Usys.fork (fun () -> ignore (Usys.sleep 1_000_000); 0) in
      let used_after = Core.Kalloc.used_pages kernel.Core.Kernel.kalloc in
      check_bool "eager copy >= 40 pages" true (used_after - used_before >= 40);
      ignore (Usys.kill child);
      ignore (Usys.wait ()))

let vm_exit_frees_memory () =
  let kernel = boot_kernel () in
  let used0 = Core.Kalloc.used_pages kernel.Core.Kernel.kalloc in
  (match
     Benchlib.Measure.run_task kernel ~name:"hog" (fun () ->
         ignore (Usys.sbrk (100 * 4096));
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  run_for kernel 1;
  (* reap: spawn a waiter? the hog was parentless; memory must already be
     freed at exit *)
  check_in_range "memory returned"
    (float_of_int (used0 - 4))
    (float_of_int (used0 + 4))
    (float_of_int (Core.Kalloc.used_pages kernel.Core.Kernel.kalloc))

let vm_stack_faults () =
  let kalloc = Core.Kalloc.create ~dram_bytes:(64 * 1024 * 1024) ~kernel_reserved_bytes:0 in
  let vm = Result.get_ok (Core.Vm.create kalloc ~code_pages:4) in
  check_int "starts with 1 stack page" 1 vm.Core.Vm.stack_pages;
  (match Core.Vm.fault_stack vm ~addr:0xff0000 with
  | `Grown -> ()
  | _ -> Alcotest.fail "expected growth");
  check_int "grew" 2 vm.Core.Vm.stack_pages;
  (* repeated faults at the same address must kill (par 4.3) *)
  let rec hammer n =
    if n > 10 then Alcotest.fail "never killed"
    else
      match Core.Vm.fault_stack vm ~addr:0xdead with
      | `Kill_repeated_fault -> ()
      | `Grown | `Kill_stack_overflow | `Kill_oom -> hammer (n + 1)
  in
  hammer 0

let vm_clone_shares_space () =
  let kalloc = Core.Kalloc.create ~dram_bytes:(64 * 1024 * 1024) ~kernel_reserved_bytes:0 in
  let vm = Result.get_ok (Core.Vm.create kalloc ~code_pages:4) in
  let used_before = Core.Kalloc.used_pages kalloc in
  let shared = Core.Vm.share vm in
  check_int "no pages copied" used_before (Core.Kalloc.used_pages kalloc);
  check_int "refcount 2" 2 (Core.Vm.refcount shared);
  Core.Vm.destroy shared;
  check_bool "still alive" true (Core.Kalloc.used_pages kalloc = used_before);
  Core.Vm.destroy vm;
  check_int "all freed" 0 (Core.Kalloc.used_pages kalloc)

let vm_mmap_identity () =
  let kalloc = Core.Kalloc.create ~dram_bytes:(64 * 1024 * 1024) ~kernel_reserved_bytes:0 in
  let vm = Result.get_ok (Core.Vm.create kalloc ~code_pages:1) in
  Core.Vm.map_fb vm;
  match Core.Vm.find_mapping vm ~name:"fb" with
  | Some m ->
      check_int "identity-mapped at the bus address" Core.Vm.fb_bus_address
        m.Core.Vm.map_base
  | None -> Alcotest.fail "find_mapping lost the fb mapping"

let kalloc_exhaustion_and_double_free () =
  let k = Core.Kalloc.create ~dram_bytes:(16 * 4096) ~kernel_reserved_bytes:0 in
  let frames = List.init 16 (fun _ -> Core.Kalloc.alloc_page k) in
  check_bool "all allocated" true (List.for_all Option.is_some frames);
  check_bool "exhausted" true (Core.Kalloc.alloc_page k = None);
  let f = Option.get (List.hd frames) in
  Core.Kalloc.free_page k f;
  Alcotest.check_raises "double free detected"
    (Core.Kpanic.Panic (Printf.sprintf "kalloc: double free of frame %d" f))
    (fun () -> Core.Kalloc.free_page k f)

(* A refused sbrk touches nothing. The 1 GB request exceeds free memory,
   so Kalloc must say no before it moves a frame: no page counted as
   used, no /proc/meminfo Peak raised to MemTotal, no free-list churn
   that would change the next frame handed out, and no host allocation
   in proportion to free memory. *)
let vm_refused_sbrk_touches_nothing () =
  let kernel = boot_kernel () in
  let k = kernel.Core.Kernel.kalloc in
  let next_of () =
    match Core.Kalloc.alloc_page k with
    | Some f ->
        Core.Kalloc.free_page k f;
        f
    | None -> Alcotest.fail "no free frame"
  in
  let snapshot () =
    let next = next_of () in
    (next, Core.Kalloc.used_pages k, Core.Kalloc.peak_bytes k, k.Core.Kalloc.next_frame)
  in
  (* the checks run outside the task, so a failure names itself *)
  let r, bytes, (next, used, peak, cursor), (next', used', peak', cursor') =
    match
      Benchlib.Measure.run_task kernel ~name:"hog" (fun () ->
          let before = snapshot () in
          let b0 = Gc.allocated_bytes () in
          let r = Usys.sbrk (1 lsl 30) in
          let bytes = Gc.allocated_bytes () -. b0 in
          (r, bytes, before, snapshot ()))
    with
    | Ok (v, _) -> v
    | Error e -> Alcotest.fail e
  in
  check_int "ENOMEM" (-Core.Errno.enomem) r;
  check_int "used pages" used used';
  check_int "meminfo Peak" peak peak';
  check_int "fresh-frame cursor" cursor cursor';
  check_int "next frame" next next';
  check_bool
    (Printf.sprintf "refusal allocated %.0f bytes (< 64 KiB)" bytes)
    true (bytes < 65536.)

(* An idle tick allocates almost nothing. With no framebuffer there is
   no WM thread, so nothing is runnable: each core takes its 1 ms timer
   IRQ, finds nothing to dispatch and re-arms its timer. What that
   allocates (41.5 words) is the next shot's engine event, the events
   traced and a few boxed times; the ring stores the tick's four trace
   entries in its columns and allocates nothing for them. A trace
   record per emit would add 32 words a tick; a name built per IRQ, a
   closure per timer shot and an option per engine pop together roughly
   doubled what was left. *)
let idle_tick_allocates_little () =
  let kernel =
    Core.Kernel.boot
      { Core.Kernel.default_spec with sp_config = test_config; sp_fb = None }
  in
  let sched = kernel.Core.Kernel.sched in
  let sum f =
    Array.fold_left (fun n c -> n + f c) 0 sched.Core.Sched.cores
  in
  let ticks () = sum (fun c -> c.Core.Sched.ticks) in
  let switches () =
    sum (fun c -> c.Core.Sched.stats.Core.Sched.switches.Core.Kperf.n)
  in
  let t0 = ticks () and s0 = switches () in
  let w0 = Gc.minor_words () in
  Core.Kernel.run_for kernel (Sim.Engine.ms 1000);
  let words = Gc.minor_words () -. w0 in
  let n = ticks () - t0 in
  check_int "nothing was dispatched" s0 (switches ());
  check_int "each of 4 cores ticked every ms" 4000 n;
  let per_tick = words /. float_of_int n in
  check_bool
    (Printf.sprintf "an idle tick allocated %.1f words (< 48)" per_tick)
    true (per_tick < 48.)

let kalloc_state k =
  ( Core.Kalloc.free_pages k,
    k.Core.Kalloc.next_frame,
    k.Core.Kalloc.peak_pages,
    Stack.length k.Core.Kalloc.free_list,
    Hashtbl.length k.Core.Kalloc.allocated )

let kalloc_alloc_pages_boundary () =
  let k = Core.Kalloc.create ~dram_bytes:(16 * 4096) ~kernel_reserved_bytes:0 in
  (* a non-empty free list and a moved cursor, so both are checked *)
  let held = Option.get (Core.Kalloc.alloc_pages k 5) in
  Core.Kalloc.free_page k (List.hd held);
  let free = Core.Kalloc.free_pages k in
  check_int "free pages" 12 free;
  let state = kalloc_state k in
  check_bool "free + 1 refused" true (Core.Kalloc.alloc_pages k (free + 1) = None);
  check_bool "refusal changed nothing" true (kalloc_state k = state);
  match Core.Kalloc.alloc_pages k free with
  | None -> Alcotest.fail "exactly the free pages refused"
  | Some frames ->
      check_int "got them all" free (List.length frames);
      check_int "none left" 0 (Core.Kalloc.free_pages k);
      check_int "distinct frames" 16
        (List.length (List.sort_uniq compare (frames @ List.tl held)));
      check_bool "then 1 refused" true (Core.Kalloc.alloc_pages k 1 = None)

let vm_destroy_frees_own_frames () =
  let k = Core.Kalloc.create ~dram_bytes:(64 * 1024 * 1024) ~kernel_reserved_bytes:0 in
  let a = Result.get_ok (Core.Vm.create k ~code_pages:4) in
  let b = Result.get_ok (Core.Vm.create k ~code_pages:2) in
  ignore (Result.get_ok (Core.Vm.sbrk a (3 * 4096)));
  ignore (Result.get_ok (Core.Vm.sbrk b (5 * 4096)));
  let mine = a.Core.Vm.frames and theirs = b.Core.Vm.frames in
  check_int "a holds its resident pages" (Core.Vm.resident_pages a) (List.length mine);
  check_int "b holds its resident pages" (Core.Vm.resident_pages b) (List.length theirs);
  let used = Core.Kalloc.used_pages k in
  Core.Vm.destroy a;
  check_int "exactly a's pages returned" (used - List.length mine)
    (Core.Kalloc.used_pages k);
  check_bool "a's frames are free" false
    (List.exists (Hashtbl.mem k.Core.Kalloc.allocated) mine);
  check_bool "b's frames stay allocated" true
    (List.for_all (Hashtbl.mem k.Core.Kalloc.allocated) theirs);
  Core.Vm.destroy b;
  check_int "all freed" 0 (Core.Kalloc.used_pages k)

(* A fork that runs out of memory halfway keeps nothing: the child's
   code and stack pages, which it got before the heap copy was refused,
   go back too. *)
let vm_refused_fork_keeps_nothing () =
  let k = Core.Kalloc.create ~dram_bytes:(64 * 4096) ~kernel_reserved_bytes:0 in
  let vm = Result.get_ok (Core.Vm.create k ~code_pages:4) in
  ignore (Result.get_ok (Core.Vm.sbrk vm (40 * 4096)));
  let used = Core.Kalloc.used_pages k in
  check_bool "fork refused" true (Result.is_error (Core.Vm.fork_copy vm));
  check_int "no pages kept" used (Core.Kalloc.used_pages k)

let vm_overfree_panics () =
  let k = Core.Kalloc.create ~dram_bytes:(64 * 1024 * 1024) ~kernel_reserved_bytes:0 in
  let vm = Result.get_ok (Core.Vm.create k ~code_pages:2) in
  let held = List.length vm.Core.Vm.frames in
  let used = Core.Kalloc.used_pages k in
  Alcotest.check_raises "over-free detected"
    (Core.Kpanic.Panic
       (Printf.sprintf "vm: as%d frees %d pages but holds %d" vm.Core.Vm.asid
          (held + 1) held))
    (fun () -> Core.Vm.free_frames vm (held + 1));
  check_int "nothing freed" used (Core.Kalloc.used_pages k)

let suite_vm =
  ( "kernel.vm",
    [
      quick "sbrk grows and shrinks" vm_sbrk_grows_and_shrinks;
      quick "fork copies pages eagerly" vm_fork_copies_pages;
      quick "exit frees memory" vm_exit_frees_memory;
      quick "demand-paged stack + repeated-fault kill" vm_stack_faults;
      quick "clone shares the address space" vm_clone_shares_space;
      quick "fb mmap is identity-mapped" vm_mmap_identity;
      quick "kalloc exhaustion and double free" kalloc_exhaustion_and_double_free;
      quick "refused sbrk touches nothing" vm_refused_sbrk_touches_nothing;
      quick "idle tick allocates little" idle_tick_allocates_little;
      quick "kalloc alloc_pages at the boundary" kalloc_alloc_pages_boundary;
      quick "destroy frees only its own frames" vm_destroy_frees_own_frames;
      quick "refused fork keeps nothing" vm_refused_fork_keeps_nothing;
      quick "freeing more than held panics" vm_overfree_panics;
    ] )

(* ---- pipes, semaphores, threads ---- *)

let pipe_roundtrip () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      check_int "write" 5 (Usys.write w (Bytes.of_string "hello"));
      let back = Result.get_ok (Usys.read r 5) in
      check_string "read" "hello" (Bytes.to_string back))

let pipe_blocks_until_data () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      let child =
        Usys.fork (fun () ->
            ignore (Usys.sleep 20);
            ignore (Usys.write w (Bytes.of_string "late"));
            0)
      in
      let t0 = Usys.uptime_ms () in
      let back = Result.get_ok (Usys.read r 4) in
      let waited = Usys.uptime_ms () - t0 in
      check_string "data arrives" "late" (Bytes.to_string back);
      check_bool "reader blocked ~20ms" true (waited >= 18);
      ignore child;
      ignore (Usys.wait ()))

let pipe_eof_on_writer_close () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      ignore (Usys.write w (Bytes.of_string "x"));
      ignore (Usys.close w);
      check_string "drain" "x" (Bytes.to_string (Result.get_ok (Usys.read r 10)));
      check_int "EOF" 0 (Bytes.length (Result.get_ok (Usys.read r 10))))

let pipe_write_blocks_when_full () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      (* fill beyond the 512-byte xv6 buffer; needs a concurrent reader *)
      let reader =
        Usys.fork (fun () ->
            let total = ref 0 in
            while !total < 2048 do
              match Usys.read r 256 with
              | Ok b when Bytes.length b > 0 -> total := !total + Bytes.length b
              | Ok _ | Error _ -> total := 4096
            done;
            0)
      in
      check_int "large write completes" 2048 (Usys.write w (Bytes.make 2048 'z'));
      ignore reader;
      ignore (Usys.wait ()))

let pipe_fork_shares_ends () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      let child = Usys.fork (fun () -> Usys.write w (Bytes.of_string "from child")) in
      let back = Result.get_ok (Usys.read r 10) in
      check_string "ipc" "from child" (Bytes.to_string back);
      ignore child;
      ignore (Usys.wait ()))

(* ---- the POSIX pipe fixes, poll(2) and the rebuilt fast path ---- *)

let pipe_epipe_without_readers () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      check_int "close read end" 0 (Usys.close r);
      check_int "write is EPIPE" (-Core.Errno.epipe)
        (Usys.write w (Bytes.of_string "nobody")))

let pipe_partial_write_when_readers_vanish () =
  let n = ref 0 in
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      let child =
        Usys.fork (fun () ->
            ignore (Usys.sleep 10);
            ignore (Usys.read r 512);
            ignore (Usys.close r);
            0)
      in
      ignore (Usys.close r);
      (* 2048 > the 512-byte buffer, so the write blocks mid-transfer; the
         reader drains once and closes, and the write must report the
         bytes already sent — before the fix it returned -EINVAL *)
      n := Usys.write w (Bytes.make 2048 'p');
      ignore child;
      ignore (Usys.wait ()));
  check_bool "partial count, not an error" true (!n > 0 && !n < 2048)

let kbd_short_read_einval () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/dev/events" Core.Abi.o_rdonly in
      check_bool "open /dev/events" true (fd >= 0);
      (* a buffer shorter than one 8-byte event used to overrun; now it is
         rejected outright *)
      (match Usys.read fd 4 with
      | Error e -> check_int "EINVAL" Core.Errno.einval e
      | Ok _ -> Alcotest.fail "short event read succeeded");
      check_int "close" 0 (Usys.close fd))

let pipe_nonblock_read_eagain () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe2 Core.Abi.o_nonblock) in
      (match Usys.read r 8 with
      | Error e -> check_int "EAGAIN when empty" Core.Errno.eagain e
      | Ok _ -> Alcotest.fail "empty nonblocking read succeeded");
      ignore (Usys.write w (Bytes.of_string "data"));
      check_string "readable once data arrives" "data"
        (Bytes.to_string (Result.get_ok (Usys.read r 8)));
      (* an overfull nonblocking write takes the partial and returns *)
      check_int "partial nonblocking write" 512
        (Usys.write w (Bytes.make 600 'f')))

let sem_refs_across_fork_and_exit () =
  in_kernel (fun _ ->
      let sem = Usys.sem_open 0 in
      check_bool "opened" true (sem > 0);
      let child =
        Usys.fork (fun () ->
            (* fork gave the child its own reference: closing it and
               exiting must not free the parent's semaphore *)
            ignore (Usys.sem_post sem);
            ignore (Usys.sem_close sem);
            0)
      in
      ignore (Usys.wait ());
      check_int "parent's ref survives the child" 0 (Usys.sem_wait sem);
      ignore child;
      (* but a semaphore whose only holder exits is released *)
      let id = ref (-1) in
      ignore (Usys.fork (fun () -> id := Usys.sem_open 0; 0));
      ignore (Usys.wait ());
      check_int "orphaned sem is gone" (-Core.Errno.einval)
        (Usys.sem_post !id))

let poll_pipe_multiplex () =
  in_kernel (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      check_int "bad fd" (-Core.Errno.ebadf) (Usys.poll [ 99 ] ~timeout_ms:0);
      check_int "probe empty" 0 (Usys.poll [ r ] ~timeout_ms:0);
      ignore (Usys.write w (Bytes.of_string "x"));
      check_int "read end ready" 1 (Usys.poll [ r ] ~timeout_ms:0);
      check_int "both ends ready" 3 (Usys.poll [ r; w ] ~timeout_ms:0);
      ignore (Usys.read r 1);
      (* a blocking poll parks until a producer makes the fd ready *)
      let child =
        Usys.fork (fun () ->
            ignore (Usys.sleep 20);
            Usys.write w (Bytes.of_string "y"))
      in
      let t0 = Usys.uptime_ms () in
      check_int "woken ready" 1 (Usys.poll [ r ] ~timeout_ms:(-1));
      check_bool "blocked until the write" true (Usys.uptime_ms () - t0 >= 18);
      ignore child;
      ignore (Usys.wait ()))

let poll_timeout_expires () =
  in_kernel (fun _ ->
      let r, _w = Result.get_ok (Usys.pipe ()) in
      let t0 = Usys.uptime_ms () in
      check_int "timed out empty-handed" 0 (Usys.poll [ r ] ~timeout_ms:25);
      check_in_range "~25ms" 24.0 35.0 (float_of_int (Usys.uptime_ms () - t0)))

let proc_ipc_reports_edge_stats () =
  let edge_cfg =
    {
      Core.Kconfig.full with
      Core.Kconfig.pipe_ring = true;
      pipe_buffer_bytes = 4096;
      pipe_wake_edge = true;
    }
  in
  in_kernel ~config:edge_cfg (fun _ ->
      let r, w = Result.get_ok (Usys.pipe ()) in
      ignore (Usys.write w (Bytes.of_string "abc")); (* empty->non-empty *)
      ignore (Usys.read r 3); (* pipe was not full: wakeup suppressed *)
      let text = Bytes.to_string (Result.get_ok (Usys.slurp "/proc/ipc")) in
      let field key =
        let lines = String.split_on_char '\n' text in
        match
          List.find_opt (fun l -> String.starts_with ~prefix:key l) lines
        with
        | None -> Alcotest.failf "missing %s in /proc/ipc" key
        | Some l -> (
            match List.rev (String.split_on_char ' ' (String.trim l)) with
            | v :: _ -> v
            | [] -> "")
      in
      check_string "ring impl" "ring" (field "pipe_impl");
      check_string "edge mode" "edge" (field "wake_mode");
      check_bool "a wakeup was issued" true
        (int_of_string (field "wakeups_issued") >= 1);
      check_bool "a wakeup was suppressed" true
        (int_of_string (field "wakeups_suppressed") >= 1);
      check_bool "writes counted" true
        (int_of_string (field "pipe_writes") >= 1))

(* Capacity is the ring's size, whatever the charge model: the xv6 pipe
   at 1024 bytes holds 1024. *)
let pipe_capacity_is_buffer_bytes () =
  let config = { Core.Kconfig.full with Core.Kconfig.pipe_buffer_bytes = 1024 } in
  in_kernel ~config (fun _ ->
      let _r, w = Result.get_ok (Usys.pipe2 Core.Abi.o_nonblock) in
      check_int "nonblocking write fills the ring" 1024
        (Usys.write w (Bytes.make 2000 'c'));
      let text = Bytes.to_string (Result.get_ok (Usys.slurp "/proc/ipc")) in
      check_bool "/proc/ipc reports the ring size" true
        (List.exists
           (fun l ->
             String.starts_with ~prefix:"buffer_bytes" l
             && String.ends_with ~suffix:" 1024" l)
           (String.split_on_char '\n' text)))

(* A transfer copies inside one [plock] window, as xv6's pipewrite and
   piperead hold the lock across the whole copy loop: a 100-byte write
   and read take a handful of lock acquisitions, not one per byte. *)
let pipe_transfer_is_one_lock_window () =
  in_kernel ~config:Core.Kconfig.full (fun kernel ->
      let vp = kernel.Core.Kernel.sched.Core.Sched.vprobe in
      let probe =
        match Core.Vprobe.attach vp "probe lock:acquire / * / count" with
        | Ok _ -> List.hd vp.Core.Vprobe.all
        | Error e -> Alcotest.failf "attach: %s" e
      in
      let r, w = Result.get_ok (Usys.pipe ()) in
      let before = probe.Core.Vprobe.pr_fired in
      check_int "wrote" 100 (Usys.write w (Bytes.make 100 'l'));
      check_int "read" 100 (Bytes.length (Result.get_ok (Usys.read r 100)));
      let fired = probe.Core.Vprobe.pr_fired - before in
      check_bool
        (Printf.sprintf "lock acquisitions %d < 20" fired)
        true (fired < 20))

(* The fast path must be a pure performance change: the byte stream a
   ring pipe delivers — including across the wrap boundary — is identical
   to the xv6 pipe's. *)
let ring_pipe_matches_xv6_data () =
  let stream config =
    in_kernel ~config (fun _ ->
        let r, w = Result.get_ok (Usys.pipe ()) in
        let buf = Buffer.create 1024 in
        (* 10 x 100 bytes through a 256-byte ring: wraps repeatedly *)
        for i = 0 to 9 do
          let chunk =
            Bytes.init 100 (fun j -> Char.chr (((i * 31) + (j * 7)) land 0xff))
          in
          ignore (Usys.write w chunk);
          Buffer.add_bytes buf (Result.get_ok (Usys.read r 100))
        done;
        Buffer.contents buf)
  in
  let ring_cfg =
    {
      Core.Kconfig.full with
      Core.Kconfig.pipe_ring = true;
      pipe_buffer_bytes = 256;
      pipe_wake_edge = true;
    }
  in
  let a = stream Core.Kconfig.full in
  let b = stream ring_cfg in
  check_int "same length" (String.length a) (String.length b);
  check_bool "identical byte stream" true (String.equal a b)

let sem_mutual_exclusion () =
  in_kernel (fun _ ->
      let m = Uthread.Mutex.create () in
      let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
      let worker () =
        for _ = 1 to 20 do
          Uthread.Mutex.with_lock m (fun () ->
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              Usys.burn 20_000;
              incr total;
              decr inside)
        done;
        0
      in
      let tids = List.init 4 (fun _ -> Uthread.spawn worker) in
      List.iter (fun tid -> ignore (Uthread.join tid)) tids;
      check_int "critical section exclusive" 1 !max_inside;
      check_int "all iterations" 80 !total)

let sem_condvar_signal () =
  in_kernel (fun _ ->
      let m = Uthread.Mutex.create () in
      let cv = Uthread.Cond.create () in
      let ready = ref false and observed = ref false in
      let waiter =
        Uthread.spawn (fun () ->
            Uthread.Mutex.lock m;
            while not !ready do
              Uthread.Cond.wait cv m
            done;
            observed := true;
            Uthread.Mutex.unlock m;
            0)
      in
      ignore (Usys.sleep 10);
      Uthread.Mutex.lock m;
      ready := true;
      Uthread.Cond.signal cv;
      Uthread.Mutex.unlock m;
      ignore (Uthread.join waiter);
      check_bool "condvar woke the waiter" true !observed)

let clone_shares_memory () =
  in_kernel (fun _ ->
      let shared = ref 0 in
      let tid = Usys.clone (fun () -> shared := 41; 0) in
      ignore (Usys.join tid);
      check_int "thread wrote shared state" 41 !shared)

let join_returns_exit_code () =
  in_kernel (fun _ ->
      let tid = Usys.clone (fun () -> 123) in
      check_int "join code" 123 (Usys.join tid))

let semaphore_counting () =
  in_kernel (fun _ ->
      let sem = Usys.sem_open 2 in
      check_int "wait 1" 0 (Usys.sem_wait sem);
      check_int "wait 2" 0 (Usys.sem_wait sem);
      (* third waiter must block until a post *)
      let done_ = ref false in
      let tid = Usys.clone (fun () -> ignore (Usys.sem_wait sem); done_ := true; 0) in
      ignore (Usys.sleep 5);
      check_bool "blocked" false !done_;
      ignore (Usys.sem_post sem);
      ignore (Usys.join tid);
      check_bool "released" true !done_;
      check_int "close" 0 (Usys.sem_close sem))

let ipc_latency_in_range () =
  let kernel = boot_kernel () in
  let us = Benchlib.Micro.ipc_us ~iters:500 kernel in
  (* the paper's ~21 us one-way *)
  check_in_range "one-way pipe latency" 14.0 28.0 us

(* Pids, pipe ids, file ids and ASIDs are per-kernel streams: booting a
   second kernel must not rewind the first one's. At one shared stream a
   new pipe in the first kernel reused a live pipe's id, and with it that
   pipe's wait channels (pipe:<id>:r, pipe:<id>:w); a new task reused a
   live address space's ASID. *)
let id_streams_are_per_kernel () =
  (* a user task's ids: pid, its console file on fd 0, its ASID *)
  let spawn k =
    let task = Core.Kernel.spawn_user k ~name:"idle" (fun () -> 0) in
    let pid = task.Core.Task.pid in
    let file =
      match Core.Fd.get k.Core.Kernel.fdt ~pid ~fd:0 with
      | Some f -> f.Core.Fd.file_id
      | None -> Alcotest.fail "no console file on fd 0"
    in
    match task.Core.Task.vm with
    | Some vm -> (pid, file, vm.Core.Vm.asid)
    | None -> Alcotest.fail "a user task without an address space"
  in
  let pipe k =
    (Core.Pipe.create k.Core.Kernel.vfs.Core.Vfs.ipc
       ~trace:k.Core.Kernel.sched.Core.Sched.trace)
      .Core.Pipe.pipe_id
  in
  let a = boot_kernel () in
  let tasks = List.init 3 (fun _ -> spawn a) in
  let pipes = List.init 3 (fun _ -> pipe a) in
  let b = boot_kernel () in
  ignore (spawn b);
  ignore (pipe b);
  let pid, file, asid = spawn a and id = pipe a in
  let live f = List.map f tasks in
  check_bool (Printf.sprintf "pid %d is new in its kernel" pid) false
    (List.mem pid (live (fun (p, _, _) -> p)));
  check_bool (Printf.sprintf "pipe id %d is new in its kernel" id) false
    (List.mem id pipes);
  check_bool (Printf.sprintf "file id %d is new in its kernel" file) false
    (List.mem file (live (fun (_, f, _) -> f)));
  check_bool (Printf.sprintf "ASID %d is new in its kernel" asid) false
    (List.mem asid (live (fun (_, _, s) -> s)))

let suite_ipc =
  ( "kernel.ipc",
    [
      quick "pipe roundtrip" pipe_roundtrip;
      quick "pipe blocks until data" pipe_blocks_until_data;
      quick "pipe EOF on writer close" pipe_eof_on_writer_close;
      quick "pipe write blocks when full" pipe_write_blocks_when_full;
      quick "pipe ends shared across fork" pipe_fork_shares_ends;
      quick "mutex mutual exclusion" sem_mutual_exclusion;
      quick "condvar signal" sem_condvar_signal;
      quick "clone shares memory" clone_shares_memory;
      quick "join returns exit code" join_returns_exit_code;
      quick "semaphore counting" semaphore_counting;
      quick "pipe IPC latency ~21us" ipc_latency_in_range;
      quick "write without readers is EPIPE" pipe_epipe_without_readers;
      quick "blocked write returns partial when readers vanish"
        pipe_partial_write_when_readers_vanish;
      quick "short /dev/events read is EINVAL" kbd_short_read_einval;
      quick "O_NONBLOCK pipe EAGAIN and partial write" pipe_nonblock_read_eagain;
      quick "semaphore refs across fork and exit" sem_refs_across_fork_and_exit;
      quick "poll multiplexes pipe fds" poll_pipe_multiplex;
      quick "poll timeout expires" poll_timeout_expires;
      quick "/proc/ipc reports edge wakeup counts" proc_ipc_reports_edge_stats;
      quick "ring pipe bytes identical to xv6 pipe" ring_pipe_matches_xv6_data;
      quick "pipe capacity is pipe_buffer_bytes under the xv6 charge"
        pipe_capacity_is_buffer_bytes;
      quick "a pipe transfer is one plock window" pipe_transfer_is_one_lock_window;
      quick "pid and pipe-id streams are per kernel, as are file ids and ASIDs"
        id_streams_are_per_kernel;
    ] )

(* ---- file syscalls through the VFS ---- *)

let files_create_write_read () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/notes.txt" (Core.Abi.o_create lor Core.Abi.o_rdwr) in
      check_bool "fd valid" true (fd >= 0);
      check_int "write" 9 (Usys.write_str fd "vos rules");
      check_int "seek home" 0 (Usys.lseek fd 0 Core.Abi.seek_set);
      check_string "read back" "vos rules"
        (Bytes.to_string (Result.get_ok (Usys.read fd 64)));
      check_int "close" 0 (Usys.close fd))

let files_fat_mount_routing () =
  in_kernel (fun _ ->
      (* same code path, two filesystems by prefix (par 4.5) *)
      let fd1 = Usys.open_ "/root-file" (Core.Abi.o_create lor Core.Abi.o_wronly) in
      let fd2 = Usys.open_ "/d/fat-file" (Core.Abi.o_create lor Core.Abi.o_wronly) in
      check_bool "both open" true (fd1 >= 0 && fd2 >= 0);
      ignore (Usys.write_str fd1 "xv6 side");
      ignore (Usys.write_str fd2 "fat side");
      ignore (Usys.close fd1);
      ignore (Usys.close fd2);
      let st1 = Result.get_ok (Usys.fstat (Usys.open_ "/root-file" Core.Abi.o_rdonly)) in
      let st2 = Result.get_ok (Usys.fstat (Usys.open_ "/d/fat-file" Core.Abi.o_rdonly)) in
      check_int "xv6 size" 8 st1.Core.Abi.stat_size;
      check_int "fat size" 8 st2.Core.Abi.stat_size)

let files_lseek_whence () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/s.txt" (Core.Abi.o_create lor Core.Abi.o_rdwr) in
      ignore (Usys.write_str fd "0123456789");
      check_int "seek_set" 3 (Usys.lseek fd 3 Core.Abi.seek_set);
      check_int "seek_cur" 5 (Usys.lseek fd 2 Core.Abi.seek_cur);
      check_int "seek_end" 10 (Usys.lseek fd 0 Core.Abi.seek_end);
      check_int "bad seek" (-Core.Errno.einval) (Usys.lseek fd (-99) Core.Abi.seek_set);
      ignore (Usys.close fd))

let files_dup_shares_offset () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/dup.txt" (Core.Abi.o_create lor Core.Abi.o_rdwr) in
      ignore (Usys.write_str fd "abcdef");
      ignore (Usys.lseek fd 0 Core.Abi.seek_set);
      let fd2 = Usys.dup fd in
      ignore (Result.get_ok (Usys.read fd 2)) (* advance through fd *);
      check_string "dup sees the shared offset" "cd"
        (Bytes.to_string (Result.get_ok (Usys.read fd2 2)));
      ignore (Usys.close fd);
      (* fd2 still valid after closing fd *)
      check_bool "still readable" true (Result.is_ok (Usys.read fd2 1));
      ignore (Usys.close fd2))

let files_mkdir_unlink_chdir () =
  in_kernel (fun _ ->
      check_int "mkdir" 0 (Usys.mkdir "/work");
      check_int "chdir" 0 (Usys.chdir "/work");
      let fd = Usys.open_ "relative.txt" (Core.Abi.o_create lor Core.Abi.o_wronly) in
      check_bool "relative create" true (fd >= 0);
      ignore (Usys.close fd);
      check_int "visible absolutely" 0
        (let fd = Usys.open_ "/work/relative.txt" Core.Abi.o_rdonly in
         if fd >= 0 then Usys.close fd else fd);
      check_int "unlink" 0 (Usys.unlink "/work/relative.txt");
      check_int "chdir back" 0 (Usys.chdir "/");
      check_int "rmdir" 0 (Usys.unlink "/work");
      check_int "chdir to missing" (-Core.Errno.enoent) (Usys.chdir "/nowhere"))

let files_errors () =
  in_kernel (fun _ ->
      check_int "open missing" (-Core.Errno.enoent) (Usys.open_ "/missing" Core.Abi.o_rdonly);
      check_int "close bad fd" (-Core.Errno.ebadf) (Usys.close 17);
      check_bool "read bad fd" true (Usys.read 17 10 = Error Core.Errno.ebadf);
      check_int "write bad fd" (-Core.Errno.ebadf) (Usys.write 17 (Bytes.of_string "x"));
      (* wrong-direction access *)
      let fd = Usys.open_ "/wr.txt" (Core.Abi.o_create lor Core.Abi.o_wronly) in
      check_bool "read on write-only" true (Usys.read fd 1 = Error Core.Errno.ebadf);
      ignore (Usys.close fd))

(* The errno comes from where the filesystem fails, never from words in
   the path: a name holding "no such" or "exists" changes nothing. *)
let files_mkdir_twice_eexist () =
  (* the returns are checked outside the kernel, so a wrong errno fails
     with both numbers rather than as a task that never finished *)
  let first, second =
    in_kernel (fun _ ->
        let first = Usys.mkdir "/no such" in
        (first, Usys.mkdir "/no such"))
  in
  check_int "first mkdir" 0 first;
  check_int "second mkdir" (-Core.Errno.eexist) second

let files_file_parent_enotdir () =
  let created, ret =
    in_kernel (fun _ ->
        let fd = Usys.open_ "/d/exists" (Core.Abi.o_create lor Core.Abi.o_wronly) in
        ignore (Usys.close fd);
        (fd >= 0, Usys.mkdir "/d/exists/x"))
  in
  check_bool "file created" true created;
  check_int "mkdir under a file" (-Core.Errno.enotdir) ret

let files_trunc_flag () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/t.txt" (Core.Abi.o_create lor Core.Abi.o_wronly) in
      ignore (Usys.write_str fd "long content here");
      ignore (Usys.close fd);
      let fd = Usys.open_ "/t.txt" (Core.Abi.o_trunc lor Core.Abi.o_wronly) in
      ignore (Usys.close fd);
      let st = Result.get_ok (Usys.fstat (Usys.open_ "/t.txt" Core.Abi.o_rdonly)) in
      check_int "truncated" 0 st.Core.Abi.stat_size)

let files_directory_listing () =
  in_kernel (fun _ ->
      ignore (Usys.mkdir "/listing");
      ignore (Usys.close (Usys.open_ "/listing/a" (Core.Abi.o_create lor Core.Abi.o_wronly)));
      ignore (Usys.close (Usys.open_ "/listing/b" (Core.Abi.o_create lor Core.Abi.o_wronly)));
      let fd = Usys.open_ "/listing" Core.Abi.o_rdonly in
      let text = Bytes.to_string (Result.get_ok (Usys.read fd 4096)) in
      ignore (Usys.close fd);
      check_bool "lists a and b" true
        (String.split_on_char '\n' text |> fun lines ->
         List.mem "a" lines && List.mem "b" lines))

let files_fd_exhaustion () =
  in_kernel (fun _ ->
      let opened = ref [] in
      let rec open_all () =
        let fd = Usys.open_ "/dev/null" Core.Abi.o_rdwr in
        if fd >= 0 then begin
          opened := fd :: !opened;
          open_all ()
        end
        else fd
      in
      check_int "EMFILE when table is full" (-Core.Errno.emfile) (open_all ());
      List.iter (fun fd -> ignore (Usys.close fd)) !opened)

let files_range_bypass_ablation () =
  (* par 5.2: range reads bypassing the cache are 2-3x faster *)
  let measure config =
    let kernel = boot_kernel ~config () in
    Benchlib.Micro.prepare_file kernel ~path:"/d/big.bin" ~bytes:(512 * 1024);
    Benchlib.Micro.fs_throughput_kbps kernel ~path:"/d/big.bin"
      ~bytes:(512 * 1024) ~chunk:(128 * 1024) ~direction:`Read
  in
  let fast = measure Core.Kconfig.full in
  let slow =
    measure { Core.Kconfig.full with Core.Kconfig.range_io_bypass = false }
  in
  check_in_range "bypass speedup 2-3.5x" 2.0 3.5 (fast /. slow)

(* One fixed syscall script, run on the rootfs (xv6fs), the SD card's
   FAT32 partition (/d) and a USB stick (/usb), under the stock kernel
   and under write-back with the journal. Every call's return (errno by
   name) and the virtual ns it took are pinned, so a VFS change that
   moves a charge, an errno or a filesystem call (and with it the cache
   and SD-queue state) fails here, naming the call. *)
let script_prog = "pinprog"

let script_velf =
  Core.Velf.build
    { Core.Velf.prog_name = script_prog; code_bytes = 3072; data_bytes = 1024 }

let script_transcript config =
  let lines = ref [] in
  let note line = lines := line :: !lines in
  let kernel =
    Core.Kernel.boot
      {
        Core.Kernel.default_spec with
        sp_config = config;
        sp_programs =
          [
            {
              Core.Kernel.prog_name = script_prog;
              prog_size = 4096;
              prog_main =
                (fun argv ->
                  note ("  ran " ^ String.concat " " argv);
                  0);
            };
          ];
        sp_fat_files = [ ("/" ^ script_prog, script_velf) ];
        sp_usb_files = Some [ ("/" ^ script_prog, script_velf) ];
      }
  in
  let ret r = if r < 0 then Core.Errno.name (-r) else string_of_int r in
  let call label f =
    let t0 = Core.Kernel.now kernel in
    let r = f () in
    note
      (Printf.sprintf "%-26s %-22s %Ld" label r
         (Int64.sub (Core.Kernel.now kernel) t0));
    r
  in
  let int label f = int_of_string_opt (call label (fun () -> ret (f ()))) in
  let fd label f = Option.value ~default:(-1) (int label f) in
  let read label fd n =
    ignore
      (call label (fun () ->
           match Usys.read fd n with
           | Ok b -> Printf.sprintf "%S" (Bytes.to_string b)
           | Error e -> Core.Errno.name e))
  in
  let fstat label fd =
    ignore
      (call label (fun () ->
           match Usys.fstat fd with
           | Ok st ->
               Printf.sprintf "%s/%d/%d/%d"
                 (match st.Core.Abi.stat_type with
                 | Core.Abi.T_dir -> "dir"
                 | Core.Abi.T_file -> "file"
                 | Core.Abi.T_dev -> "dev")
                 st.Core.Abi.stat_size st.Core.Abi.stat_nlink
                 st.Core.Abi.stat_ino
           | Error e -> Core.Errno.name e))
  in
  let ignore_int label f = ignore (int label f) in
  let open Core.Abi in
  let script p =
    note ("mount " ^ if p = "" then "/" else p);
    let f = fd "open creat rdwr" (fun () -> Usys.open_ (p ^ "/pin.txt") (o_create lor o_rdwr)) in
    ignore_int "write" (fun () -> Usys.write_str f "hello, pinned vfs");
    ignore_int "lseek end" (fun () -> Usys.lseek f 0 seek_end);
    ignore_int "lseek end+5" (fun () -> Usys.lseek f 5 seek_end);
    ignore_int "lseek set" (fun () -> Usys.lseek f 0 seek_set);
    read "read" f 64;
    read "read at eof" f 64;
    fstat "fstat" f;
    ignore_int "fsync" (fun () -> Usys.fsync f);
    ignore_int "close" (fun () -> Usys.close f);
    (* push the small file's metadata out of a 64-block cache *)
    let big = fd "open big" (fun () -> Usys.open_ (p ^ "/big.bin") (o_create lor o_wronly)) in
    ignore_int "write big" (fun () -> Usys.write big (Bytes.make (96 * 1024) 'b'));
    ignore_int "close big" (fun () -> Usys.close big);
    let f = fd "open rdonly" (fun () -> Usys.open_ (p ^ "/pin.txt") o_rdonly) in
    fstat "fstat cold" f;
    ignore_int "lseek end cold" (fun () -> Usys.lseek f 0 seek_end);
    ignore_int "close" (fun () -> Usys.close f);
    let f = fd "open trunc" (fun () -> Usys.open_ (p ^ "/pin.txt") (o_trunc lor o_wronly)) in
    fstat "fstat truncated" f;
    ignore_int "close" (fun () -> Usys.close f);
    ignore_int "mkdir" (fun () -> Usys.mkdir (p ^ "/pdir"));
    ignore_int "mkdir again" (fun () -> Usys.mkdir (p ^ "/pdir"));
    ignore_int "mkdir over a file" (fun () -> Usys.mkdir (p ^ "/pin.txt"));
    ignore_int "open dir wronly" (fun () -> Usys.open_ (p ^ "/pdir") o_wronly);
    ignore_int "open missing" (fun () -> Usys.open_ (p ^ "/missing") o_rdonly);
    ignore_int "open under missing" (fun () ->
        Usys.open_ (p ^ "/nodir/x") (o_create lor o_wronly));
    ignore_int "close new" (fun () ->
        Usys.close (Usys.open_ (p ^ "/pdir/a") (o_create lor o_wronly)));
    let d = fd "open dir" (fun () -> Usys.open_ (p ^ "/pdir") o_rdonly) in
    read "list dir" d 4096;
    read "list dir again" d 4096;
    fstat "fstat dir" d;
    ignore_int "lseek dir end" (fun () -> Usys.lseek d 0 seek_end);
    ignore_int "fsync dir" (fun () -> Usys.fsync d);
    ignore_int "close dir" (fun () -> Usys.close d);
    ignore_int "chdir" (fun () -> Usys.chdir (p ^ "/pdir"));
    ignore_int "open relative" (fun () -> Usys.close (Usys.open_ "a" o_rdonly));
    ignore_int "chdir back" (fun () -> Usys.chdir "/");
    ignore_int "chdir missing" (fun () -> Usys.chdir (p ^ "/missing"));
    ignore_int "chdir a file" (fun () -> Usys.chdir (p ^ "/pin.txt"));
    let g = fd "open gone" (fun () -> Usys.open_ (p ^ "/gone.txt") (o_create lor o_rdwr)) in
    ignore_int "write gone" (fun () -> Usys.write_str g "12345");
    ignore_int "unlink open file" (fun () -> Usys.unlink (p ^ "/gone.txt"));
    ignore_int "lseek end stale" (fun () -> Usys.lseek g 0 seek_end);
    fstat "fstat stale" g;
    ignore_int "lseek set stale" (fun () -> Usys.lseek g 0 seek_set);
    read "read stale" g 16;
    ignore_int "write stale" (fun () -> Usys.write_str g "x");
    ignore_int "fsync stale" (fun () -> Usys.fsync g);
    ignore_int "close stale" (fun () -> Usys.close g);
    ignore_int "unlink nonempty dir" (fun () -> Usys.unlink (p ^ "/pdir"));
    ignore_int "unlink a" (fun () -> Usys.unlink (p ^ "/pdir/a"));
    ignore_int "unlink dir" (fun () -> Usys.unlink (p ^ "/pdir"));
    ignore_int "unlink missing" (fun () -> Usys.unlink (p ^ "/missing"));
    ignore_int "exec program" (fun () ->
        let pid = Usys.fork (fun () -> Usys.exec (p ^ "/" ^ script_prog) [ script_prog; p ]) in
        if Usys.wait () = pid then 0 else -1);
    ignore_int "exec non-velf" (fun () -> Usys.exec (p ^ "/pin.txt") [ "x" ]);
    ignore_int "exec missing" (fun () -> Usys.exec (p ^ "/missing") [ "x" ])
  in
  (match
     Benchlib.Measure.run_task kernel ~name:"script" (fun () ->
         List.iter script [ ""; "/d"; "/usb" ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.rev !lines

let script_stock_expected =
  [
    "mount /";
    "open creat rdwr            3                      22118";
    "write                      17                     11482";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    4214";
    "read at eof                \"\"                     3514";
    "fstat                      file/17/1/3            3450";
    "fsync                      0                      3450";
    "close                      0                      3450";
    "open big                   3                      21462";
    "write big                  98304                  541730";
    "close big                  0                      3450";
    "open rdonly                3                      7278";
    "fstat cold                 file/17/1/3            3450";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      9306";
    "fstat truncated            file/0/1/3             3450";
    "close                      0                      3450";
    "mkdir                      0                      33686";
    "mkdir again                EEXIST                 7650";
    "mkdir over a file          EEXIST                 6250";
    "open dir wronly            EISDIR                 7650";
    "open missing               ENOENT                 7650";
    "open under missing         ENOENT                 11850";
    "close new                  0                      27712";
    "open dir                   3                      7650";
    "list dir                   \"a\\n\"                  5550";
    "list dir again             \"\"                     5550";
    "fstat dir                  dir/48/1/5             3450";
    "lseek dir end              48                     3450";
    "fsync dir                  0                      3450";
    "close dir                  0                      3450";
    "chdir                      0                      7650";
    "open relative              0                      13200";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 7650";
    "chdir a file               ENOENT                 6250";
    "open gone                  3                      27062";
    "write gone                 5                      10454";
    "unlink open file           0                      14462";
    "lseek end stale            0                      3450";
    "fstat stale                file/0/0/7             3450";
    "lseek set stale            0                      3450";
    "read stale                 EINVAL                 3450";
    "write stale                EINVAL                 3450";
    "fsync stale                0                      3450";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              9750";
    "unlink a                   0                      14334";
    "unlink dir                 0                      17390";
    "unlink missing             ENOENT                 8350";
    "  ran pinprog ";
    "exec program               0                      80240";
    "exec non-velf              EINVAL                 5750";
    "exec missing               ENOENT                 7850";
    "mount /d";
    "open creat rdwr            3                      43120100";
    "write                      17                     46532164";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    17752864";
    "read at eof                \"\"                     11836564";
    "fstat                      file/17/1/5            3900";
    "fsync                      0                      3450";
    "close                      0                      3450";
    "open big                   3                      41414000";
    "write big                  98304                  468405388";
    "close big                  0                      3450";
    "open rdonly                3                      5920200";
    "fstat cold                 file/17/1/5            3900";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      32995300";
    "fstat truncated            file/0/1/0             3900";
    "close                      0                      3450";
    "mkdir                      0                      62570250";
    "mkdir again                EEXIST                 18660550";
    "mkdir over a file          EEXIST                 18657950";
    "open dir wronly            EISDIR                 5920200";
    "open missing               ENOENT                 5920200";
    "open under missing         ENOENT                 11836500";
    "close new                  0                      59166350";
    "open dir                   3                      5920200";
    "list dir                   \"A\\n\"                  17752800";
    "list dir again             \"\"                     17752800";
    "fstat dir                  dir/0/1/30             3900";
    "lseek dir end              0                      3450";
    "fsync dir                  0                      3450";
    "close dir                  0                      3450";
    "chdir                      0                      5919750";
    "open relative              0                      11839950";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 5917150";
    "chdir a file               ENOENT                 5919750";
    "open gone                  3                      41416600";
    "write gone                 5                      44827264";
    "unlink open file           0                      21162250";
    "lseek end stale            5                      3450";
    "fstat stale                ENOENT                 3900";
    "lseek set stale            0                      3450";
    "read stale                 ENOENT                 5920200";
    "write stale                ENOENT                 5920200";
    "fsync stale                0                      3450";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              11833450";
    "unlink a                   0                      23667250";
    "unlink dir                 0                      27078550";
    "unlink missing             ENOENT                 5919750";
    "  ran pinprog /d";
    "exec program               0                      22629500";
    "exec non-velf              EINVAL                 11835550";
    "exec missing               ENOENT                 5919250";
    "mount /usb";
    "open creat rdwr            3                      17844500";
    "write                      17                     19168564";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    7368264";
    "read at eof                \"\"                     4914364";
    "fstat                      file/17/1/5            3900";
    "fsync                      0                      3450";
    "close                      0                      3450";
    "open big                   3                      17187600";
    "write big                  98304                  190039988";
    "close big                  0                      3450";
    "open rdonly                3                      2460400";
    "fstat cold                 file/17/1/5            3900";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      13595300";
    "fstat truncated            file/0/1/0             3900";
    "close                      0                      3450";
    "mkdir                      0                      25868650";
    "mkdir again                EEXIST                 7551950";
    "mkdir over a file          EEXIST                 7549350";
    "open dir wronly            EISDIR                 2460400";
    "open missing               ENOENT                 2457800";
    "open under missing         ENOENT                 4914300";
    "close new                  0                      24555350";
    "open dir                   3                      2460400";
    "list dir                   \"A\\n\"                  7368200";
    "list dir again             \"\"                     7370800";
    "fstat dir                  dir/0/1/30             3900";
    "lseek dir end              0                      3450";
    "fsync dir                  0                      3450";
    "close dir                  0                      3450";
    "chdir                      0                      2457350";
    "open relative              0                      4917750";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 2459950";
    "chdir a file               ENOENT                 2457350";
    "open gone                  3                      17187600";
    "write gone                 5                      18507664";
    "unlink open file           0                      8684450";
    "lseek end stale            5                      3450";
    "fstat stale                ENOENT                 3900";
    "lseek set stale            0                      3450";
    "read stale                 ENOENT                 2460400";
    "write stale                ENOENT                 2457800";
    "fsync stale                0                      3450";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              4913850";
    "unlink a                   0                      9822850";
    "unlink dir                 0                      11140950";
    "unlink missing             ENOENT                 2459950";
    "  ran pinprog /usb";
    "exec program               0                      9485100";
    "exec non-velf              EINVAL                 4913350";
    "exec missing               ENOENT                 2459450";
  ]

let script_journal_expected =
  [
    "mount /";
    "open creat rdwr            3                      22806";
    "write                      17                     14070";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    4214";
    "read at eof                \"\"                     3514";
    "fstat                      file/17/1/3            3450";
    "fsync                      0                      19630";
    "close                      0                      3450";
    "open big                   3                      22150";
    "write big                  98304                  1098162";
    "close big                  0                      3450";
    "open rdonly                3                      7278";
    "fstat cold                 file/17/1/3            3450";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      9650";
    "fstat truncated            file/0/1/3             3450";
    "close                      0                      3450";
    "mkdir                      0                      37478";
    "mkdir again                EEXIST                 7650";
    "mkdir over a file          EEXIST                 6250";
    "open dir wronly            EISDIR                 7650";
    "open missing               ENOENT                 7650";
    "open under missing         ENOENT                 11850";
    "close new                  0                      28400";
    "open dir                   3                      7650";
    "list dir                   \"a\\n\"                  5550";
    "list dir again             \"\"                     5550";
    "fstat dir                  dir/48/1/5             3450";
    "lseek dir end              48                     3450";
    "fsync dir                  0                      78574";
    "close dir                  0                      3450";
    "chdir                      0                      7650";
    "open relative              0                      13200";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 7650";
    "chdir a file               ENOENT                 6250";
    "open gone                  3                      27750";
    "write gone                 5                      13042";
    "unlink open file           0                      15150";
    "lseek end stale            0                      3450";
    "fstat stale                file/0/0/7             3450";
    "lseek set stale            0                      3450";
    "read stale                 EINVAL                 3450";
    "write stale                EINVAL                 3450";
    "fsync stale                0                      19630";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              9750";
    "unlink a                   0                      14850";
    "unlink dir                 0                      18250";
    "unlink missing             ENOENT                 8350";
    "  ran pinprog ";
    "exec program               0                      77640";
    "exec non-velf              EINVAL                 5750";
    "exec missing               ENOENT                 7850";
    "mount /d";
    "open creat rdwr            3                      37206900";
    "write                      17                     25387964";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    17752864";
    "read at eof                \"\"                     11833964";
    "fstat                      file/17/1/5            3900";
    "fsync                      0                      3450";
    "close                      0                      3450";
    "open big                   3                      35503400";
    "write big                  98304                  20184688";
    "close big                  0                      3450";
    "open rdonly                3                      5920200";
    "fstat cold                 file/17/1/5            3900";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      25378400";
    "fstat truncated            file/0/1/0             3900";
    "close                      0                      3450";
    "mkdir                      0                      35512850";
    "mkdir again                EEXIST                 5930350";
    "mkdir over a file          EEXIST                 5930350";
    "open dir wronly            EISDIR                 5920200";
    "open missing               ENOENT                 5920200";
    "open under missing         ENOENT                 11836500";
    "close new                  0                      53253150";
    "open dir                   3                      5920200";
    "list dir                   \"A\\n\"                  17750200";
    "list dir again             \"\"                     17752800";
    "fstat dir                  dir/0/1/30             3900";
    "lseek dir end              0                      3450";
    "fsync dir                  0                      3450";
    "close dir                  0                      3450";
    "chdir                      0                      5919750";
    "open relative              0                      11839950";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 5919750";
    "chdir a file               ENOENT                 5919750";
    "open gone                  3                      35500800";
    "write gone                 5                      23680464";
    "unlink open file           0                      11841850";
    "lseek end stale            5                      3450";
    "fstat stale                ENOENT                 3900";
    "lseek set stale            0                      3450";
    "read stale                 ENOENT                 5920200";
    "write stale                ENOENT                 5920200";
    "fsync stale                0                      3450";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              11836050";
    "unlink a                   0                      17751450";
    "unlink dir                 0                      17758150";
    "unlink missing             ENOENT                 5919750";
    "  ran pinprog /d";
    "exec program               0                      22629500";
    "exec non-velf              EINVAL                 11832950";
    "exec missing               ENOENT                 5919250";
    "mount /usb";
    "open creat rdwr            3                      15396300";
    "write                      17                     10494364";
    "lseek end                  17                     3450";
    "lseek end+5                22                     3450";
    "lseek set                  0                      3450";
    "read                       \"hello, pinned vfs\"    7370864";
    "read at eof                \"\"                     4914364";
    "fstat                      file/17/1/5            3900";
    "fsync                      0                      3450";
    "close                      0                      3450";
    "open big                   3                      14734200";
    "write big                  98304                  8756088";
    "close big                  0                      3450";
    "open rdonly                3                      2457800";
    "fstat cold                 file/17/1/5            3900";
    "lseek end cold             17                     3450";
    "close                      0                      3450";
    "open trunc                 3                      10490000";
    "fstat truncated            file/0/1/0             3900";
    "close                      0                      3450";
    "mkdir                      0                      14746250";
    "mkdir again                EEXIST                 2467950";
    "mkdir over a file          EEXIST                 2470550";
    "open dir wronly            EISDIR                 2457800";
    "open missing               ENOENT                 2460400";
    "open under missing         ENOENT                 4911700";
    "close new                  0                      22107150";
    "open dir                   3                      2457800";
    "list dir                   \"A\\n\"                  7368200";
    "list dir again             \"\"                     7370800";
    "fstat dir                  dir/0/1/30             3900";
    "lseek dir end              0                      3450";
    "fsync dir                  0                      3450";
    "close dir                  0                      3450";
    "chdir                      0                      2457350";
    "open relative              0                      4917750";
    "chdir back                 0                      3450";
    "chdir missing              ENOENT                 2459950";
    "chdir a file               ENOENT                 2457350";
    "open gone                  3                      14736800";
    "write gone                 5                      9836064";
    "unlink open file           0                      4919650";
    "lseek end stale            5                      3450";
    "fstat stale                ENOENT                 3900";
    "lseek set stale            0                      3450";
    "read stale                 ENOENT                 2457800";
    "write stale                ENOENT                 2460400";
    "fsync stale                0                      3450";
    "close stale                0                      3450";
    "unlink nonempty dir        ENOTEMPTY              4911250";
    "unlink a                   0                      7372050";
    "unlink dir                 0                      7373550";
    "unlink missing             ENOENT                 2459950";
    "  ran pinprog /usb";
    "exec program               0                      9485100";
    "exec non-velf              EINVAL                 4913350";
    "exec missing               ENOENT                 2459450";
  ]

let files_script_pinned () =
  Alcotest.(check (list string))
    "stock kernel" script_stock_expected (script_transcript test_config);
  Alcotest.(check (list string))
    "write-back + journal" script_journal_expected
    (script_transcript
       { test_config with Core.Kconfig.writeback = true; journal = true })

let suite_files =
  ( "kernel.files",
    [
      quick "create write read" files_create_write_read;
      quick "fat mount routing (/d)" files_fat_mount_routing;
      quick "lseek whence" files_lseek_whence;
      quick "dup shares offset" files_dup_shares_offset;
      quick "mkdir unlink chdir" files_mkdir_unlink_chdir;
      quick "error returns" files_errors;
      quick "mkdir twice is EEXIST" files_mkdir_twice_eexist;
      quick "a file as parent is ENOTDIR" files_file_parent_enotdir;
      quick "O_TRUNC" files_trunc_flag;
      quick "directory listing" files_directory_listing;
      quick "fd exhaustion" files_fd_exhaustion;
      slow "range IO bypass ablation (par 5.2)" files_range_bypass_ablation;
      quick "one syscall script pinned on /, /d and /usb" files_script_pinned;
    ] )

(* ---- device files ---- *)

let dev_null () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/dev/null" Core.Abi.o_rdwr in
      check_int "write sinks" 5 (Usys.write_str fd "12345");
      check_int "read EOF" 0 (Bytes.length (Result.get_ok (Usys.read fd 10)));
      ignore (Usys.close fd))

let dev_fb_mmap_and_cacheflush () =
  let kernel = boot_kernel () in
  (match
     Benchlib.Measure.run_task kernel ~name:"render" (fun () ->
         let fd = Usys.open_ "/dev/fb" Core.Abi.o_rdwr in
         let _addr, w, h = Result.get_ok (Usys.mmap fd) in
         check_int "width" 640 w;
         check_int "height" 480 h;
         ignore (Usys.close fd);
         (* direct rendering: write the hw fb (the mmap'd view), then the
            paper's cache lesson: nothing shows until cacheflush *)
         let fb = Option.get kernel.Core.Kernel.fb in
         Hw.Framebuffer.write_pixel fb ~x:10 ~y:10 0xabcdef;
         check_int "stale before flush" 0 (Hw.Framebuffer.display_pixel fb ~x:10 ~y:10);
         let flushed_rows = Usys.cacheflush () in
         check_bool "rows flushed" true (flushed_rows >= 1);
         check_int "visible after flush" 0xabcdef
           (Hw.Framebuffer.display_pixel fb ~x:10 ~y:10);
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e)

(* The returns and virtual ns of [dev_fb_writes_pinned]'s script:
   the same under both mappings but for cacheflush's return (the rows
   it published) and ns. *)
let fb_write_script ~cacheflush =
  [
    "row 0, ragged seek 0 3450";
    "row 0, ragged write 23 3514";
    "unaligned, rows 2-3 seek 5126 3450";
    "unaligned, rows 2-3 write 2800 3800";
    "unaligned by 3 seek 17923 3450";
    "unaligned by 3 write 41 3514";
    "cacheflush " ^ cacheflush;
    "past the last pixel seek 1228789 3450";
    "past the last pixel write 40 3514";
    "off the screen seek 1228900 3450";
    "off the screen write 8 3514";
  ]

(* write(2) to /dev/fb under each mapping, pinned: every return and its
   virtual ns, the stale rows, and the MD5 of the CPU view and the
   display plane. The writes carry a non-zero 4th byte and a ragged
   tail, start at unaligned file offsets, run past the last pixel and
   land wholly off the screen; a cacheflush between them leaves the last
   two unpublished under [Cached]. *)
let dev_fb_writes_pinned () =
  let transcript mapping =
    let kernel = boot_kernel () in
    let fb = Option.get kernel.Core.Kernel.fb in
    Hw.Framebuffer.set_mapping fb mapping;
    let w = Hw.Framebuffer.width fb and h = Hw.Framebuffer.height fb in
    let lines = ref [] in
    let call label f =
      let t0 = Core.Kernel.now kernel in
      let r = f () in
      lines :=
        Printf.sprintf "%s %d %Ld" label r (Int64.sub (Core.Kernel.now kernel) t0)
        :: !lines
    in
    let data n seed = Bytes.init n (fun i -> Char.chr (((i * 37) + seed) land 0xff)) in
    (match
       Benchlib.Measure.run_task kernel ~name:"fbwrite" (fun () ->
           let fd = Usys.open_ "/dev/fb" Core.Abi.o_rdwr in
           let at label off n seed =
             call (label ^ " seek") (fun () -> Usys.lseek fd off Core.Abi.seek_set);
             call (label ^ " write") (fun () -> Usys.write fd (data n seed))
           in
           at "row 0, ragged" 0 23 11;
           at "unaligned, rows 2-3" ((4 * w * 2) + 6) (4 * 700) 5;
           at "unaligned by 3" ((4 * w * 7) + 3) 41 99;
           call "cacheflush" Usys.cacheflush;
           at "past the last pixel" ((4 * ((w * h) - 3)) + 1) 40 200;
           at "off the screen" ((4 * w * h) + 100) 8 7;
           ignore (Usys.close fd);
           0)
     with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    ( List.rev !lines,
      Hw.Framebuffer.stale_rows fb,
      fb_plane_md5 fb Hw.Framebuffer.read_pixel,
      fb_plane_md5 fb Hw.Framebuffer.display_pixel )
  in
  List.iter
    (fun (name, mapping, (lines', stale', cpu', plane')) ->
      let lines, stale, cpu, plane = transcript mapping in
      check_string (name ^ ": returns and ns") (String.concat "\n" lines')
        (String.concat "\n" lines);
      check_int (name ^ ": stale rows") stale' stale;
      check_string (name ^ ": CPU view") cpu' cpu;
      check_string (name ^ ": display plane") plane' plane)
    [
      ( "cached",
        Hw.Framebuffer.Cached,
        ( fb_write_script ~cacheflush:"4 3510",
          1,
          "4c21891a4497914c3d2b32cfe67abbd7",
          "a3b9eee77370b49fe3a7776446b8e293" ) );
      ( "uncached",
        Hw.Framebuffer.Uncached,
        ( fb_write_script ~cacheflush:"0 3090",
          0,
          "4c21891a4497914c3d2b32cfe67abbd7",
          "4c21891a4497914c3d2b32cfe67abbd7" ) );
    ]

(* A direct-mode Gfx.present under each mapping, pinned: the present's
   virtual ns and the MD5 of the CPU view and the display plane. *)
let dev_fb_direct_present_pinned () =
  List.iter
    (fun (name, mapping, (ns', cpu', plane')) ->
      let kernel = boot_kernel () in
      let fb = Option.get kernel.Core.Kernel.fb in
      Hw.Framebuffer.set_mapping fb mapping;
      match
        Benchlib.Measure.run_task kernel ~name:"painter" (fun () ->
            let env = Uenv.create () in
            env.Uenv.e_fb <- Some fb;
            match Gfx.direct env with
            | Error e -> Alcotest.failf "direct: %d" e
            | Ok gfx ->
                Gfx.fill gfx (Gfx.rgb 10 20 30);
                for y = 0 to 479 do
                  for x = 0 to 639 do
                    if (x * y) mod 7 = 3 then Gfx.put gfx ~x ~y (Gfx.rgb x y (x + y))
                  done
                done;
                Gfx.fill_rect gfx ~x:600 ~y:450 ~w:100 ~h:100 (Gfx.rgb 255 128 1);
                Gfx.text gfx ~x:5 ~y:5 ~color:(Gfx.rgb 200 200 200) "PIN 42";
                let t0 = Core.Kernel.now kernel in
                Gfx.present gfx;
                Int64.sub (Core.Kernel.now kernel) t0)
      with
      | Error e -> Alcotest.fail e
      | Ok (ns, _) ->
          let cpu = fb_plane_md5 fb Hw.Framebuffer.read_pixel
          and plane = fb_plane_md5 fb Hw.Framebuffer.display_pixel in
          check_string (name ^ ": present ns") (Int64.to_string ns') (Int64.to_string ns);
          check_string (name ^ ": CPU view") cpu' cpu;
          check_string (name ^ ": display plane") plane' plane)
    [
      ( "cached",
        Hw.Framebuffer.Cached,
        ( 500968L,
          "617f6c23b6daf6f4110b33bd2e0aa12d",
          "617f6c23b6daf6f4110b33bd2e0aa12d" ) );
      ( "uncached",
        Hw.Framebuffer.Uncached,
        ( 6555108L,
          "617f6c23b6daf6f4110b33bd2e0aa12d",
          "617f6c23b6daf6f4110b33bd2e0aa12d" ) );
    ]

let dev_events_blocking_and_nonblocking () =
  let kernel = boot_kernel () in
  let board = kernel.Core.Kernel.board in
  let got = ref None in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"reader" (fun () ->
         let fd = Usys.open_ "/dev/events" Core.Abi.o_rdonly in
         (match Usys.read fd Core.Kbd.event_bytes with
         | Ok b when Bytes.length b >= Core.Kbd.event_bytes ->
             got := Some (Core.Kbd.decode b ~off:0)
         | Ok _ | Error _ -> ());
         0));
  run_for kernel 1;
  check_bool "reader blocked with no keys" true (!got = None);
  Hw.Usb.key_down board.Hw.Board.usb 0x04;
  run_for kernel 1;
  (match !got with
  | Some ev ->
      check_int "code" 0x04 ev.Core.Kbd.ev_code;
      check_bool "pressed" true ev.Core.Kbd.ev_pressed
  | None -> Alcotest.fail "event not delivered");
  (* non-blocking read returns EAGAIN when empty *)
  match
    Benchlib.Measure.run_task kernel ~name:"poller" (fun () ->
        let fd = Usys.open_ "/dev/events" (Core.Abi.o_rdonly lor Core.Abi.o_nonblock) in
        match Usys.read fd 64 with
        | Error e -> e
        | Ok _ -> 0)
  with
  | Ok (e, _) -> check_int "EAGAIN" Core.Errno.eagain e
  | Error e -> Alcotest.fail e

let dev_gpio_buttons_as_events () =
  let kernel = boot_kernel () in
  let board = kernel.Core.Kernel.board in
  let got = ref [] in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"reader" (fun () ->
         let fd = Usys.open_ "/dev/events" Core.Abi.o_rdonly in
         (match Usys.read fd 64 with
         | Ok b -> got := Uevents.decode_bytes b
         | Error _ -> ());
         0));
  run_for kernel 1;
  Hw.Gpio.press board.Hw.Board.gpio Hw.Gpio.Start;
  run_for kernel 1;
  check_bool "Start maps to Enter" true
    (List.exists (fun e -> e.Uevents.key = Uevents.Enter && e.Uevents.pressed) !got)

let dev_audio_pipeline () =
  let kernel = boot_kernel () in
  (match
     Benchlib.Measure.run_task kernel ~name:"player" (fun () ->
         let fd = Usys.open_ "/dev/sb" Core.Abi.o_wronly in
         (* one second of a ramp *)
         let n = 44100 in
         let buf = Bytes.create (2 * n) in
         for i = 0 to n - 1 do
           let v = i land 0x7fff in
           Bytes.set_uint8 buf (2 * i) (v land 0xff);
           Bytes.set_uint8 buf ((2 * i) + 1) ((v lsr 8) land 0xff)
         done;
         ignore (Usys.write fd buf);
         ignore (Usys.close fd);
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  run_for kernel 2;
  let pwm = kernel.Core.Kernel.board.Hw.Board.pwm in
  check_bool "samples reached the PWM" true (Hw.Pwm_audio.samples_played pwm > 20_000);
  (* once streaming, the pipeline must not glitch *)
  let out = Hw.Pwm_audio.recent_output pwm in
  check_bool "waveform nonzero" true (Array.exists (fun s -> s > 1000) out)

let dev_procfs_contents () =
  in_kernel (fun _ ->
      let slurp path = Bytes.to_string (Result.get_ok (Usys.slurp path)) in
      check_bool "meminfo has MemTotal" true
        (String.length (slurp "/proc/meminfo") > 0
        && String.sub (slurp "/proc/meminfo") 0 8 = "MemTotal");
      check_bool "cpuinfo mentions 4 cores" true
        (let text = slurp "/proc/cpuinfo" in
         let count = ref 0 in
         String.iter (fun _ -> ()) text;
         List.iter
           (fun line ->
             if String.length line >= 9 && String.sub line 0 9 = "processor" then incr count)
           (String.split_on_char '\n' text);
         !count = 4);
      check_bool "tasks lists this pid" true
        (let text = slurp "/proc/tasks" in
         let pid = string_of_int (Usys.getpid ()) in
         List.exists
           (fun line ->
             match String.index_opt line '\t' with
             | Some i -> String.equal (String.sub line 0 i) pid
             | None -> false)
           (String.split_on_char '\n' text));
      check_bool "procfs is read-only" true
        (let fd = Usys.open_ "/proc/meminfo" Core.Abi.o_rdwr in
         let r = Usys.write_str fd "hack" in
         ignore (Usys.close fd);
         r = -Core.Errno.erofs))

let dev_console_roundtrip () =
  let kernel = boot_kernel () in
  Hw.Uart.inject_string kernel.Core.Kernel.board.Hw.Board.uart "hi\n";
  match
    Benchlib.Measure.run_task kernel ~name:"tty" (fun () ->
        let fd = Usys.open_ "/dev/console" Core.Abi.o_rdwr in
        let b = Result.get_ok (Usys.read fd 16) in
        ignore (Usys.write fd b);
        ignore (Usys.close fd);
        0)
  with
  | Ok _ ->
      check_bool "echoed" true
        (let out = Core.Kernel.uart_output kernel in
         String.length out >= 3)
  | Error e -> Alcotest.fail e

(* A USB key change reaches the driver (Kbd_report) on the next 8 ms
   frame of the host controller's service loop, and only there: reports
   sit on one grid whatever instant the key moved. An unplugged keyboard
   reports nothing more. *)
let dev_usb_reports_on_frames () =
  let kernel = boot_kernel () in
  let engine = kernel.Core.Kernel.board.Hw.Board.engine in
  let usb = kernel.Core.Kernel.board.Hw.Board.usb in
  let frame = Hw.Usb.frame_interval_ns in
  let reports () =
    List.filter_map
      (fun e ->
        match e.Core.Ktrace.ev with
        | Core.Ktrace.Kbd_report -> Some e.Core.Ktrace.ts_ns
        | _ -> None)
      (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace)
  in
  let at ns f = ignore (Sim.Engine.schedule_at engine ns f) in
  let t1 = Sim.Engine.now engine in
  Hw.Usb.key_down usb 0x04;
  Core.Kernel.run_for kernel (Sim.Engine.ms 20);
  let r1 =
    match reports () with
    | [ r1 ] -> r1
    | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)
  in
  check_bool "first report within one frame of the press" true
    (Int64.compare r1 t1 > 0 && Int64.compare (Int64.sub r1 t1) frame <= 0);
  let grid k = Int64.add r1 (Int64.mul (Int64.of_int k) frame) in
  at (Int64.add (grid 3) 3_000_000L) (fun () -> Hw.Usb.key_down usb 0x05);
  at (Int64.add (grid 5) 1L) (fun () -> Hw.Usb.key_up usb 0x04);
  Core.Kernel.run_for kernel (Sim.Engine.ms 60);
  check_bool "later reports land on the same frame grid" true
    (reports () = [ r1; grid 4; grid 6 ]);
  Hw.Usb.unplug usb;
  Hw.Usb.key_down usb 0x06;
  Core.Kernel.run_for kernel (Sim.Engine.ms 40);
  check_int "no report after unplug" 3 (List.length (reports ()))

(* The syscall name table: one value of each constructor pinned to its
   dense index and its name, in declaration order. *)
let abi_syscall_names_and_indices () =
  let open Core.Abi in
  let pinned =
    [
      (Fork (fun () -> 0), "fork"); (Exec ("x", []), "exec"); (Exit 0, "exit");
      (Wait, "wait"); (Kill 1, "kill"); (Getpid, "getpid");
      (Sleep 1, "sleep"); (Uptime, "uptime"); (Nice 0, "nice");
      (Sbrk 0, "sbrk"); (Cacheflush, "cacheflush"); (Open ("/", 0), "open");
      (Close 0, "close"); (Read (0, 1), "read");
      (Write (0, Bytes.empty), "write"); (Lseek (0, 0, 0), "lseek");
      (Dup 0, "dup"); (Pipe 0, "pipe"); (Fstat 0, "fstat");
      (Mkdir "/m", "mkdir"); (Unlink "/u", "unlink"); (Chdir "/", "chdir");
      (Mmap 0, "mmap"); (Fsync 0, "fsync"); (Poll ([], 0), "poll");
      (Clone (fun () -> 0), "clone"); (Join 0, "join");
      (Sem_open 0, "sem_open"); (Sem_post 0, "sem_post");
      (Sem_wait 0, "sem_wait"); (Sem_close 0, "sem_close");
    ]
  in
  check_int "one value per constructor" syscall_count (List.length pinned);
  List.iteri
    (fun i (call, name) ->
      check_int (name ^ " index") i (syscall_index call);
      check_string (name ^ " name") name (syscall_name call))
    pinned;
  check_bool "syscall_names in index order" true
    (syscall_names = List.map snd pinned)

let suite_devices =
  ( "kernel.devices",
    [
      quick "/dev/null" dev_null;
      quick "fb mmap + cacheflush lesson" dev_fb_mmap_and_cacheflush;
      quick "/dev/fb writes pinned under both mappings" dev_fb_writes_pinned;
      quick "direct present pinned under both mappings" dev_fb_direct_present_pinned;
      quick "/dev/events blocking + nonblocking" dev_events_blocking_and_nonblocking;
      quick "GPIO buttons as events" dev_gpio_buttons_as_events;
      quick "audio producer-consumer pipeline" dev_audio_pipeline;
      quick "procfs contents" dev_procfs_contents;
      quick "console roundtrip" dev_console_roundtrip;
      quick "usb reports land on the frame grid" dev_usb_reports_on_frames;
      quick "abi syscall names and indices" abi_syscall_names_and_indices;
    ] )

(* ---- window manager ---- *)

let wm_of kernel = Option.get kernel.Core.Kernel.wm

let open_window kernel ~name ~w ~h ~x ~y ?(alpha = 255) () =
  Core.Kernel.spawn_user kernel ~name (fun () ->
      match Gfx.windowed ~width:w ~height:h ~x ~y ~alpha () with
      | Error e -> e
      | Ok gfx ->
          Gfx.fill gfx 0x123456;
          Gfx.present gfx;
          (* stay alive so the surface persists *)
          ignore (Usys.sleep 1_000_000);
          Gfx.close gfx;
          0)

let wm_creates_and_composites () =
  let kernel = boot_kernel () in
  ignore (open_window kernel ~name:"app1" ~w:64 ~h:48 ~x:10 ~y:10 ());
  run_for kernel 1;
  let wm = wm_of kernel in
  check_int "one surface" 1 (Core.Wm.surface_count wm);
  check_bool "composited" true (Core.Wm.composites wm >= 1);
  (* the window's pixels landed on the screen *)
  let fb = Option.get kernel.Core.Kernel.fb in
  check_int "pixel on screen" 0x123456 (Hw.Framebuffer.display_pixel fb ~x:20 ~y:20)

let wm_dirty_skip () =
  let kernel = boot_kernel () in
  ignore (open_window kernel ~name:"app1" ~w:64 ~h:48 ~x:10 ~y:10 ());
  run_for kernel 1;
  let wm = wm_of kernel in
  let composites_then = Core.Wm.composites wm in
  run_for kernel 2 (* nothing redraws *);
  check_int "no recomposition without dirt" composites_then (Core.Wm.composites wm);
  check_bool "rounds were skipped" true (Core.Wm.skipped_rounds wm > 50)

let wm_zorder_and_focus () =
  let kernel = boot_kernel () in
  ignore (open_window kernel ~name:"below" ~w:100 ~h:100 ~x:0 ~y:0 ());
  run_for kernel 1;
  ignore (open_window kernel ~name:"above" ~w:100 ~h:100 ~x:0 ~y:0 ());
  run_for kernel 1;
  let wm = wm_of kernel in
  check_int "two windows" 2 (Core.Wm.surface_count wm);
  (* latest window takes focus; ctrl+tab rotates *)
  let focus0 = Option.get wm.Core.Wm.focus in
  Core.Wm.rotate_focus wm;
  let focus1 = Option.get wm.Core.Wm.focus in
  check_bool "focus rotated" true (focus0 <> focus1);
  Core.Wm.rotate_focus wm;
  check_int "full cycle" focus0 (Option.get wm.Core.Wm.focus)

(* One pixel of [src] over [dst] at [alpha]: the compositor oracle's
   arithmetic, which [Wm.blend_span] applies to a span. *)
let blend dst src alpha =
  if alpha >= 255 then src
  else begin
    let inv = 255 - alpha in
    let r = (((src lsr 16) land 0xff) * alpha + ((dst lsr 16) land 0xff) * inv) / 255 in
    let g = (((src lsr 8) land 0xff) * alpha + ((dst lsr 8) land 0xff) * inv) / 255 in
    let b = ((src land 0xff) * alpha + (dst land 0xff) * inv) / 255 in
    (r lsl 16) lor (g lsl 8) lor b
  end

let wm_alpha_blend () =
  check_int "opaque replaces" 0x0000ff (blend 0xff0000 0x0000ff 255);
  check_int "zero alpha keeps" 0xff0000 (blend 0xff0000 0x0000ff 0);
  let half = blend 0x000000 0xfffffe 128 in
  let r = (half lsr 16) land 0xff in
  check_in_range "half blend" 125.0 130.0 (float_of_int r)

let wm_key_routing () =
  let kernel = boot_kernel () in
  let board = kernel.Core.Kernel.board in
  let got = ref [] in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"focused" (fun () ->
         match Gfx.windowed ~width:32 ~height:32 ~x:0 ~y:0 () with
         | Error e -> e
         | Ok gfx ->
             Gfx.present gfx;
             let fd = Usys.open_ "/dev/event1" Core.Abi.o_rdonly in
             (match Usys.read fd 64 with
             | Ok b -> got := Uevents.decode_bytes b
             | Error _ -> ());
             ignore (Usys.close fd);
             Gfx.close gfx;
             0));
  run_for kernel 1;
  Hw.Usb.key_down board.Hw.Board.usb 0x2c (* space *);
  run_for kernel 1;
  check_bool "focused window received the key" true
    (List.exists (fun e -> e.Uevents.key = Uevents.Space) !got)

let wm_surface_removed_on_exit () =
  let kernel = boot_kernel () in
  let task =
    Core.Kernel.spawn_user kernel ~name:"brief" (fun () ->
        match Gfx.windowed ~width:16 ~height:16 ~x:0 ~y:0 () with
        | Error e -> e
        | Ok gfx ->
            Gfx.present gfx;
            0 (* exit immediately; the kernel must clean the surface *))
  in
  ignore task;
  run_for kernel 1;
  check_int "surface cleaned up" 0 (Core.Wm.surface_count (wm_of kernel))

let background = 0x102030

(* Closing the last window repaints the rows it covered: no surface is
   left to mark them dirty. *)
let wm_close_repaints_background () =
  let kernel = boot_kernel () in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"brief" (fun () ->
         match Gfx.windowed ~width:64 ~height:48 ~x:10 ~y:10 () with
         | Error e -> e
         | Ok gfx ->
             Gfx.fill gfx 0x123456;
             Gfx.present gfx;
             ignore (Usys.sleep 200);
             Gfx.close gfx;
             0));
  let fb = Option.get kernel.Core.Kernel.fb in
  Core.Kernel.run_for kernel (Sim.Engine.ms 100);
  check_int "window on screen" 0x123456 (Hw.Framebuffer.display_pixel fb ~x:20 ~y:20);
  run_for kernel 1;
  check_int "window closed" 0 (Core.Wm.surface_count (wm_of kernel));
  check_int "background restored" background (Hw.Framebuffer.display_pixel fb ~x:20 ~y:20)

(* A vertical move (ctrl+arrow) repaints the rows the window left, in
   both directions. *)
let wm_move_leaves_no_trail () =
  let kernel = boot_kernel () in
  ignore (open_window kernel ~name:"app1" ~w:64 ~h:48 ~x:10 ~y:10 ());
  run_for kernel 1;
  let wm = wm_of kernel and fb = Option.get kernel.Core.Kernel.fb in
  let at y = Hw.Framebuffer.display_pixel fb ~x:20 ~y in
  Core.Wm.move_focused wm ~dx:0 ~dy:16;
  run_for kernel 1;
  check_int "old top rows cleared" background (at 12);
  check_int "window at its new rows" 0x123456 (at 70);
  Core.Wm.move_focused wm ~dx:0 ~dy:(-32);
  run_for kernel 1;
  check_int "old bottom rows cleared" background (at 70);
  check_int "window at its new rows" 0x123456 (at 0)

(* The per-pixel compositor the span loops replaced, kept as the oracle:
   every layer's row, every column, one bounds test and one [blend],
   composed as 32-bit words in a scratch row of bytes and then copied
   into the CPU view and reported with [wrote_row]. *)
let oracle_repaint_rows (t : Core.Wm.t) ~y0 ~y1 =
  let width = Hw.Framebuffer.width t.Core.Wm.fb in
  let layers = Core.Wm.stacking t in
  let line = Bytes.create (4 * width) in
  let get b i = Hw.Le.get_uint32 b (4 * i) in
  let count = ref 0 in
  for y = y0 to y1 - 1 do
    for x = 0 to width - 1 do
      Bytes.set_int32_le line (4 * x) (Int32.of_int background)
    done;
    List.iter
      (fun (s : Core.Wm.surface) ->
        let row = y - s.sy in
        if row >= 0 && row < s.height then
          for col = 0 to s.width - 1 do
            let x = s.sx + col in
            if x >= 0 && x < width then begin
              let px = get s.pixels ((row * s.width) + col) in
              Bytes.set_int32_le line (4 * x) (Int32.of_int (blend (get line x) px s.alpha));
              incr count
            end
          done)
      layers;
    Bytes.blit line 0 (Hw.Framebuffer.cpu_view t.fb) (4 * y * width) (4 * width);
    Hw.Framebuffer.wrote_row t.fb y
  done;
  Hw.Framebuffer.flush t.fb;
  !count

let oracle_fb_w = 40
let oracle_fb_h = 24
let oracle_sched = lazy (boot_kernel ()).Core.Kernel.sched

(* One surface: width, height, x, y, alpha, pixel seed. *)
type stack_surface = int * int * int * int * int * int

(* Build the same stack on a fresh framebuffer whose rows already hold
   pixels (unflushed under [Cached]), and repaint [y0, y1) with
   [repaint]. *)
let composed ~cached ~y0 ~y1 (stack : stack_surface list) repaint =
  let sched = Lazy.force oracle_sched in
  let fb = Hw.Framebuffer.create ~width:oracle_fb_w ~height:oracle_fb_h in
  Hw.Framebuffer.set_mapping fb
    (if cached then Hw.Framebuffer.Cached else Hw.Framebuffer.Uncached);
  for y = 0 to oracle_fb_h - 1 do
    for x = 0 to oracle_fb_w - 1 do
      Hw.Framebuffer.write_pixel fb ~x ~y ((y * 1000) + x)
    done
  done;
  let wm = Core.Wm.create sched fb ~track_dirty:true in
  List.iter
    (fun (width, height, x, y, alpha, seed) ->
      let s = Core.Wm.create_surface wm ~owner_pid:1 ~width ~height ~x ~y ~alpha in
      let st = Random.State.make [| seed |] in
      (* random 32-bit words: the X byte is set too *)
      for i = 0 to (width * height) - 1 do
        Bytes.set_int32_le s.Core.Wm.pixels (4 * i) (Random.State.bits32 st)
      done)
    stack;
  let count = repaint wm ~y0 ~y1 in
  let plane f =
    List.init (oracle_fb_w * oracle_fb_h) (fun i ->
        f fb ~x:(i mod oracle_fb_w) ~y:(i / oracle_fb_w))
  in
  ( count,
    Hw.Framebuffer.stale_rows fb,
    plane Hw.Framebuffer.read_pixel,
    plane Hw.Framebuffer.display_pixel )

let compositor_matches_oracle (cached, a, b, stack) =
  let y0 = min a b and y1 = max a b in
  composed ~cached ~y0 ~y1 stack Core.Wm.repaint_rows
  = composed ~cached ~y0 ~y1 stack oracle_repaint_rows

let gen_stack =
  QCheck.Gen.(
    let alpha = oneofl [ 0; 1; 128; 254; 255 ] in
    let surface =
      map
        (fun ((w, h), (x, y), (alpha, seed)) -> (w, h, x, y, alpha, seed))
        (triple
           (pair (int_range 1 56) (int_range 1 32))
           (pair (int_range (-60) 50) (int_range (-36) 30))
           (pair alpha int))
    in
    quad bool (int_range 0 oracle_fb_h) (int_range 0 oracle_fb_h)
      (list_size (int_range 1 4) surface))

let print_stack (cached, a, b, stack) =
  Printf.sprintf "cached=%b rows %d..%d [%s]" cached a b
    (String.concat "; "
       (List.map
          (fun (w, h, x, y, alpha, _) -> Printf.sprintf "%dx%d@%d,%d a%d" w h x y alpha)
          stack))

(* The span compositor equals the per-pixel oracle on CPU view, display
   plane, pixel count and stale rows: random stacks of 1-4 surfaces,
   plus fixed ones clipped on each edge and on all four at once. *)
let wm_span_compositor_matches_oracle () =
  List.iter
    (fun case ->
      check_bool (print_stack case) true (compositor_matches_oracle case))
    (List.concat_map
       (fun cached ->
         [
           (cached, 0, oracle_fb_h, [ (60, 40, -7, -5, 255, 1) ]);
           (cached, 0, oracle_fb_h, [ (60, 40, -7, -5, 128, 2) ]);
           ( cached, 3, 20,
             [
               (10, 10, -4, 2, 255, 3); (10, 10, 35, 5, 1, 4);
               (12, 8, 5, -3, 254, 5); (9, 9, 20, 20, 0, 6);
             ] );
         ])
       [ true; false ])

let wm_span_compositor_qcheck =
  qcheck ~count:300 "span compositor = per-pixel oracle"
    (QCheck.make ~print:print_stack gen_stack)
    compositor_matches_oracle

(* A random frame of 32-bit words through Gfx.present and /dev/surface
   lands in the WM surface byte for byte, X bytes included. *)
let wm_surface_frame_end_to_end () =
  let kernel = boot_kernel () in
  let st = Random.State.make [| 42 |] in
  let frame = Bytes.create (4 * 37 * 11) in
  for i = 0 to (37 * 11) - 1 do
    Bytes.set_int32_le frame (4 * i) (Random.State.bits32 st)
  done;
  ignore
    (Core.Kernel.spawn_user kernel ~name:"frame" (fun () ->
         match Gfx.windowed ~width:37 ~height:11 ~x:3 ~y:4 () with
         | Error e -> e
         | Ok gfx ->
             Bytes.blit frame 0 gfx.Gfx.pixels 0 (Bytes.length frame);
             Gfx.present gfx;
             ignore (Usys.sleep 1_000_000);
             0));
  run_for kernel 1;
  let wm = wm_of kernel in
  check_int "one surface" 1 (Core.Wm.surface_count wm);
  Hashtbl.iter
    (fun _ (s : Core.Wm.surface) ->
      check_bool "surface holds the frame's bytes" true (Bytes.equal s.pixels frame))
    wm.Core.Wm.surfaces

let suite_wm =
  ( "kernel.wm",
    [
      quick "creates and composites" wm_creates_and_composites;
      quick "dirty-region skip" wm_dirty_skip;
      quick "z-order and focus rotation" wm_zorder_and_focus;
      quick "alpha blending math" wm_alpha_blend;
      quick "key routing to focus" wm_key_routing;
      quick "surface removed on exit" wm_surface_removed_on_exit;
      quick "closing the last window repaints the background" wm_close_repaints_background;
      quick "a vertical move leaves no trail" wm_move_leaves_no_trail;
      quick "span compositor = oracle on fixed clips" wm_span_compositor_matches_oracle;
      wm_span_compositor_qcheck;
      quick "random frame reaches the surface" wm_surface_frame_end_to_end;
    ] )

(* ---- debugging machinery ---- *)

let trace_records_syscalls () =
  let kernel = boot_kernel () in
  (match
     Benchlib.Measure.run_task kernel ~name:"traced" (fun () ->
         ignore (Usys.getpid ());
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let events = Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace in
  check_bool "getpid enter traced" true
    (List.exists
       (fun e ->
         match e.Core.Ktrace.ev with
         | Core.Ktrace.Syscall_enter (_, "getpid") -> true
         | _ -> false)
       events);
  check_bool "timestamps nondecreasing" true
    (let rec mono prev = function
       | [] -> true
       | e :: rest ->
           Int64.compare prev e.Core.Ktrace.ts_ns <= 0 && mono e.Core.Ktrace.ts_ns rest
     in
     mono Int64.min_int events)

let debugmon_breakpoint_stops_and_resumes () =
  let kernel = boot_kernel () in
  let dm = kernel.Core.Kernel.debugmon in
  Core.Debugmon.set_breakpoint dm "hot_function";
  let reached = ref false in
  let task =
    Core.Kernel.spawn_user kernel ~name:"debuggee" (fun () ->
        Usys.in_frame "hot_function" (fun () -> reached := true);
        0)
  in
  run_for kernel 1;
  check_bool "stopped before the body ran" false !reached;
  check_bool "listed as stopped" true
    (List.mem task.Core.Task.pid (Core.Debugmon.stopped_tasks dm));
  let report = Core.Debugmon.inspect dm task.Core.Task.pid in
  check_bool "inspect shows the frame" true
    (let rec has i =
       i + 12 <= String.length report
       && (String.equal (String.sub report i 12) "hot_function" || has (i + 1))
     in
     has 0);
  Core.Debugmon.resume dm task.Core.Task.pid;
  run_for kernel 1;
  check_bool "resumed and completed" true !reached;
  check_int "breakpoint hits" 1 (Core.Debugmon.hits dm)

let debugmon_syscall_watchpoint () =
  let kernel = boot_kernel () in
  let dm = kernel.Core.Kernel.debugmon in
  Core.Debugmon.watch_syscall dm "mkdir";
  let finished = ref false in
  let task =
    Core.Kernel.spawn_user kernel ~name:"watched" (fun () ->
        ignore (Usys.mkdir "/stopme");
        finished := true;
        0)
  in
  run_for kernel 1;
  check_bool "stopped at the syscall" false !finished;
  Core.Debugmon.unwatch_syscall dm "mkdir";
  Core.Debugmon.resume dm task.Core.Task.pid;
  run_for kernel 1;
  check_bool "completed after resume" true !finished

let unwinder_shadow_stack () =
  let kernel = boot_kernel () in
  let captured = ref [] in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"deep" (fun () ->
         Usys.in_frame "main" (fun () ->
             Usys.in_frame "render" (fun () ->
                 Usys.in_frame "blit" (fun () ->
                     captured :=
                       (Core.Sched.all_tasks kernel.Core.Kernel.sched
                       |> List.filter_map (fun t ->
                              if t.Core.Task.name = "deep" then
                                Some t.Core.Task.shadow_stack
                              else None)
                       |> List.concat))));
         0));
  run_for kernel 1;
  check_bool "innermost first" true (!captured = [ "blit"; "render"; "main" ])

let panic_button_dumps () =
  let kernel = boot_kernel () in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"busy" (fun () ->
         Usys.in_frame "spin_loop" (fun () ->
             for _ = 1 to 1000 do
               Usys.burn 1_000_000
             done);
         0));
  run_for kernel 1;
  (* snapshot the trace at the instant the FIQ handler renders *)
  let sched = kernel.Core.Kernel.sched in
  let at_fiq = ref [] in
  (match sched.Core.Sched.on_panic with
  | Some render ->
      sched.Core.Sched.on_panic <-
        Some
          (fun core ->
            at_fiq := Core.Ktrace.dump sched.Core.Sched.trace;
            render core)
  | None -> Alcotest.fail "no panic button handler installed");
  Hw.Gpio.press_panic_button kernel.Core.Kernel.board.Hw.Board.gpio;
  Core.Kernel.run_for kernel (Sim.Engine.ms 10);
  let out = Core.Kernel.uart_output kernel in
  let has needle =
    let n = String.length needle and m = String.length out in
    let rec at i = i + n <= m && (String.equal (String.sub out i n) needle || at (i + 1)) in
    at 0
  in
  check_bool "dump header" true (has "PANIC BUTTON");
  check_bool "core states listed" true (has "core 0:");
  check_bool "busy task's frame appears" true (has "spin_loop");
  check_int "one dump" 1 (Core.Panic.dumps kernel.Core.Kernel.panic);
  let rec after_header = function
    | "trace tail:" :: rest -> rest
    | _ :: rest -> after_header rest
    | [] -> Alcotest.fail "no trace tail in the dump"
  in
  let rec until_end = function
    | "=== END PANIC DUMP ===" :: _ | [] -> []
    | l :: rest -> l :: until_end rest
  in
  let printed = until_end (after_header (String.split_on_char '\n' out)) in
  let n = List.length !at_fiq in
  let expected =
    List.filteri (fun i _ -> i >= n - 10) !at_fiq
    |> List.map (fun e -> "  " ^ Core.Ktrace.format_entry e)
  in
  Alcotest.(check (list string)) "trace tail = last 10 entries at the FIQ"
    expected printed

let velf_roundtrip () =
  let velf = { Core.Velf.prog_name = "doom"; code_bytes = 5000; data_bytes = 1000 } in
  let image = Core.Velf.build velf in
  let back = check_ok "parse" (Core.Velf.parse image) in
  check_string "name" "doom" back.Core.Velf.prog_name;
  check_int "code" 5000 back.Core.Velf.code_bytes;
  ignore (check_err "garbage rejected" (Core.Velf.parse (Bytes.make 64 'j')));
  ignore (check_err "truncated rejected" (Core.Velf.parse (Bytes.sub image 0 8)))

let spinlock_discipline () =
  let l = Core.Spinlock.create ~trace:(Core.Ktrace.create ()) "test" in
  Core.Spinlock.acquire l ~core:0 ~now_ns:0L;
  check_bool "held" true (Core.Spinlock.holding l ~core:0);
  Alcotest.check_raises "recursive acquisition rejected"
    (Core.Kpanic.Panic "spinlock test: core 0 acquiring while core 0 holds")
    (fun () -> Core.Spinlock.acquire l ~core:0 ~now_ns:1L);
  Core.Spinlock.release l ~core:0 ~now_ns:10L;
  check_bool "held time" true (Core.Spinlock.total_held_ns l = 10L);
  Alcotest.check_raises "release when free rejected"
    (Core.Kpanic.Panic "spinlock test: release when free") (fun () ->
      Core.Spinlock.release l ~core:0 ~now_ns:11L)

(* A closure that raises inside [in_kernel] fails the test with its own
   exception as soon as the task dies, not with a timeout at the 300 s
   deadline; the task still dies of it, traced as uncaught. *)
let in_kernel_reraises () =
  let seen = ref None in
  Alcotest.check_raises "the closure's exception" (Failure "boom") (fun () ->
      in_kernel (fun kernel ->
          seen := Some kernel;
          failwith "boom"));
  let kernel = Option.get !seen in
  check_bool "clock far below the deadline" true
    (Int64.compare (Core.Kernel.now kernel) (Sim.Engine.sec 10) < 0);
  check_bool "task died of it" true
    (List.exists
       (fun e ->
         match e.Core.Ktrace.ev with
         | Core.Ktrace.Custom m ->
             String.ends_with ~suffix:"uncaught exception: Failure(\"boom\")" m
         | _ -> false)
       (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace))

let boot_time_is_paper_shaped () =
  let boot = Benchlib.Micro.boot_time () in
  check_in_range "boot to shell ~6s" 5.3 6.7 boot.Benchlib.Micro.to_shell_s

let suite_debug =
  ( "kernel.debug",
    [
      quick "ktrace records syscalls" trace_records_syscalls;
      quick "debugmon breakpoint stop/resume" debugmon_breakpoint_stops_and_resumes;
      quick "debugmon syscall watchpoint" debugmon_syscall_watchpoint;
      quick "unwinder shadow stack" unwinder_shadow_stack;
      quick "panic button dumps all cores" panic_button_dumps;
      quick "velf roundtrip" velf_roundtrip;
      quick "spinlock discipline" spinlock_discipline;
      quick "in_kernel re-raises the closure's exception" in_kernel_reraises;
      slow "boot time ~6s (fig 8)" boot_time_is_paper_shaped;
    ] )

(* ---- the write-back block I/O path ---- *)

(* A Card-backed cache over a fresh board, no kernel: the unit fixture
   for LRU/dirty behaviour. With no syscall context, cycle/IO charges are
   dropped, so these tests see pure cache mechanics. *)
let fresh_bc ?(capacity = 4) ?(writeback = false) ?(readahead = 0)
    ?(coalesce = true) () =
  let board = Hw.Board.create () in
  let bc =
    Core.Bufcache.create ~board ~trace:(Core.Ktrace.create ())
      ~backing:(Core.Bufcache.Card (board.Hw.Board.sd, 0))
      ~block_sectors:1 ~capacity ~writeback ~readahead ~coalesce ()
  in
  (board, bc)

let io_lru_eviction_order () =
  let _, bc = fresh_bc ~capacity:4 () in
  (* non-adjacent blocks so the streaming detector never engages *)
  List.iter (fun n -> ignore (Core.Bufcache.bread bc n)) [ 10; 20; 30; 40 ];
  check_int "four misses" 4 (Core.Bufcache.misses bc);
  ignore (Core.Bufcache.bread bc 10);
  check_int "refreshing 10 is a hit" 1 (Core.Bufcache.hits bc);
  (* 20 is now LRU; inserting 50 must evict exactly it *)
  ignore (Core.Bufcache.bread bc 50);
  List.iter (fun n -> ignore (Core.Bufcache.bread bc n)) [ 30; 40; 10; 50 ];
  check_int "survivors all hit" 5 (Core.Bufcache.hits bc);
  ignore (Core.Bufcache.bread bc 20);
  check_int "20 was the victim" 6 (Core.Bufcache.misses bc)

let io_dirty_flush_on_evict () =
  let board, bc = fresh_bc ~capacity:2 ~writeback:true () in
  let block = Bytes.make Fs.Blockdev.sector_bytes 'd' in
  Core.Bufcache.bwrite bc 5 block;
  check_int "deferred, not on device" 0 (Hw.Sd.write_count board.Hw.Board.sd);
  check_int "one dirty block" 1 (Core.Bufcache.dirty_blocks bc);
  (* fill the cache past capacity: the dirty victim must reach the card *)
  ignore (Core.Bufcache.bread bc 7);
  ignore (Core.Bufcache.bread bc 9);
  check_int "evicted write hit the device" 1 (Core.Bufcache.evict_writes bc);
  check_int "no dirty blocks left" 0 (Core.Bufcache.dirty_blocks bc);
  let back, _ =
    Result.get_ok (Hw.Sd.read board.Hw.Board.sd ~lba:5 ~count:1)
  in
  check_bool "device has the data" true (Bytes.get back 0 = 'd')

let io_flush_batches_adjacent_blocks () =
  let board, bc = fresh_bc ~capacity:8 ~writeback:true ~coalesce:true () in
  let blk c = Bytes.make Fs.Blockdev.sector_bytes c in
  List.iter
    (fun (n, c) -> Core.Bufcache.bwrite bc n (blk c))
    [ (12, 'c'); (10, 'a'); (11, 'b'); (30, 'z') ];
  check_int "all deferred" 0 (Hw.Sd.write_count board.Hw.Board.sd);
  let batches = Core.Bufcache.flush bc in
  check_int "adjacent run is one command" 2 batches;
  check_int "device saw two commands" 2 (Hw.Sd.write_count board.Hw.Board.sd);
  check_int "four blocks flushed" 4 (Core.Bufcache.flushed_blocks bc);
  check_int "clean after flush" 0 (Core.Bufcache.dirty_blocks bc);
  let back, _ =
    Result.get_ok (Hw.Sd.read board.Hw.Board.sd ~lba:10 ~count:3)
  in
  check_bool "sorted run landed in order" true
    (Bytes.get back 0 = 'a'
    && Bytes.get back Fs.Blockdev.sector_bytes = 'b'
    && Bytes.get back (2 * Fs.Blockdev.sector_bytes) = 'c');
  (* a second flush with nothing dirty is free *)
  check_int "idempotent" 0 (Core.Bufcache.flush bc)

let io_readahead_serves_streaming_reads () =
  let board, bc = fresh_bc ~capacity:16 ~readahead:8 () in
  let reads0 = Hw.Sd.read_count board.Hw.Board.sd in
  (* a cold sequential scan: first miss is single, the second engages the
     detector and prefetches a batch *)
  for n = 0 to 15 do
    ignore (Core.Bufcache.bread bc n)
  done;
  check_bool "prefetch batched device commands" true
    (Hw.Sd.read_count board.Hw.Board.sd - reads0 <= 4);
  check_bool "read-ahead blocks counted" true (Core.Bufcache.prefetched bc >= 7);
  check_bool "most reads were hits" true (Core.Bufcache.hits bc >= 12)

let io_writeback_range_coherence () =
  let _, bc = fresh_bc ~capacity:16 ~writeback:true ~readahead:8 () in
  let data = Bytes.make (2 * Fs.Blockdev.sector_bytes) 'r' in
  (* absorbed as dirty blocks, not written through *)
  Core.Bufcache.write_range bc ~lba:4 data;
  check_int "range absorbed dirty" 2 (Core.Bufcache.dirty_blocks bc);
  (* the bypass read path must see the dirty data, not the stale device *)
  let direct = Core.Bufcache.read_range_direct bc ~lba:3 ~count:4 in
  check_bool "overlay serves dirty sectors" true
    (Bytes.get direct Fs.Blockdev.sector_bytes = 'r'
    && Bytes.get direct (2 * Fs.Blockdev.sector_bytes) = 'r'
    && Bytes.get direct 0 = '\000');
  (* a streaming prefetch sweeping over the dirty block must not clobber
     it with stale device contents *)
  for n = 0 to 7 do
    ignore (Core.Bufcache.bread bc n)
  done;
  check_bool "prefetch kept dirty data" true
    (Bytes.get (Core.Bufcache.bread bc 4) 0 = 'r')

let writeback_config =
  { Core.Kconfig.full with Core.Kconfig.writeback = true; readahead_blocks = 32 }

(* The flush daemons are stopped right after boot, so only fsync can
   drain the cache: the test controls exactly when flushes happen. *)
let io_fsync_flushes_dirty () =
  let kernel = boot_kernel ~config:writeback_config () in
  List.iter Core.Bufcache.stop_flush_daemon
    (Core.Vfs.caches kernel.Core.Kernel.vfs);
  match
    Benchlib.Measure.run_task kernel ~name:"test" @@ fun () ->
      let bc = Option.get kernel.Core.Kernel.fat_bc in
      let fd =
        Usys.open_ "/d/sync.dat" (Core.Abi.o_create lor Core.Abi.o_wronly)
      in
      check_bool "open" true (fd >= 0);
      check_int "write" 4096 (Usys.write fd (Bytes.make 4096 's'));
      check_bool "writes deferred" true (Core.Bufcache.dirty_blocks bc > 0);
      check_int "fsync ok" 0 (Usys.fsync fd);
      check_int "fsync drained the cache" 0 (Core.Bufcache.dirty_blocks bc);
      check_bool "flush was batched" true
        (Core.Bufcache.flushed_blocks bc > Core.Bufcache.flush_batches bc);
      ignore (Usys.close fd);
      check_int "fsync on a bad fd" (-Core.Errno.ebadf) (Usys.fsync 99)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let io_flush_daemon_drains () =
  let kernel = boot_kernel ~config:writeback_config () in
  (match
     Benchlib.Measure.run_task kernel ~name:"dirty" (fun () ->
         let fd =
           Usys.open_ "/d/daemon.dat" (Core.Abi.o_create lor Core.Abi.o_wronly)
         in
         ignore (Usys.write fd (Bytes.make 4096 'q'));
         ignore (Usys.close fd);
         0)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* no fsync, no eviction pressure: only the daemon can clean the cache *)
  Core.Kernel.run_for kernel (Sim.Engine.ms 50);
  let bc = Option.get kernel.Core.Kernel.fat_bc in
  check_int "daemon flushed everything" 0 (Core.Bufcache.dirty_blocks bc);
  check_bool "daemon used batches" true (Core.Bufcache.flush_batches bc > 0);
  Core.Kernel.shutdown kernel;
  check_int "shutdown leaves nothing dirty" 0 (Core.Bufcache.dirty_blocks bc)

(* The daemon's cadence: a tick every [interval_ms], the first one
   period after the start. The pre-flush hook runs on every tick, dirty
   or not, so it timestamps them. *)
let io_flush_daemon_period () =
  let board, bc = fresh_bc ~writeback:true () in
  let engine = board.Hw.Board.engine in
  let ticks = ref [] in
  Core.Bufcache.set_pre_flush bc (fun () ->
      ticks := Sim.Engine.now engine :: !ticks);
  Sim.Engine.run engine ~until:(Sim.Engine.ms 3) ();
  Core.Bufcache.start_flush_daemon bc ~interval_ms:8;
  Sim.Engine.run engine ~until:(Sim.Engine.ms 36) ();
  check_bool "ticks at start + k periods" true
    (List.rev !ticks = List.map Sim.Engine.ms [ 11; 19; 27; 35 ])

(* One daemon at most: a restart replaces the pending chain, a stop
   cancels it, and a stop issued from inside a tick (the pre-flush hook
   is kernel code) is not undone by the tick that is running. *)
let io_flush_daemon_restart_and_stop () =
  let board, bc = fresh_bc ~writeback:true () in
  let engine = board.Hw.Board.engine in
  let ticks = ref 0 in
  Core.Bufcache.set_pre_flush bc (fun () -> incr ticks);
  Core.Bufcache.start_flush_daemon bc ~interval_ms:8;
  check_int "one daemon event" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine ~until:(Sim.Engine.ms 4) ();
  Core.Bufcache.start_flush_daemon bc ~interval_ms:8;
  check_int "a restart leaves one daemon event" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine ~until:(Sim.Engine.ms 13) ();
  check_int "only the new chain ticked (at 12 ms)" 1 !ticks;
  Core.Bufcache.stop_flush_daemon bc;
  check_int "stop leaves no daemon event" 0 (Sim.Engine.pending engine);
  Sim.Engine.run engine ~until:(Sim.Engine.ms 100) ();
  check_int "no tick after stop" 1 !ticks;
  Core.Bufcache.set_pre_flush bc (fun () ->
      incr ticks;
      Core.Bufcache.stop_flush_daemon bc);
  Core.Bufcache.start_flush_daemon bc ~interval_ms:8;
  Sim.Engine.run engine ~until:(Sim.Engine.ms 200) ();
  check_int "the tick that stopped the daemon was its last" 2 !ticks;
  check_int "and nothing is left pending" 0 (Sim.Engine.pending engine)

let io_writeback_determinism () =
  let workload kernel =
    Benchlib.Micro.prepare_file kernel ~path:"/d/det.dat" ~bytes:(64 * 1024);
    ignore
      (Benchlib.Micro.fs_throughput_kbps kernel ~path:"/d/det.dat"
         ~bytes:(64 * 1024) ~chunk:4096 ~direction:`Read);
    Core.Kernel.shutdown kernel;
    Core.Kernel.now kernel
  in
  let t1 = workload (boot_kernel ~config:writeback_config ()) in
  let t2 = workload (boot_kernel ~config:writeback_config ()) in
  check_bool "same spec, same virtual time" true (Int64.equal t1 t2)

let io_iobench_smoke () =
  let rows = Benchlib.Iobench.run () in
  let last = List.nth rows (List.length rows - 1) in
  check_bool "fast path mostly hits" true
    (last.Benchlib.Iobench.hits > last.Benchlib.Iobench.misses);
  check_bool "coalescing merged requests" true
    (last.Benchlib.Iobench.sd_merged > 0);
  check_in_range "throughput is sane"
    100.0 10_000.0 last.Benchlib.Iobench.seq_kbps;
  (* the acceptance floors, with a little head-room below the measured
     2.7x / ~100x so timing-model tweaks don't flake the suite *)
  check_bool "seq read speedup >= 1.8x" true
    (Benchlib.Iobench.seq_speedup rows >= 1.8);
  check_bool "random write latency speedup >= 1.5x" true
    (Benchlib.Iobench.randw_speedup rows >= 1.5)

let suite_io =
  ( "kernel.io",
    [
      quick "LRU eviction order" io_lru_eviction_order;
      quick "dirty flush on evict" io_dirty_flush_on_evict;
      quick "flush batches adjacent blocks" io_flush_batches_adjacent_blocks;
      quick "read-ahead serves streaming reads" io_readahead_serves_streaming_reads;
      quick "write-back range coherence" io_writeback_range_coherence;
      quick "fsync flushes dirty blocks" io_fsync_flushes_dirty;
      quick "flush daemon drains dirty set" io_flush_daemon_drains;
      quick "flush daemon ticks once per period" io_flush_daemon_period;
      quick "flush daemon restart and stop" io_flush_daemon_restart_and_stop;
      slow "write-back determinism" io_writeback_determinism;
      slow "iobench smoke (BENCH_io ladder)" io_iobench_smoke;
    ] )

(* ---- the scheduler rebuild: classes, affinity, IPIs, balancing ---- *)

(* Config helpers for the scheduler-knob tests. *)
let sched_cfg ?(policy = Core.Kconfig.Sched_rr)
    ?(wake = Core.Kconfig.Wake_direct) ?(affinity = false) ?(lb_ms = 0) () =
  {
    Core.Kconfig.full with
    Core.Kconfig.sched_policy = policy;
    wake_model = wake;
    wake_affinity = affinity;
    load_balance_ms = lb_ms;
  }

(* One per-core counter family summed over its core labels, read from
   the kperf registry the way /proc/metrics and perfbench read it. *)
let kperf_total kernel name =
  List.fold_left
    (fun acc c ->
      if String.equal c.Core.Kperf.c_name name then acc + c.Core.Kperf.c_read ()
      else acc)
    0 kernel.Core.Kernel.sched.Core.Sched.kperf.Core.Kperf.counters

let total_migrations kernel = kperf_total kernel "vos_sched_migrations_total"
let total_steals kernel = kperf_total kernel "vos_sched_steals_total"

(* An idle core steals a queued task that last ran elsewhere: the steal
   counter ticks, the migration counter ticks, and Sched_migrate lands in
   the trace. Two cores, arranged so that when the hopper wakes both cores
   are busy with equal queues (so placement keeps it on its home core 0),
   and then core 1 drains and goes idle before core 0 gets to it. *)
let sc_steal_migrates () =
  let kernel =
    boot_kernel ~platform:(Benchlib.Scale.platform_with_cores 2) ()
  in
  (* hopper: runs 1 ms on core 0, sleeps, wakes to a busy home core *)
  let hopper =
    Core.Kernel.spawn_user kernel ~name:"hopper" (fun () ->
        Usys.burn 1_000_000;
        ignore (Usys.sleep 5);
        Usys.burn 30_000_000;
        0)
  in
  (* filler1: takes core 1 until t=7ms *)
  ignore
    (Core.Kernel.spawn_user kernel ~name:"filler1" (fun () ->
         Usys.burn 7_000_000;
         0));
  (* blocker: queued behind hopper on core 0, occupies it 1..13 ms so the
     hopper's 6 ms wakeup finds its home core busy *)
  ignore
    (Core.Kernel.spawn_user kernel ~name:"blocker" (fun () ->
         Usys.burn 12_000_000;
         0));
  (* filler2: queued on core 1 so its queue is as deep as core 0's when
     the hopper wakes (placement keeps the hopper home); exits at ~8 ms
     leaving core 1 idle with the hopper still queued on core 0 *)
  ignore
    (Core.Kernel.spawn_user kernel ~name:"filler2" (fun () ->
         Usys.burn 1_000_000;
         0));
  run_for kernel 1;
  check_string "hopper finished" "zombie" (Core.Task.state_name hopper);
  check_bool "a steal happened" true (total_steals kernel >= 1);
  check_bool "the steal migrated the hopper" true
    (total_migrations kernel >= 1);
  let migrated_in_trace =
    List.exists
      (fun e ->
        match e.Core.Ktrace.ev with
        | Core.Ktrace.Sched_migrate (pid, _, _) -> pid = hopper.Core.Task.pid
        | _ -> false)
      (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace)
  in
  check_bool "Sched_migrate in trace" true migrated_in_trace

(* Ctx_switch used to record from-pid 0 unconditionally; now it names the
   pid the core last ran. *)
let sc_ctx_switch_from_pid () =
  let config = { Core.Kconfig.full with Core.Kconfig.multicore = false } in
  let kernel = boot_kernel ~config () in
  let a =
    Core.Kernel.spawn_user kernel ~name:"first" (fun () ->
        Usys.burn 2_000_000;
        0)
  in
  let b =
    Core.Kernel.spawn_user kernel ~name:"second" (fun () ->
        Usys.burn 2_000_000;
        0)
  in
  run_for kernel 1;
  let saw_handover =
    List.exists
      (fun e ->
        match e.Core.Ktrace.ev with
        | Core.Ktrace.Ctx_switch (f, t) ->
            f = a.Core.Task.pid && t = b.Core.Task.pid
        | _ -> false)
      (Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace)
  in
  check_bool "ctx_switch records the real from-pid" true saw_handover

(* Two CPU hogs on one core at the given nice values, for 250 ticks (two
   anti-starvation boosts): each one's CPU time in ms, and the highest
   MLFQ level either reached, sampled every tick. *)
let spinner_pair policy (nice_a, nice_b) =
  let config = { (sched_cfg ~policy ()) with Core.Kconfig.multicore = false } in
  let kernel = boot_kernel ~config () in
  let spin nice () =
    ignore (Usys.nice nice);
    while true do
      Usys.burn 1_000_000
    done;
    0
  in
  let a = Core.Kernel.spawn_user kernel ~name:"spin_a" (spin nice_a) in
  let b = Core.Kernel.spawn_user kernel ~name:"spin_b" (spin nice_b) in
  let top = ref 0 in
  for _ = 1 to 250 do
    Core.Kernel.run_for kernel (Sim.Engine.ms 1);
    top := max !top (max a.Core.Task.mlfq_level b.Core.Task.mlfq_level)
  done;
  let ms task = Int64.to_float task.Core.Task.cpu_ns /. 1e6 in
  (ms a, ms b, !top)

(* MLFQ round-robins CPU hogs within a core just like RR does. *)
let sc_mlfq_fair_spinners () =
  let ms_a, ms_b, _ = spinner_pair Core.Kconfig.Sched_mlfq (0, 0) in
  check_bool "both ran" true (ms_a > 10. && ms_b > 10.);
  check_in_range "fair within 2x" 0.5 2.0 (ms_a /. ms_b)

(* Round-robin is MLFQ with one level and nice ignored: a pair at nice
   -20 and +19 splits the core evenly and never leaves level 0, through
   quantum expiries and boosts. The same pair under MLFQ is demoted and
   split unevenly. *)
let sc_rr_is_one_level_mlfq () =
  let rr_a, rr_b, rr_top = spinner_pair Core.Kconfig.Sched_rr (-20, 19) in
  check_bool "rr: both ran" true (rr_a > 10. && rr_b > 10.);
  check_in_range "rr ignores nice" 0.8 1.25 (rr_a /. rr_b);
  check_int "rr stays at level 0" 0 rr_top;
  let mlfq_a, mlfq_b, mlfq_top =
    spinner_pair Core.Kconfig.Sched_mlfq (-20, 19)
  in
  check_bool "mlfq: both ran" true (mlfq_a > 10. && mlfq_b > 0.);
  check_bool "mlfq favours nice -20" true (mlfq_a > 2.0 *. mlfq_b);
  check_bool "mlfq demotes" true (mlfq_top > 0)

(* Mean wakeup-to-run delay of a sleeper loop, from the kernel's own
   run-delay accounting, with a spinner per core keeping every core busy. *)
let sleeper_delay_us ~wake kernel_cores =
  let kernel =
    boot_kernel
      ~config:(sched_cfg ~wake ())
      ~platform:(Benchlib.Scale.platform_with_cores kernel_cores)
      ()
  in
  (* one spinner, leaving one core idle: the wakeup is remote either way,
     and what differs is how the idle core learns about it *)
  for i = 0 to kernel_cores - 2 do
    ignore
      (Core.Kernel.spawn_user kernel
         ~name:(Printf.sprintf "busy%d" i)
         (fun () ->
           while true do
             Usys.burn 1_000_000
           done;
           0))
  done;
  let iters = ref 0 in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"sleeper" (fun () ->
         while true do
           ignore (Usys.sleep 3);
           (* drift the wake phase against the tick grid *)
           Usys.burn (50_000 + (37_000 * (!iters mod 5)));
           incr iters
         done;
         0));
  Core.Kernel.run_for kernel (Sim.Engine.ms 400);
  (* the sleeper is the dominant source of wakeups; spinner dispatches
     happen once at boot and on quantum round-robin, which records no
     delay once queues drain *)
  let total = ref 0L and count = ref 0 in
  for c = 0 to kernel_cores - 1 do
    let s = Core.Sched.stats kernel.Core.Kernel.sched c in
    let h = s.Core.Sched.delay_hist in
    total := Int64.add !total (Core.Kperf.Hist.sum_ns h);
    count := !count + Core.Kperf.Hist.count h
  done;
  check_bool "sleeper iterated" true (!iters > 50);
  Int64.to_float !total /. float_of_int (max 1 !count) /. 1e3

(* A reschedule IPI reaches an idle-or-preemptible core in microseconds;
   tick polling waits for the next 1 ms tick. *)
let sc_ipi_beats_tick () =
  let tick_us = sleeper_delay_us ~wake:Core.Kconfig.Wake_tick 2 in
  let ipi_us = sleeper_delay_us ~wake:Core.Kconfig.Wake_ipi 2 in
  check_bool
    (Printf.sprintf "ipi (%.1f us) at least 5x faster than tick (%.1f us)"
       ipi_us tick_us)
    true
    (ipi_us > 0.0 && tick_us /. ipi_us >= 5.0)

(* Wake affinity keeps hot sleepers on their home cores. One spinner per
   core keeps every core busy, so a sleeper's wakeup always scores a
   near-tie across cores: without affinity it lands on the shortest
   (lowest-index) queue and drifts; with affinity the home core wins the
   near-tie and it stays put. *)
let affinity_migrations ~affinity () =
  let kernel = boot_kernel ~config:(sched_cfg ~affinity ()) () in
  let kernel_cores = 4 in
  for i = 0 to kernel_cores - 1 do
    ignore
      (Core.Kernel.spawn_user kernel
         ~name:(Printf.sprintf "spin%d" i)
         (fun () ->
           while true do
             Usys.burn 1_000_000
           done;
           0))
  done;
  for i = 0 to 3 do
    ignore
      (Core.Kernel.spawn_user kernel
         ~name:(Printf.sprintf "hot%d" i)
         (fun () ->
           let iters = ref 0 in
           while true do
             ignore (Usys.sleep 2);
             Usys.burn (1_000_000 + (137_000 * ((i + !iters) mod 5)));
             incr iters
           done;
           0))
  done;
  Core.Kernel.run_for kernel (Sim.Engine.ms 500);
  total_migrations kernel

let sc_affinity_keeps_tasks_home () =
  let drifting = affinity_migrations ~affinity:false () in
  let pinned = affinity_migrations ~affinity:true () in
  check_bool
    (Printf.sprintf "affinity reduces migrations (%d -> %d)" drifting pinned)
    true
    (drifting >= 10 && pinned * 2 <= drifting)

(* force_kill pulls a blocked task out of exactly its own wait channel:
   a second task blocked on the same semaphore survives and still wakes. *)
let sc_kill_one_of_two_blocked () =
  let kernel = boot_kernel () in
  let woke = ref false in
  let sem = ref (-1) in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"semowner" (fun () ->
         sem := Usys.sem_open 0;
         (* stay alive: a semaphore's refs drop with its holder's exit *)
         ignore (Usys.sleep 10_000);
         0));
  run_for kernel 1;
  let t1 =
    Core.Kernel.spawn_user kernel ~name:"waiter1" (fun () ->
        ignore (Usys.sem_wait !sem);
        0)
  in
  let t2 =
    Core.Kernel.spawn_user kernel ~name:"waiter2" (fun () ->
        ignore (Usys.sem_wait !sem);
        woke := true;
        0)
  in
  run_for kernel 1;
  check_bool "both blocked" true
    (Core.Task.state_name t1 <> "zombie" && Core.Task.state_name t2 <> "zombie");
  ignore
    (Core.Kernel.spawn_user kernel ~name:"killer" (fun () ->
         ignore (Usys.kill t1.Core.Task.pid);
         0));
  run_for kernel 1;
  check_string "waiter1 killed" "zombie" (Core.Task.state_name t1);
  check_bool "waiter2 still blocked" true (not !woke);
  ignore
    (Core.Kernel.spawn_user kernel ~name:"poster" (fun () ->
         ignore (Usys.sem_post !sem);
         0));
  run_for kernel 1;
  check_bool "waiter2 woke after post" true !woke;
  check_string "waiter2 exited" "zombie" (Core.Task.state_name t2)

(* Under the IPI wake model, killing a task that is mid-burn on a remote
   core takes effect at IPI latency, not at the end of the burn. *)
let sc_kill_remote_via_ipi () =
  let kernel = boot_kernel ~config:(sched_cfg ~wake:Core.Kconfig.Wake_ipi ()) () in
  let victim =
    Core.Kernel.spawn_user kernel ~name:"burner" (fun () ->
        Usys.burn 400_000_000 (* 400 ms in one burn *);
        0)
  in
  Core.Kernel.run_for kernel (Sim.Engine.ms 5);
  ignore
    (Core.Kernel.spawn_user kernel ~name:"killer" (fun () ->
         ignore (Usys.kill victim.Core.Task.pid);
         0));
  Core.Kernel.run_for kernel (Sim.Engine.ms 5);
  (* without the IPI the victim would still be burning for ~390 ms *)
  check_string "victim died at IPI latency" "zombie"
    (Core.Task.state_name victim)

(* The full new stack (MLFQ + IPI + affinity + balancing) stays
   deterministic: two identically-seeded runs agree exactly. *)
let sc_mlfq_determinism () =
  let run () =
    let config =
      sched_cfg ~policy:Core.Kconfig.Sched_mlfq ~wake:Core.Kconfig.Wake_ipi
        ~affinity:true ~lb_ms:8 ()
    in
    let kernel = boot_kernel ~config () in
    for i = 0 to 2 do
      ignore
        (Core.Kernel.spawn_user kernel
           ~name:(Printf.sprintf "dspin%d" i)
           (fun () ->
             ignore (Usys.nice 5);
             while true do
               Usys.burn 2_000_000
             done;
             0))
    done;
    for i = 0 to 2 do
      ignore
        (Core.Kernel.spawn_user kernel
           ~name:(Printf.sprintf "dsleep%d" i)
           (fun () ->
             ignore (Usys.nice (-5));
             let iters = ref 0 in
             while true do
               ignore (Usys.sleep 3);
               Usys.burn (200_000 + (91_000 * ((i + !iters) mod 4)));
               incr iters
             done;
             0))
    done;
    Core.Kernel.run_for kernel (Sim.Engine.ms 300);
    let fingerprint c =
      let s = Core.Sched.stats kernel.Core.Kernel.sched c in
      Printf.sprintf "c%d:%Ld/%d/%d/%d" c
        (Core.Sched.core_busy_ns kernel.Core.Kernel.sched c)
        s.Core.Sched.switches.Core.Kperf.n s.Core.Sched.migrations.Core.Kperf.n
        s.Core.Sched.ipis_recv.Core.Kperf.n
    in
    String.concat " " (List.init 4 fingerprint)
    ^ " "
    ^ String.concat " "
        (List.map
           (fun t ->
             Printf.sprintf "%s:%Ld" t.Core.Task.name t.Core.Task.cpu_ns)
           (Core.Sched.all_tasks kernel.Core.Kernel.sched))
  in
  check_string "same seed, same schedule" (run ()) (run ())

(* /proc/sched renders the per-core counters. *)
let sc_procfs_sched () =
  in_kernel (fun _ ->
      let fd = Usys.open_ "/proc/sched" Core.Abi.o_rdonly in
      check_bool "opened /proc/sched" true (fd >= 0);
      let buf = Buffer.create 512 in
      let rec slurp () =
        match Usys.read fd 512 with
        | Ok b when Bytes.length b > 0 ->
            Buffer.add_bytes buf b;
            slurp ()
        | Ok _ | Error _ -> ()
      in
      slurp ();
      ignore (Usys.close fd);
      let text = Buffer.contents buf in
      let has needle =
        let n = String.length needle and l = String.length text in
        let rec go i = i + n <= l && (String.equal (String.sub text i n) needle || go (i + 1)) in
        go 0
      in
      check_bool "names the policy" true (has "policy");
      check_bool "lists core 3" true (has "core\t\t: 3");
      check_bool "has switch counters" true (has "switches"))

(* nice clamps and round-trips. *)
let sc_nice_clamps () =
  in_kernel (fun _ ->
      check_int "nice 5" 5 (Usys.nice 5);
      check_int "clamped high" 19 (Usys.nice 99);
      check_int "clamped low" (-20) (Usys.nice (-99)))

let sc_schedbench_smoke () =
  let rows = Benchlib.Schedbench.run () in
  (* the acceptance floors, with head-room below the measured ~200x / ~3.2x
     so timing-model tweaks don't flake the suite *)
  check_bool "ipi wakeup >= 5x faster than tick polling" true
    (Benchlib.Schedbench.wakeup_improvement rows >= 5.0);
  check_bool "multicore batch speedup >= 3x" true
    (Benchlib.Schedbench.multicore_speedup rows >= 3.0)

(* The balance pass fires only at multiples of [load_balance_ms] after
   [Sched.start]. On two idle cores each timer tick bills both cores
   alike, and the pass bills core 0 alone, so core 0's busy time minus
   core 1's steps exactly at the passes. *)
let sc_balance_period () =
  let board =
    Hw.Board.create ~platform:(Benchlib.Scale.platform_with_cores 2) ()
  in
  let engine = board.Hw.Board.engine in
  let config = { Core.Kconfig.full with Core.Kconfig.load_balance_ms = 3 } in
  let sched = Core.Sched.create board config in
  Core.Sched.start sched;
  let extra () =
    Int64.sub
      (Core.Sched.core_busy_ns sched 0)
      (Core.Sched.core_busy_ns sched 1)
  in
  let passes = ref [] and last = ref (extra ()) in
  for ms = 1 to 20 do
    Sim.Engine.run engine ~until:(Sim.Engine.ms ms) ();
    let x = extra () in
    if not (Int64.equal x !last) then passes := ms :: !passes;
    last := x
  done;
  check_bool "passes at 3, 6, ... ms" true
    (List.rev !passes = [ 3; 6; 9; 12; 15; 18 ])

let suite_sched_classes =
  ( "kernel.sched_classes",
    [
      quick "steal migrates a queued task" sc_steal_migrates;
      quick "ctx_switch names the real from-pid" sc_ctx_switch_from_pid;
      quick "mlfq round-robins spinners" sc_mlfq_fair_spinners;
      quick "rr is one-level mlfq: nice ignored" sc_rr_is_one_level_mlfq;
      quick "ipi wakeup beats tick polling 5x" sc_ipi_beats_tick;
      quick "wake affinity keeps tasks home" sc_affinity_keeps_tasks_home;
      quick "kill one of two blocked tasks" sc_kill_one_of_two_blocked;
      quick "kill mid-burn via reschedule ipi" sc_kill_remote_via_ipi;
      quick "mlfq+ipi+balance deterministic" sc_mlfq_determinism;
      quick "balance pass fires every load_balance_ms" sc_balance_period;
      quick "/proc/sched renders stats" sc_procfs_sched;
      quick "nice clamps to [-20,19]" sc_nice_clamps;
      slow "schedbench smoke (BENCH_sched ladder)" sc_schedbench_smoke;
    ] )

(* ---- kcheck: the runtime sanitizer vs injected failures ---- *)

let kc_contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i =
    i + n <= l && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

(* ABBA: establish the order A -> B, then acquire B -> A. lockdep must
   refuse the second order with the cycle, before any deadlock exists. *)
let kc_lock_order_inversion () =
  let kc = Core.Kcheck.create () and trace = Core.Ktrace.create () in
  let a = Core.Spinlock.create ~kcheck:kc ~trace "A" in
  let b = Core.Spinlock.create ~kcheck:kc ~trace "B" in
  Core.Spinlock.acquire a ~core:0 ~now_ns:0L;
  Core.Spinlock.acquire b ~core:0 ~now_ns:1L;
  Core.Spinlock.release b ~core:0 ~now_ns:2L;
  Core.Spinlock.release a ~core:0 ~now_ns:3L;
  Core.Spinlock.acquire b ~core:0 ~now_ns:4L;
  match Core.Spinlock.acquire a ~core:0 ~now_ns:5L with
  | () -> Alcotest.fail "ABBA inversion not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the lock-order rule" true (kc_contains msg "lock-order");
      check_bool "names both locks" true
        (kc_contains msg "A" && kc_contains msg "B")

(* Blocking while a spinlock is held (or under an irq guard) is the
   sleep-in-atomic class. *)
let kc_sleep_in_atomic () =
  let kc = Core.Kcheck.create () and trace = Core.Ktrace.create () in
  let l = Core.Spinlock.create ~kcheck:kc ~trace "L" in
  Core.Spinlock.acquire l ~core:0 ~now_ns:0L;
  match Core.Kcheck.task_blocked kc ~pid:7 ~core:0 with
  | () -> Alcotest.fail "sleep-in-atomic not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the rule" true (kc_contains msg "sleep-in-atomic")

(* Two tasks joining each other: once the second blocks, every member of
   the exit:A/exit:B cycle is Blocked and kcheck must panic with it. *)
let kc_wait_cycle_detected () =
  let kernel = boot_kernel () in
  let a_pid = ref 0 and b_pid = ref 0 in
  let ta =
    Core.Kernel.spawn_kernel kernel ~name:"join-a" (fun () ->
        ignore (Usys.sleep 1);
        Usys.join !b_pid)
  in
  let tb =
    Core.Kernel.spawn_kernel kernel ~name:"join-b" (fun () ->
        ignore (Usys.sleep 2);
        Usys.join !a_pid)
  in
  a_pid := ta.Core.Task.pid;
  b_pid := tb.Core.Task.pid;
  match run_for kernel 1 with
  | () -> Alcotest.fail "wait-for cycle not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the wait-cycle rule" true (kc_contains msg "wait-cycle");
      check_bool "cycle lists both tasks" true
        (kc_contains msg (Printf.sprintf "task %d" !a_pid)
        && kc_contains msg (Printf.sprintf "task %d" !b_pid))

(* A pipe-end refcount bumped with no file record backing it — PR 3's
   dup/fork bug class, injected deliberately. The audit at the next fork
   boundary must re-derive the counts and refuse. *)
let kc_pipe_leak_detected () =
  let kernel = boot_kernel () in
  let leaker () =
    match Usys.pipe () with
    | Error _ -> 1
    | Ok (r, _w) ->
        let pid = Usys.getpid () in
        (match Core.Fd.get kernel.Core.Kernel.fdt ~pid ~fd:r with
        | Some file -> (
            match file.Core.Fd.kind with
            | Core.Fd.K_pipe_read p ->
                p.Core.Pipe.readers <- p.Core.Pipe.readers + 1
            | Core.Fd.K_pipe_write _ | Core.Fd.K_dev _ | Core.Fd.K_file _ ->
                ())
        | None -> ());
        ignore (Usys.fork (fun () -> 0));
        0
  in
  ignore (Core.Kernel.spawn_kernel kernel ~name:"leaker" leaker);
  match run_for kernel 1 with
  | () -> Alcotest.fail "pipe-end leak not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the refcount rule" true (kc_contains msg "refcount");
      check_bool "blames the pipe reader count" true (kc_contains msg "readers")

(* The clean-run surfaces: /proc/locks lists the ptable lock discipline,
   /proc/kcheck reports counters and zero violations. *)
let kc_proc_files () =
  in_kernel (fun _ ->
      let slurp path =
        match Usys.slurp path with
        | Ok b -> Bytes.to_string b
        | Error e -> Alcotest.failf "slurp %s: errno %d" path e
      in
      let locks = slurp "/proc/locks" in
      check_bool "ptable lock registered" true (kc_contains locks "ptable");
      check_bool "acquisition column" true (kc_contains locks "acquisitions");
      let report = slurp "/proc/kcheck" in
      check_bool "audits counted" true (kc_contains report "audits");
      check_bool "deadlock scans counted" true
        (kc_contains report "deadlock_scans");
      check_bool "no violations on a clean run" true
        (kc_contains report "violations\t: 0"))

(* The pipe form of the join cycle: each task reads the pipe whose only
   write end the other holds. Once both read, kcheck must panic and name
   each task with the pipe it waits on. *)
let kc_pipe_cycle_detected () =
  let kernel = boot_kernel () in
  let fdt = kernel.Core.Kernel.fdt in
  let pipe_id fd =
    match Core.Fd.get fdt ~pid:(Usys.getpid ()) ~fd with
    | Some { Core.Fd.kind = Core.Fd.K_pipe_read p; _ } -> p.Core.Pipe.pipe_id
    | Some _ | None -> Alcotest.fail "not a pipe read end"
  in
  let a_on = ref "" and b_on = ref "" in
  let a =
    Core.Kernel.spawn_user kernel ~name:"pipe-a" (fun () ->
        match (Usys.pipe (), Usys.pipe ()) with
        | Ok (r1, w1), Ok (r2, w2) ->
            let b =
              Usys.fork (fun () ->
                  ignore (Usys.close r1);
                  ignore (Usys.close w2);
                  ignore (Usys.sleep 1);
                  b_on :=
                    Printf.sprintf "task %d (on pipe:%d:r)" (Usys.getpid ())
                      (pipe_id r2);
                  ignore (Usys.read r2 1);
                  0)
            in
            ignore b;
            ignore (Usys.close w1);
            ignore (Usys.close r2);
            a_on :=
              Printf.sprintf "task %d (on pipe:%d:r)" (Usys.getpid ())
                (pipe_id r1);
            ignore (Usys.read r1 1);
            0
        | _ -> 1)
  in
  ignore a;
  match run_for kernel 1 with
  | () -> Alcotest.fail "pipe wait cycle not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the wait-cycle rule" true (kc_contains msg "wait-cycle");
      check_bool "names the first task and its pipe" true
        (!a_on <> "" && kc_contains msg !a_on);
      check_bool "names the second task and its pipe" true
        (!b_on <> "" && kc_contains msg !b_on)

(* Two tasks holding one semaphore open both wait on it and nobody is
   left to post: kcheck must panic with both waiters on that semaphore. *)
let kc_sem_cycle_detected () =
  let kernel = boot_kernel () in
  let a_on = ref "" and b_on = ref "" in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"sem-a" (fun () ->
         let id = Usys.sem_open 0 in
         ignore
           (Usys.fork (fun () ->
                ignore (Usys.sleep 1);
                b_on := Printf.sprintf "task %d (on sem:%d)" (Usys.getpid ()) id;
                ignore (Usys.sem_wait id);
                0));
         a_on := Printf.sprintf "task %d (on sem:%d)" (Usys.getpid ()) id;
         ignore (Usys.sem_wait id);
         0));
  match run_for kernel 1 with
  | () -> Alcotest.fail "semaphore wait cycle not detected"
  | exception Core.Kpanic.Panic msg ->
      check_bool "names the wait-cycle rule" true (kc_contains msg "wait-cycle");
      check_bool "names the first waiter and the semaphore" true
        (!a_on <> "" && kc_contains msg !a_on);
      check_bool "names the second waiter and the semaphore" true
        (!b_on <> "" && kc_contains msg !b_on)

let suite_kcheck =
  ( "kernel.kcheck",
    [
      quick "lockdep catches ABBA inversion" kc_lock_order_inversion;
      quick "sleep-in-atomic detected" kc_sleep_in_atomic;
      quick "two-task join cycle panics" kc_wait_cycle_detected;
      quick "leaked pipe end fails the audit" kc_pipe_leak_detected;
      quick "/proc/locks and /proc/kcheck render" kc_proc_files;
      quick "pipe-pair wait cycle panics" kc_pipe_cycle_detected;
      quick "semaphore wait cycle panics" kc_sem_cycle_detected;
    ] )
