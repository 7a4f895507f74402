(** Drivers for Figure 8 (kernel microbenchmarks) and Figure 9 (cross-OS
    comparison), assembling {!Micro} measurements and {!Osmodel}
    baselines. *)

(* ---- Figure 8 ---- *)

type fig8 = {
  xv6fs_read_kbps : float;
  xv6fs_write_kbps : float;
  fat_read_kbps : float;
  fat_write_kbps : float;
  fat_range_read_kbps : float;  (** the §5.2 bypass; ablation pair *)
  fat_cached_read_kbps : float;  (** range bypass disabled *)
  getpid_us : float;
  ipc_us : float;
  boot_kernel_s : float;
  boot_shell_s : float;
}

let fig8 () =
  let kernel = Micro.fresh_kernel () in
  let getpid_us = Micro.getpid_us (Micro.fresh_kernel ()) in
  let ipc_us = Micro.ipc_us (Micro.fresh_kernel ()) in
  (* filesystem throughput *)
  let mb = 1024 * 1024 in
  let xv6_w =
    Micro.fs_throughput_kbps kernel ~path:"/bench.dat" ~bytes:(200 * 1024)
      ~chunk:4096 ~direction:`Write
  in
  let xv6_r =
    Micro.fs_throughput_kbps kernel ~path:"/bench.dat" ~bytes:(200 * 1024)
      ~chunk:4096 ~direction:`Read
  in
  let fat_w =
    Micro.fs_throughput_kbps kernel ~path:"/d/bench.dat" ~bytes:mb ~chunk:4096
      ~direction:`Write
  in
  let fat_r =
    Micro.fs_throughput_kbps kernel ~path:"/d/bench.dat" ~bytes:mb ~chunk:4096
      ~direction:`Read
  in
  (* range read: large chunks exercise multi-cluster runs *)
  let fat_range =
    Micro.fs_throughput_kbps kernel ~path:"/d/bench.dat" ~bytes:mb
      ~chunk:(256 * 1024) ~direction:`Read
  in
  (* same access pattern with the bypass disabled (the ablation) *)
  let cached_kernel =
    Micro.fresh_kernel
      ~config:{ Core.Kconfig.full with Core.Kconfig.range_io_bypass = false }
      ()
  in
  Micro.prepare_file cached_kernel ~path:"/d/bench.dat" ~bytes:mb;
  let fat_cached =
    Micro.fs_throughput_kbps cached_kernel ~path:"/d/bench.dat" ~bytes:mb
      ~chunk:(256 * 1024) ~direction:`Read
  in
  let boot = Micro.boot_time () in
  {
    xv6fs_read_kbps = xv6_r;
    xv6fs_write_kbps = xv6_w;
    fat_read_kbps = fat_r;
    fat_write_kbps = fat_w;
    fat_range_read_kbps = fat_range;
    fat_cached_read_kbps = fat_cached;
    getpid_us;
    ipc_us;
    boot_kernel_s = boot.Micro.to_kernel_s;
    boot_shell_s = boot.Micro.to_shell_s;
  }

let render_fig8 f =
  String.concat "\n"
    [
      "filesystem throughput:";
      Printf.sprintf "  xv6fs  read  %8.0f KB/s   write %8.0f KB/s"
        f.xv6fs_read_kbps f.xv6fs_write_kbps;
      Printf.sprintf "  FAT32  read  %8.0f KB/s   write %8.0f KB/s"
        f.fat_read_kbps f.fat_write_kbps;
      Printf.sprintf
        "  FAT32 range read: bypass %8.0f KB/s vs cached %8.0f KB/s (%.1fx)"
        f.fat_range_read_kbps f.fat_cached_read_kbps
        (f.fat_range_read_kbps /. Float.max 1.0 f.fat_cached_read_kbps);
      "latencies:";
      (* a machine with no seed has no run-to-run spread *)
      Printf.sprintf "  syscall (getpid)  %6.2f ± 0.00 us" f.getpid_us;
      Printf.sprintf "  IPC one-way (pipe) %5.2f ± 0.00 us" f.ipc_us;
      "boot:";
      Printf.sprintf "  power-on to kernel  %5.2f s" f.boot_kernel_s;
      Printf.sprintf "  power-on to shell   %5.2f s" f.boot_shell_s;
      "";
    ]

(* ---- Figure 9 ---- *)

type fig9_row = {
  bench_name : string;
  ours_us : float;
  by_os : (string * float) list;  (** modeled latency per baseline *)
}

let fig9 () =
  let heap_kb = 2048 in (* a newlib-linked process image: ~2 MB resident *)
  let kernel () = Micro.fresh_kernel () in
  let ours =
    [
      ("getpid", `Getpid, Micro.getpid_us (kernel ()));
      ("sbrk", `Sbrk, Micro.sbrk_us (kernel ()));
      ("fork", `Fork, Micro.fork_us ~heap_kb (kernel ()));
      ("ipc", `Ipc, Micro.ipc_us (kernel ()));
      ("md5sum 1MB", `Compute, Micro.md5_us ~kb:1024 (kernel ()));
      ("qsort 100k", `Compute, Micro.qsort_us ~n:100_000 (kernel ()));
    ]
  in
  (* file benches measured as latency of a 256 KB sequential read/write *)
  let file_us direction =
    let k = kernel () in
    let kbps =
      match direction with
      | `Write ->
          Micro.fs_throughput_kbps k ~path:"/d/f.dat" ~bytes:(256 * 1024)
            ~chunk:4096 ~direction:`Write
      | `Read ->
          Micro.prepare_file k ~path:"/d/f.dat" ~bytes:(256 * 1024);
          Micro.fs_throughput_kbps k ~path:"/d/f.dat" ~bytes:(256 * 1024)
            ~chunk:4096 ~direction:`Read
    in
    256.0 /. kbps *. 1e6
  in
  let ours =
    ours
    @ [ ("file read 256K", `File, file_us `Read);
        ("file write 256K", `File, file_us `Write) ]
  in
  List.map
    (fun (name, bench, ours_us) ->
      {
        bench_name = name;
        ours_us;
        by_os =
          List.map
            (fun model ->
              ( model.Osmodel.os_name,
                Osmodel.latency_us model ~bench ~ours_us
                  ~fork_pages:(Micro.fork_pages ~heap_kb) ))
            Osmodel.baselines;
      })
    ours

let render_fig9 rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  %-16s %12s %12s %12s %12s   (normalized to ours)\n"
       "benchmark" "ours" "xv6-armv8" "linux" "freebsd");
  List.iter
    (fun row ->
      let get os = List.assoc os row.by_os in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-16s %9.1fus %9.1fus %9.1fus %9.1fus   (1.00 %5.2f %5.2f %5.2f)\n"
           row.bench_name row.ours_us (get "xv6-armv8") (get "linux")
           (get "freebsd")
           (get "xv6-armv8" /. row.ours_us)
           (get "linux" /. row.ours_us)
           (get "freebsd" /. row.ours_us)))
    rows;
  Buffer.contents buf
