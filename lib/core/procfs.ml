(** procfs: /proc/cpuinfo, /proc/meminfo, /proc/uptime, /proc/tasks,
    /proc/sched, /proc/ipc, and the kperf surface — /proc/metrics
    (Prometheus text), /proc/profile (sampling profiler), /proc/ktrace
    (a consuming trace-pipe) and /proc/ktrace_ctl (runtime control).

    Most files are snapshots rendered at open time (like Linux's
    seq_file, one generation per open) and then read as ordinary byte
    streams; sysmon polls these to draw its overlay. /proc/ktrace is the
    exception: each open holds a consuming {!Ktrace.reader} cursor, reads
    stream formatted entries as they are emitted, block on
    {!Task.Poll_waiters} (so poll(2) composes) and honor O_NONBLOCK with
    -EAGAIN. *)

type t = {
  board : Hw.Board.t;
  sched : Sched.t;
  kalloc : Kalloc.t;
  snapshots : (int, string) Hashtbl.t;  (** file_id -> rendered content *)
  readers : (int, Ktrace.reader) Hashtbl.t;
      (** file_id -> trace-pipe cursor for /proc/ktrace opens *)
  pending : (int, string) Hashtbl.t;
      (** file_id -> formatted-but-undelivered trace bytes *)
}

let create ~board ~sched ~kalloc =
  {
    board;
    sched;
    kalloc;
    snapshots = Hashtbl.create 16;
    readers = Hashtbl.create 4;
    pending = Hashtbl.create 4;
  }

let render_cpuinfo t =
  let buf = Buffer.create 256 in
  let plat = t.board.Hw.Board.platform in
  Buffer.add_string buf
    (Printf.sprintf "prototype\t: %d\n\n" t.sched.Sched.config.Kconfig.stage);
  for core = 0 to plat.Hw.Board.num_cores - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "processor\t: %d\nmodel name\t: ARMv8 Cortex-A53 (sim)\nBogoMIPS\t: %.2f\nbusy_ns\t: %Ld\n\n"
         core
         (float_of_int plat.Hw.Board.cpu_hz /. 1e6)
         (Sched.core_busy_ns t.sched core))
  done;
  Buffer.contents buf

let render_meminfo t =
  let total_kb = Kalloc.total_pages t.kalloc * Kalloc.page_bytes / 1024 in
  let used_kb = Kalloc.used_bytes t.kalloc / 1024 in
  Printf.sprintf
    "MemTotal:\t%d kB\nMemUsed:\t%d kB\nMemFree:\t%d kB\nKmalloc:\t%d B\nPeak:\t%d kB\n"
    total_kb used_kb (total_kb - used_kb)
    (Kalloc.kmalloc_bytes t.kalloc)
    (Kalloc.peak_bytes t.kalloc / 1024)

let render_uptime t =
  Printf.sprintf "%.3f\n" (Sim.Engine.to_sec (Hw.Board.now t.board))

let render_tasks t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "PID\tSTATE\t\tCPU_MS\tNAME\n";
  List.iter
    (fun task ->
      Buffer.add_string buf
        (Printf.sprintf "%d\t%-12s\t%.1f\t%s\n" task.Task.pid
           (Task.state_name task)
           (Int64.to_float task.Task.cpu_ns /. 1e6)
           task.Task.name))
    (Sched.all_tasks t.sched);
  Buffer.contents buf

(* Per-core scheduler statistics, one block per core like /proc/cpuinfo:
   context switches, migrations, steals, balance moves, IPIs and the
   run-delay (runnable -> running) distribution. *)
let render_sched t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "policy\t\t: %s\n\n" t.sched.Sched.cls.Runq.sc_name);
  let plat = t.board.Hw.Board.platform in
  for core = 0 to plat.Hw.Board.num_cores - 1 do
    let s = t.sched.Sched.cores.(core).Sched.stats in
    let n c = c.Kperf.n in
    Buffer.add_string buf
      (Printf.sprintf
         "core\t\t: %d\nswitches\t: %d\nmigrations\t: %d\nsteals\t\t: \
          %d\nbalance_moves\t: %d\nipis_sent_to\t: %d\nipis_taken\t: %d\n"
         core (n s.Acct.switches) (n s.Acct.migrations) (n s.Acct.steals)
         (n s.Acct.balance_moves) (n s.Acct.ipis_to) (n s.Acct.ipis_recv));
    let h = s.Acct.delay_hist in
    if Kperf.Hist.count h > 0 then begin
      Buffer.add_string buf
        (Printf.sprintf "run_delay_avg\t: %Ld ns\nrun_delay_max\t: %Ld ns\n"
           (Int64.div (Kperf.Hist.sum_ns h)
              (Int64.of_int (Kperf.Hist.count h)))
           (Kperf.Hist.max_ns h));
      Buffer.add_string buf
        (Printf.sprintf "run_delay_hist\t: %s\n" (Kperf.Hist.render_line h))
    end;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* The IPC path's configuration and counters; the wakeup lines are how
   the edge-triggered ablation is observable from inside the machine.
   Each counter line is a view of the kperf series [vos_<key>_total]. *)
let ipc_keys =
  [ "pipe_writes"; "pipe_reads"; "pipe_bytes"; "wakeups_issued";
    "wakeups_suppressed"; "polls"; "poll_immediate"; "poll_blocked";
    "poll_timeouts" ]

let render_ipc t =
  let cfg = t.sched.Sched.config in
  Printf.sprintf "%-18s %s\n%-18s %s\n%-18s %d\n" "pipe_impl"
    (if cfg.Kconfig.pipe_ring then "ring" else "xv6")
    "wake_mode"
    (if cfg.Kconfig.pipe_wake_edge then "edge" else "level")
    "buffer_bytes" cfg.Kconfig.pipe_buffer_bytes
  ^ String.concat ""
      (List.map
         (fun k ->
           let c = Kperf.counter t.sched.Sched.kperf ("vos_" ^ k ^ "_total") in
           Printf.sprintf "%-18s %d\n" k c.Kperf.n)
         ipc_keys)

(* Spinlock statistics and the sanitizer's own counters/violations. Both
   render even when kcheck is off (header-only / "disabled"), so sysmon
   can always open them. *)
let render_locks t =
  match t.sched.Sched.kcheck with
  | Some kc -> Kcheck.render_locks kc
  | None -> "kcheck disabled: no lock registry\n"

let render_kcheck t =
  match t.sched.Sched.kcheck with
  | Some kc -> Kcheck.render_report kc
  | None -> "kcheck\t\t: disabled\n"

(* Prometheus text exposition of every kperf counter and histogram.
   Attached vprobe aggregates fold in as vos_vprobe_* series so one
   scrape covers both. *)
let render_metrics t =
  Kperf.render_metrics t.sched.Sched.kperf
  ^ Vprobe.render_metrics t.sched.Sched.vprobe

(* Dynamic-probe surfaces: /proc/vprobe is the aggregate dump,
   /proc/vprobe_ctl accepts probe-spec writes (see {!Vprobe.ctl_write})
   and mirrors the registry state back on read. *)
let render_vprobe t = Vprobe.render t.sched.Sched.vprobe

let render_profile t = Kperf.render_profile t.sched.Sched.kperf

(* Current tracer control state, mirrored back by reads of ktrace_ctl. *)
let render_ktrace_ctl t =
  let tr = t.sched.Sched.trace in
  let filter_names =
    if tr.Ktrace.filter = Ktrace.filter_all then "all"
    else
      Ktrace.class_names
      |> List.filter (fun (_, bit) -> tr.Ktrace.filter land (1 lsl bit) <> 0)
      |> List.map fst |> String.concat ","
  in
  Printf.sprintf
    "enable\t\t: %d\nclock\t\t: %s\nfilter\t\t: %s\ndstate\t\t: \
     %d\nevents_written\t: %d\n"
    (if tr.Ktrace.enabled then 1 else 0)
    (if Int64.equal tr.Ktrace.clock_base 0L then "abs" else "rel")
    filter_names
    (if tr.Ktrace.dstate then 1 else 0)
    tr.Ktrace.head

let render t name =
  match name with
  | "cpuinfo" -> Some (render_cpuinfo t)
  | "meminfo" -> Some (render_meminfo t)
  | "uptime" -> Some (render_uptime t)
  | "tasks" -> Some (render_tasks t)
  | "sched" -> Some (render_sched t)
  | "ipc" -> Some (render_ipc t)
  | "locks" -> Some (render_locks t)
  | "kcheck" -> Some (render_kcheck t)
  | "metrics" -> Some (render_metrics t)
  | "profile" -> Some (render_profile t)
  | "ktrace_ctl" -> Some (render_ktrace_ctl t)
  | "vprobe" | "vprobe_ctl" -> Some (render_vprobe t)
  | "delays" ->
      Some (Acct.render_delays ~now_ns:(Sched.now t.sched) (Sched.all_tasks t.sched))
  | _ -> None

(* ---- /proc/ktrace: the consuming trace-pipe ---- *)

(* One cursor per open file, created lazily at first read/poll; creating
   it bumps [readers_open] so the emit hot path only pokes the deferred
   poll_wake while someone is actually listening. *)
let trace_reader t file =
  match Hashtbl.find_opt t.readers file.Fd.file_id with
  | Some r -> r
  | None ->
      let tr = t.sched.Sched.trace in
      let r = Ktrace.new_reader tr in
      tr.Ktrace.readers_open <- tr.Ktrace.readers_open + 1;
      Hashtbl.replace t.readers file.Fd.file_id r;
      Hashtbl.replace t.pending file.Fd.file_id "";
      r

let trace_pending t file =
  Option.value ~default:"" (Hashtbl.find_opt t.pending file.Fd.file_id)

(* Reads consume: drain the cursor into formatted lines, hand out up to
   [len] bytes, keep the remainder for the next read. An empty pipe
   blocks on the shared poll channel (every poll_wake rescans us, and
   the tracer's on_data hook fires one) — or returns -EAGAIN under
   O_NONBLOCK. *)
let ktrace_read t ctx file ~len =
  let reader = trace_reader t file in
  let rec attempt () =
    let pending =
      let p = trace_pending t file in
      if String.length p > 0 then p
      else
        Ktrace.read_reader reader ~max:128
        |> List.map (fun e -> Ktrace.format_entry e ^ "\n")
        |> String.concat ""
    in
    if String.length pending = 0 then begin
      if file.Fd.nonblock then Sched.fail ctx Errno.eagain
      else Sched.block ctx ~chan:Task.Poll_waiters ~retry:attempt
    end
    else begin
      let n = max 0 (min len (String.length pending)) in
      Hashtbl.replace t.pending file.Fd.file_id
        (String.sub pending n (String.length pending - n));
      Sched.charge ctx (Kcost.copy_cycles ~bytes:n + 500);
      Sched.finish ctx (Abi.R_bytes (Bytes.of_string (String.sub pending 0 n)))
    end
  in
  attempt ()

let ktrace_ready t file =
  String.length (trace_pending t file) > 0
  || Ktrace.reader_ready (trace_reader t file)

let ktrace_close t file =
  (match Hashtbl.find_opt t.readers file.Fd.file_id with
  | Some _ ->
      let tr = t.sched.Sched.trace in
      tr.Ktrace.readers_open <- max 0 (tr.Ktrace.readers_open - 1)
  | None -> ());
  Hashtbl.remove t.readers file.Fd.file_id;
  Hashtbl.remove t.pending file.Fd.file_id

(* ---- /proc/ktrace_ctl: runtime control ---- *)

(* Commands, one per line: "enable=0|1", "clock=abs|rel" (rel rebases
   stamps at the current instant), "filter=all" or a comma-separated
   class list ("filter=syscall,span"). Every line parses before any
   applies: if one fails, the whole write is rejected with EINVAL and
   nothing changes. *)
let ktrace_ctl_write t ctx bytes =
  let tr = t.sched.Sched.trace in
  let parse line =
    match String.index_opt line '=' with
    | None -> None
    | Some i -> (
        let key = String.sub line 0 i in
        let value =
          String.sub line (i + 1) (String.length line - i - 1) |> String.trim
        in
        match (key, value) with
        | "enable", "0" -> Some (fun () -> Ktrace.set_enabled tr false)
        | "enable", "1" -> Some (fun () -> Ktrace.set_enabled tr true)
        | "clock", "abs" -> Some (fun () -> Ktrace.set_clock_base tr 0L)
        | "clock", "rel" ->
            Some (fun () -> Ktrace.set_clock_base tr (Hw.Board.now t.board))
        | "filter", _ ->
            Option.map
              (fun mask () -> Ktrace.set_filter tr mask)
              (Ktrace.filter_of_string value)
        (* delay-accounting trace events (class dstate): off by default
           so armed-vs-stock traces stay byte-identical *)
        | "dstate", "0" -> Some (fun () -> Ktrace.set_dstate tr false)
        | "dstate", "1" -> Some (fun () -> Ktrace.set_dstate tr true)
        | _ -> None)
  in
  let lines =
    Bytes.to_string bytes |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> not (String.equal l ""))
  in
  let actions = List.filter_map parse lines in
  if lines <> [] && List.compare_lengths actions lines = 0 then begin
    List.iter (fun apply -> apply ()) actions;
    Sched.charge ctx 500;
    Sched.finish ctx (Abi.R_int (Bytes.length bytes))
  end
  else Sched.fail ctx Errno.einval

(* ---- /proc/vprobe_ctl: probe attach/detach ---- *)

(* Probe-spec writes ("probe syscall:read / pid==2 / hist(latency_us)",
   "detach <id>", "clear"), one command per line; Vprobe validates the
   whole write before applying any of it, so a bad line is EINVAL with
   no partial attach. *)
let vprobe_ctl_write t ctx bytes =
  match Vprobe.ctl_write t.sched.Sched.vprobe (Bytes.to_string bytes) with
  | Ok () ->
      Sched.charge ctx 500;
      Sched.finish ctx (Abi.R_int (Bytes.length bytes))
  | Error _ -> Sched.fail ctx Errno.einval

(* ---- dev_ops ---- *)

let snapshot_read t name ctx file ~len =
  let content =
    match Hashtbl.find_opt t.snapshots file.Fd.file_id with
    | Some c -> c
    | None ->
        let c = Option.value ~default:"" (render t name) in
        Hashtbl.replace t.snapshots file.Fd.file_id c;
        c
  in
  (* the offset is under user control via lseek and may sit past the end
     of the snapshot; a read there is 0 bytes, not a String.sub crash *)
  let off = min file.Fd.off (String.length content) in
  let n = max 0 (min len (String.length content - off)) in
  file.Fd.off <- file.Fd.off + n;
  Sched.charge ctx (Kcost.copy_cycles ~bytes:n + 500);
  Sched.finish ctx (Abi.R_bytes (Bytes.of_string (String.sub content off n)))

(* Build dev_ops for one opened proc file. *)
let ops t name =
  match name with
  | "ktrace" ->
      Some
        {
          Fd.dev_name = "proc:ktrace";
          dev_read = (fun ctx file ~len -> ktrace_read t ctx file ~len);
          dev_write =
            (fun ctx _ _ -> Sched.fail ctx Errno.erofs);
          dev_mmap = None;
          dev_close = (fun file -> ktrace_close t file);
          dev_poll = Some (fun _ctx file -> ktrace_ready t file);
        }
  | "ktrace_ctl" ->
      Some
        {
          Fd.dev_name = "proc:ktrace_ctl";
          dev_read = (fun ctx file ~len -> snapshot_read t name ctx file ~len);
          dev_write = (fun ctx _ bytes -> ktrace_ctl_write t ctx bytes);
          dev_mmap = None;
          dev_close = (fun file -> Hashtbl.remove t.snapshots file.Fd.file_id);
          dev_poll = None;
        }
  | "vprobe_ctl" ->
      Some
        {
          Fd.dev_name = "proc:vprobe_ctl";
          dev_read = (fun ctx file ~len -> snapshot_read t name ctx file ~len);
          dev_write = (fun ctx _ bytes -> vprobe_ctl_write t ctx bytes);
          dev_mmap = None;
          dev_close = (fun file -> Hashtbl.remove t.snapshots file.Fd.file_id);
          dev_poll = None;
        }
  | _ -> (
      match render t name with
      | None -> None
      | Some _ ->
          Some
            {
              Fd.dev_name = "proc:" ^ name;
              dev_read = (fun ctx file ~len -> snapshot_read t name ctx file ~len);
              dev_write =
                (fun ctx _ _ -> Sched.fail ctx Errno.erofs);
              dev_mmap = None;
              dev_close =
                (fun file -> Hashtbl.remove t.snapshots file.Fd.file_id);
              dev_poll = None;
            })
