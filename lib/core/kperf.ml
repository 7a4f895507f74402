(** kperf: the kernel's shared observability substrate.

    Three pieces, all host-side bookkeeping that charges {e zero} virtual
    cycles (the kcheck rule — no [Sched.charge], no engine events), so
    arming any of it leaves every paper number and BENCH json untouched:

    - {!Hist}, one log-linear histogram implementation (HDR-style, ~2
      buckets per octave from 100 ns to beyond 10 s) replacing the
      private percentile math that latency/sched/ipc benches and the
      scheduler's run-delay array each grew on their own;
    - a metric registry: named histograms and counters that
      [/proc/metrics] renders in Prometheus text exposition format. A
      counter either belongs to the registry (a {!cell} the call site
      bumps) or reads state another module owns through a closure;
    - the sampling profiler: every [profile_hz] timer ticks the scheduler
      calls {!sample} with what the core was doing (in-syscall name,
      in-IRQ line, user code, or idle) and the attribution table is
      readable at [/proc/profile]. *)

(* ---- log-linear histograms ---- *)

module Hist = struct
  (* Bucket lower bounds interleave 100*2^k and 150*2^k ns for
     k = 0..27 — two buckets per octave, so any recorded value is within
     ~33% of its bucket's lower bound. 100*2^27 ns = 13.4 s, comfortably
     past the 10 s ceiling; everything above 150*2^27 lands in one
     overflow bucket. Bucket 0 catches [0, 100) ns. *)
  let octaves = 27
  let buckets = (2 * (octaves + 1)) + 1 (* 57: sub-100ns + pairs + overflow *)

  let lower_bound_ns i =
    if i = 0 then 0
    else begin
      let k = (i - 1) / 2 in
      if (i - 1) mod 2 = 0 then 100 lsl k else 150 lsl k
    end

  (* Upper bound of bucket [i] (exclusive); the overflow bucket has none. *)
  let upper_bound_ns i = if i >= buckets - 1 then None else Some (lower_bound_ns (i + 1))

  let bucket_of_ns ns =
    if ns < 100 then 0
    else begin
      let k = ref 0 in
      while !k < octaves && ns >= 100 lsl (!k + 1) do
        incr k
      done;
      if !k = octaves && ns >= 150 lsl octaves then buckets - 1
      else 1 + (2 * !k) + if ns >= 150 lsl !k then 1 else 0
    end

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum_ns : int64;
    mutable min_ns : int64;
    mutable max_ns : int64;
  }

  let create () =
    {
      counts = Array.make buckets 0;
      total = 0;
      sum_ns = 0L;
      min_ns = Int64.max_int;
      max_ns = 0L;
    }

  let record t ns =
    let ns = if Int64.compare ns 0L < 0 then 0L else ns in
    let b = bucket_of_ns (Int64.to_int ns) in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1;
    t.sum_ns <- Int64.add t.sum_ns ns;
    if Int64.compare ns t.min_ns < 0 then t.min_ns <- ns;
    if Int64.compare ns t.max_ns > 0 then t.max_ns <- ns

  let count t = t.total
  let sum_ns t = t.sum_ns
  let max_ns t = t.max_ns
  let min_ns t = if t.total = 0 then 0L else t.min_ns

  let mean_ns t =
    if t.total = 0 then 0.0
    else Int64.to_float t.sum_ns /. float_of_int t.total

  (* Merging two histograms is exactly recording the concatenation of
     their samples: the state is bucket counts plus (total, sum, min,
     max), all of which compose. *)
  let merge a b =
    let m = create () in
    Array.iteri (fun i n -> m.counts.(i) <- n + b.counts.(i)) a.counts;
    m.total <- a.total + b.total;
    m.sum_ns <- Int64.add a.sum_ns b.sum_ns;
    m.min_ns <- (if Int64.compare a.min_ns b.min_ns < 0 then a.min_ns else b.min_ns);
    m.max_ns <- (if Int64.compare a.max_ns b.max_ns > 0 then a.max_ns else b.max_ns);
    m

  (* Rank interpolation: walk the cumulative counts to the bucket holding
     the q-quantile rank, then interpolate linearly inside it. The result
     is clamped into [min_ns, max_ns], which also pins the invariants the
     tests lean on: min <= p50 <= p99 <= max.

     An empty histogram returns 0.0 for every quantile — the clamp path
     must never run with the sentinel min/max of a fresh histogram
     (min_ns = Int64.max_int), so the guard below is load-bearing, not
     cosmetic. Callers can rely on percentile_ns/percentile_us = 0 as
     the "no samples yet" reading. *)
  let percentile_ns t q =
    if t.total = 0 then 0.0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank = q *. float_of_int t.total in
      let rank = if rank < 1.0 then 1.0 else rank in
      let result = ref (Int64.to_float t.max_ns) in
      let cum = ref 0 and found = ref false in
      Array.iteri
        (fun i n ->
          if (not !found) && n > 0 then begin
            let next = !cum + n in
            if float_of_int next >= rank then begin
              let lo = float_of_int (lower_bound_ns i) in
              let hi =
                match upper_bound_ns i with
                | Some b -> float_of_int b
                | None -> Int64.to_float t.max_ns
              in
              let frac = (rank -. float_of_int !cum) /. float_of_int n in
              result := lo +. (frac *. (hi -. lo));
              found := true
            end;
            cum := next
          end
          else if not !found then cum := !cum + n)
        t.counts;
      let lo = Int64.to_float (min_ns t) and hi = Int64.to_float t.max_ns in
      if !result < lo then lo else if !result > hi then hi else !result
    end

  let percentile_us t q = percentile_ns t q /. 1e3

  (* One compact human line: /proc/sched and debug dumps use this. *)
  let render_line t =
    if t.total = 0 then "no samples"
    else
      Printf.sprintf "n=%d avg=%.0fns p50=%.0fns p99=%.0fns max=%Ldns"
        t.total (mean_ns t) (percentile_ns t 0.50) (percentile_ns t 0.99)
        t.max_ns
end

(* ---- the metric registry ---- *)

type metric = {
  m_name : string;  (** Prometheus metric name, e.g. [vos_syscall_service_ns] *)
  m_label : (string * string) option;  (** e.g. [("core", "0")] *)
  m_hist : Hist.t;
}

(* A registry-owned counter: call sites take it once at boot and bump
   [n] with a plain field store, so the hot path has no lookup, closure
   call or allocation. *)
type cell = { mutable n : int }

type counter = {
  c_name : string;
  c_label : (string * string) option;
  c_help : string;
  c_read : unit -> int;
  c_cell : cell option;  (** [Some] when the registry owns the value *)
}

type t = {
  mutable metrics : metric list;  (** newest first; rendered reversed *)
  mutable counters : counter list;
  profile : (int * int * string, int) Hashtbl.t;
      (** (core, pid, attribution) -> samples *)
  mutable profile_samples : int;
  mutable profile_hz : int;  (** 0 = profiler off *)
}

let create () =
  {
    metrics = [];
    counters = [];
    profile = Hashtbl.create 64;
    profile_samples = 0;
    profile_hz = 0;
  }

(* Find-or-create: recording sites grab their histogram once at init and
   hold the [Hist.t] directly, so lookup cost never rides a hot path. *)
let hist t ?label name =
  let same m = String.equal m.m_name name && m.m_label = label in
  match List.find_opt same t.metrics with
  | Some m -> m.m_hist
  | None ->
      let h = Hist.create () in
      t.metrics <-
        { m_name = name; m_label = label; m_hist = h }
        :: t.metrics;
      h

let register_counter t ?label ?(help = "") name read =
  t.counters <-
    { c_name = name; c_label = label; c_help = help; c_read = read;
      c_cell = None }
    :: t.counters

(* Find-or-create, like {!hist}: every taker of one name and label
   shares one cell, and renderers read it from the same place. Callers
   take their cells in [let]s, not inside a record literal, whose fields
   evaluate in an unspecified order: registration order is the order of
   the families in /proc/metrics. *)
let counter t ?label name =
  let owned c =
    match c.c_cell with
    | Some cell when String.equal c.c_name name && c.c_label = label ->
        Some cell
    | Some _ | None -> None
  in
  match List.find_map owned t.counters with
  | Some cell -> cell
  | None ->
      let cell = { n = 0 } in
      t.counters <-
        { c_name = name; c_label = label; c_help = "";
          c_read = (fun () -> cell.n); c_cell = Some cell }
        :: t.counters;
      cell

(* ---- the sampling profiler ---- *)

let sample t ~core ~pid ~where_ =
  let key = (core, pid, where_) in
  Hashtbl.replace t.profile key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.profile key));
  t.profile_samples <- t.profile_samples + 1

let profile_rows t =
  Hashtbl.fold (fun (core, pid, wh) n acc -> (core, pid, wh, n) :: acc) t.profile []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let render_profile t =
  let buf = Buffer.create 512 in
  if t.profile_hz = 0 then Buffer.add_string buf "profiler\t: disabled (profile_hz = 0)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "profile_hz\t: %d\nsamples\t\t: %d\n\n%-6s %-6s %-8s %s\n"
         t.profile_hz t.profile_samples "CORE" "PID" "SAMPLES" "WHERE");
    List.iter
      (fun (core, pid, wh, n) ->
        Buffer.add_string buf (Printf.sprintf "%-6d %-6d %-8d %s\n" core pid n wh))
      (profile_rows t)
  end;
  Buffer.contents buf

(* ---- Prometheus text exposition ---- *)

(* A label value, quoted and escaped the way the exposition format
   wants: backslash, double quote and newline are escaped, every other
   byte is written as it is. *)
let quote_label v =
  let b = Buffer.create (String.length v + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.add_char b '"';
  Buffer.contents b

let label_str = function
  | None -> ""
  | Some (k, v) -> Printf.sprintf "{%s=%s}" k (quote_label v)

let bucket_label extra le =
  match extra with
  | None -> Printf.sprintf "{le=%s}" (quote_label le)
  | Some (k, v) ->
      Printf.sprintf "{%s=%s,le=%s}" k (quote_label v) (quote_label le)

(* Group registry entries by metric name, preserving first-registration
   order. The exposition format requires all samples of one family to be
   contiguous under a single # TYPE line — the per-core labeled
   histograms register one entry per core under the same name, so
   rendering entry-by-entry would emit duplicate metadata lines (a
   format violation the test suite's exposition parser rejects). *)
let group_by_name entries name_of =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name = name_of e in
      if not (Hashtbl.mem tbl name) then begin
        Hashtbl.add tbl name (ref []);
        order := name :: !order
      end;
      let cell = Hashtbl.find tbl name in
      cell := e :: !cell)
    entries;
  List.rev_map (fun name -> (name, List.rev !(Hashtbl.find tbl name))) !order

let add_meta buf ~name ~kind ~help =
  if not (String.equal help "") then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let render_metrics t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, cs) ->
      let help =
        match List.find_opt (fun c -> c.c_help <> "") cs with
        | Some c -> c.c_help
        | None -> ""
      in
      add_meta buf ~name ~kind:"counter" ~help;
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" c.c_name (label_str c.c_label)
               (c.c_read ())))
        cs)
    (group_by_name (List.rev t.counters) (fun c -> c.c_name));
  List.iter
    (fun (name, ms) ->
      add_meta buf ~name ~kind:"histogram" ~help:"";
      List.iter
        (fun m ->
          let h = m.m_hist in
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              (* elide empty interior buckets to keep the page readable;
                 the cumulative-count semantics survive because each
                 emitted bucket carries the running total *)
              if n > 0 || i = Hist.buckets - 1 then begin
                let le =
                  match Hist.upper_bound_ns i with
                  | Some b -> string_of_int b
                  | None -> "+Inf"
                in
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" m.m_name
                     (bucket_label m.m_label le) !cum)
              end)
            h.Hist.counts;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %Ld\n" m.m_name (label_str m.m_label)
               h.Hist.sum_ns);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.m_name (label_str m.m_label)
               h.Hist.total))
        ms)
    (group_by_name (List.rev t.metrics) (fun m -> m.m_name));
  Buffer.contents buf
