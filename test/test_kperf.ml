(** kperf tests: the shared log-linear histogram (exact bucket
    boundaries plus qcheck invariants), the trace ring and its consuming
    readers, the machine format, span pairing over a
    real launcher session, and the /proc surfaces (metrics, profile,
    the ktrace trace-pipe and ktrace_ctl). *)

open Tharness

module Hist = Core.Kperf.Hist

let contains s sub =
  let nl = String.length sub and l = String.length s in
  let rec at i = i + nl <= l && (String.equal (String.sub s i nl) sub || at (i + 1)) in
  at 0

let count_sub s sub =
  let nl = String.length sub and l = String.length s in
  let rec go i acc =
    if i + nl > l then acc
    else if String.equal (String.sub s i nl) sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Every kernel in this file boots with the 100 Hz profiler armed on top
   of the always-on tracer, metrics page and probe registry. *)
let armed config = { config with Core.Kconfig.profile_hz = 100 }

(* ---- histogram: exact bucket boundaries ---- *)

let hist_bucket_boundaries () =
  (* bucket 0 is [0, 100) ns; after that lower bounds interleave
     100*2^k and 150*2^k *)
  check_int "0 -> bucket 0" 0 (Hist.bucket_of_ns 0);
  check_int "99 -> bucket 0" 0 (Hist.bucket_of_ns 99);
  check_int "100 -> bucket 1" 1 (Hist.bucket_of_ns 100);
  check_int "149 -> bucket 1" 1 (Hist.bucket_of_ns 149);
  check_int "150 -> bucket 2" 2 (Hist.bucket_of_ns 150);
  check_int "199 -> bucket 2" 2 (Hist.bucket_of_ns 199);
  check_int "200 -> bucket 3" 3 (Hist.bucket_of_ns 200);
  check_int "299 -> bucket 3" 3 (Hist.bucket_of_ns 299);
  check_int "300 -> bucket 4" 4 (Hist.bucket_of_ns 300);
  check_int "1000 and 1023 share a bucket" (Hist.bucket_of_ns 1_000)
    (Hist.bucket_of_ns 1_023);
  (* every interior lower bound maps to its own bucket, and one ns less
     maps to the bucket before *)
  for i = 1 to Hist.buckets - 2 do
    let lo = Hist.lower_bound_ns i in
    check_int (Printf.sprintf "lower bound of bucket %d" i) i
      (Hist.bucket_of_ns lo);
    check_int (Printf.sprintf "just below bucket %d" i) (i - 1)
      (Hist.bucket_of_ns (lo - 1))
  done;
  check_int "beyond the ladder -> overflow bucket" (Hist.buckets - 1)
    (Hist.bucket_of_ns 1_000_000_000_000)

let hist_render_empty () =
  let h = Hist.create () in
  check_string "empty histogram renders" "no samples" (Hist.render_line h);
  check_int "empty count" 0 (Hist.count h)

(* Regression: every quantile of an empty histogram is 0, never the
   Int64.max_int min-sentinel leaking through the clamp path. Callers
   (vprobe renders, the benches) rely on 0 as "no samples yet". *)
let hist_empty_percentile_zero () =
  let h = Hist.create () in
  List.iter
    (fun q ->
      check_close (Printf.sprintf "empty p%g is 0" (q *. 100.)) 0.0
        (Hist.percentile_ns h q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  check_close "empty percentile_us is 0 too" 0.0 (Hist.percentile_us h 0.99);
  check_close "empty mean is 0" 0.0 (Hist.mean_ns h);
  (* one sample flips every quantile to that sample's bucket, so the
     empty-case 0 cannot be confused with a real reading *)
  Hist.record h 5_000L;
  check_bool "non-empty p50 leaves 0" true (Hist.percentile_ns h 0.5 > 0.0)

(* ---- histogram: qcheck invariants ---- *)

let gen_samples =
  QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 1_000_000_000))

let hist_of_list l =
  let h = Hist.create () in
  List.iter (fun v -> Hist.record h (Int64.of_int v)) l;
  h

let hist_percentile_order =
  qcheck ~count:200 "histogram max >= p99 >= p50 >= min" gen_samples
    (fun l ->
      let h = hist_of_list l in
      let p50 = Hist.percentile_ns h 0.50 in
      let p99 = Hist.percentile_ns h 0.99 in
      let mn = Int64.to_float (Hist.min_ns h) in
      let mx = Int64.to_float (Hist.max_ns h) in
      mn <= p50 && p50 <= p99 && p99 <= mx && Hist.count h = List.length l)

let hist_merge_is_concat =
  qcheck ~count:200 "merge of two histograms = histogram of concatenation"
    QCheck.(pair gen_samples gen_samples)
    (fun (a, b) ->
      let merged = Hist.merge (hist_of_list a) (hist_of_list b) in
      let concat = hist_of_list (a @ b) in
      Hist.count merged = Hist.count concat
      && Int64.equal (Hist.sum_ns merged) (Hist.sum_ns concat)
      && Int64.equal (Hist.min_ns merged) (Hist.min_ns concat)
      && Int64.equal (Hist.max_ns merged) (Hist.max_ns concat)
      && Hist.percentile_ns merged 0.50 = Hist.percentile_ns concat 0.50
      && Hist.percentile_ns merged 0.99 = Hist.percentile_ns concat 0.99)

(* ---- trace rings and readers ---- *)

(* An SD request's Span_end is emitted at issue time but stamped with its
   completion time, so the ring holds it ahead of entries stamped
   earlier. The dump restores time order; the trace-pipe reader keeps
   emission order. *)
let trace_dump_time_order_reader_emission_order () =
  let tr = Core.Ktrace.create ~capacity:1024 () in
  let r = Core.Ktrace.new_reader tr in
  Core.Ktrace.emit tr ~ts_ns:10L ~core:0 (Core.Ktrace.Span_begin (1, 2, "sd"));
  Core.Ktrace.emit tr ~ts_ns:50L ~core:0 (Core.Ktrace.Span_end 1);
  Core.Ktrace.emit tr ~ts_ns:20L ~core:1 (Core.Ktrace.Sched_wakeup 3);
  Core.Ktrace.emit tr ~ts_ns:30L ~core:2 Core.Ktrace.Wm_composite;
  let stamps es = List.map (fun e -> Int64.to_int e.Core.Ktrace.ts_ns) es in
  let seqs es = List.map (fun e -> e.Core.Ktrace.seq) es in
  let d = Core.Ktrace.dump tr in
  Alcotest.(check (list int)) "dump is in time order" [ 10; 20; 30; 50 ]
    (stamps d);
  Alcotest.(check (list int)) "dump carries emission seqs" [ 0; 2; 3; 1 ]
    (seqs d);
  let streamed = Core.Ktrace.read_reader r ~max:10 in
  Alcotest.(check (list int)) "reader streams in emission order"
    [ 10; 50; 20; 30 ] (stamps streamed);
  Alcotest.(check (list int)) "reader seqs ascend" [ 0; 1; 2; 3 ]
    (seqs streamed)

let trace_ring_wraps () =
  (* tiny ring: only the newest [capacity] entries survive *)
  let tr = Core.Ktrace.create ~capacity:1024 () in
  for i = 0 to 1999 do
    Core.Ktrace.emit tr ~ts_ns:(Int64.of_int i) ~core:0
      (Core.Ktrace.Sched_wakeup i)
  done;
  let d = Core.Ktrace.dump tr in
  check_int "ring keeps capacity entries" 1024 (List.length d);
  (match d with
  | first :: _ ->
      check_int "oldest surviving entry is the wrap point" (2000 - 1024)
        (Int64.to_int first.Core.Ktrace.ts_ns)
  | [] -> Alcotest.fail "empty dump");
  check_int "head counts every emit" 2000 tr.Core.Ktrace.head

let trace_reader_consumes () =
  let tr = Core.Ktrace.create ~capacity:1024 () in
  Core.Ktrace.emit tr ~ts_ns:1L ~core:0 Core.Ktrace.Kbd_report;
  let r = Core.Ktrace.new_reader tr in
  check_int "reader starts at the present: backlog invisible" 0
    (List.length (Core.Ktrace.read_reader r ~max:10));
  Core.Ktrace.emit tr ~ts_ns:2L ~core:0 Core.Ktrace.Wm_composite;
  Core.Ktrace.emit tr ~ts_ns:3L ~core:0 (Core.Ktrace.Sched_wakeup 7);
  check_bool "reader sees pending data" true (Core.Ktrace.reader_ready r);
  check_int "reads both new events" 2
    (List.length (Core.Ktrace.read_reader r ~max:10));
  check_int "consuming: second read is empty" 0
    (List.length (Core.Ktrace.read_reader r ~max:10));
  check_bool "drained reader not ready" false (Core.Ktrace.reader_ready r)

let trace_reader_lost_on_overwrite () =
  let tr = Core.Ktrace.create ~capacity:1024 () in
  let r = Core.Ktrace.new_reader tr in
  for i = 0 to 1499 do
    Core.Ktrace.emit tr ~ts_ns:(Int64.of_int i) ~core:0
      (Core.Ktrace.Sched_wakeup i)
  done;
  let got = ref 0 in
  let rec drain () =
    match Core.Ktrace.read_reader r ~max:256 with
    | [] -> ()
    | es ->
        got := !got + List.length es;
        drain ()
  in
  drain ();
  check_int "reader got what survived" 1024 !got;
  check_int "overwritten entries counted as lost" (1500 - 1024)
    (Core.Ktrace.reader_lost r)

let trace_filter_classes () =
  let tr = Core.Ktrace.create ~capacity:1024 () in
  (match Core.Ktrace.filter_of_string "syscall,irq" with
  | Some mask -> Core.Ktrace.set_filter tr mask
  | None -> Alcotest.fail "filter_of_string rejected valid classes");
  Core.Ktrace.emit tr ~ts_ns:1L ~core:0
    (Core.Ktrace.Syscall_enter (1, "read"));
  Core.Ktrace.emit tr ~ts_ns:2L ~core:0 (Core.Ktrace.Sched_wakeup 1);
  Core.Ktrace.emit tr ~ts_ns:3L ~core:0 (Core.Ktrace.Irq_enter "sd-card");
  check_int "sched event filtered out" 2 (List.length (Core.Ktrace.dump tr));
  check_bool "bad class name rejected" true
    (Core.Ktrace.filter_of_string "syscall,bogus" = None);
  check_bool "\"all\" parses to the full mask" true
    (Core.Ktrace.filter_of_string "all" = Some Core.Ktrace.filter_all)

(* ---- machine format: exact rendering and round-trip ---- *)

(* The exact machine line for one entry of every event constructor,
   with the integer extremes the renderer must print as [%d]/[%Ld]:
   negative pids, [max_int]/[min_int], stamps beyond a native int and a
   negative stamp from a relative clock. Each line parses back. *)
let machine_roundtrip () =
  let module K = Core.Ktrace in
  let at ?(ts = 5L) ?(seq = 1) ?(core = 0) ev =
    { K.ts_ns = ts; seq; core; ev }
  in
  let rel =
    let tr = K.create ~capacity:1024 () in
    K.set_clock_base tr 1_000L;
    K.emit tr ~ts_ns:250L ~core:2 (K.Sched_wakeup 7);
    match K.dump tr with
    | [ e ] -> e
    | _ -> Alcotest.fail "relative-clock ring should hold one entry"
  in
  let cases =
    [
      (at (K.Syscall_enter (3, "open")), "5 1 0 sys_enter 3 open");
      (at (K.Syscall_exit (-2, "read")), "5 1 0 sys_exit -2 read");
      ( at (K.Ctx_switch (max_int, min_int)),
        "5 1 0 ctx_switch 4611686018427387903 -4611686018427387904" );
      (at ~core:3 (K.Irq_enter "usb hc"), "5 1 3 irq_enter usb hc");
      (at (K.Irq_exit "sd-card"), "5 1 0 irq_exit sd-card");
      (at (K.Sched_wakeup 0), "5 1 0 wakeup 0");
      (at (K.Sched_migrate (5, 0, 3)), "5 1 0 migrate 5 0 3");
      (at (K.Ipi_send 2), "5 1 0 ipi_send 2");
      (at (K.Ipi_recv 10), "5 1 0 ipi_recv 10");
      (at ~ts:0L ~seq:0 K.Kbd_report, "0 0 0 kbd_report");
      (at (K.Event_delivered 99), "5 1 0 event_delivered 99");
      (at (K.Poll_return (4, -1)), "5 1 0 poll_return 4 -1");
      (at (K.Frame_present 123456789), "5 1 0 frame_present 123456789");
      (at ~seq:max_int K.Wm_composite, "5 4611686018427387903 0 wm_composite");
      (at (K.Lock_acquire ("ptable", 1)), "5 1 0 lock_acquire 1 ptable");
      ( at (K.Lock_release ("bcache lock", -1)),
        "5 1 0 lock_release -1 bcache lock" );
      (at (K.Sem_block (6, 9)), "5 1 0 sem_block 6 9");
      (at (K.Sem_wake (-1, 9)), "5 1 0 sem_wake -1 9");
      (at (K.Custom "hello world"), "5 1 0 custom hello world");
      ( at (K.Span_begin (11, -3, "sd:read with spaces")),
        "5 1 0 span_begin 11 -3 sd:read with spaces" );
      ( at ~ts:Int64.max_int (K.Span_end 11),
        "9223372036854775807 1 0 span_end 11" );
      ( at ~ts:Int64.min_int (K.Task_state (8, 2)),
        "-9223372036854775808 1 0 task_state 8 2" );
      ( at ~ts:4611686018427387904L (K.Runq_depth (1, 4)),
        "4611686018427387904 1 0 runq_depth 1 4" );
      ( at ~ts:(-4611686018427387905L) (K.Runq_depth (0, 0)),
        "-4611686018427387905 1 0 runq_depth 0 0" );
      (at ~ts:(-10L) (K.Sched_wakeup (-10)), "-10 1 0 wakeup -10");
      (rel, "-750 0 2 wakeup 7");
    ]
  in
  List.iter
    (fun (e, want) ->
      check_string "rendered line" want (K.machine_line e);
      match K.parse_machine_line want with
      | Some e' -> check_bool ("parses back: " ^ want) true (e = e')
      | None -> Alcotest.failf "failed to parse %s" want)
    cases;
  let b = Buffer.create 16 in
  K.add_machine_dump b [];
  check_string "empty dump renders nothing" "" (Buffer.contents b);
  K.add_machine_dump b (List.map fst [ List.nth cases 0; List.nth cases 9 ]);
  check_string "dump lines are newline-joined"
    "5 1 0 sys_enter 3 open\n0 0 0 kbd_report" (Buffer.contents b)

let machine_render_matches_printf =
  let gen_int =
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int ] ])
  in
  let gen_ts =
    QCheck.(
      oneof
        [
          int64;
          map Int64.of_int small_signed_int;
          oneofl [ 0L; Int64.max_int; Int64.min_int; 4611686018427387904L ];
        ])
  in
  qcheck ~count:500 "machine integers render as %Ld/%d"
    QCheck.(quad gen_ts gen_int gen_int gen_int)
    (fun (ts, seq, core, pid) ->
      let e =
        { Core.Ktrace.ts_ns = ts; seq; core; ev = Core.Ktrace.Sched_wakeup pid }
      in
      String.equal
        (Core.Ktrace.machine_line e)
        (Printf.sprintf "%Ld %d %d wakeup %d" ts seq core pid))

(* Every constructor, with integer extremes and free-form strings that
   hold spaces anywhere but at the end (the parser trims the line, so a
   trailing space cannot survive), renders and parses back to itself. *)
let machine_parse_inverts_render =
  let module K = Core.Ktrace in
  let open QCheck.Gen in
  let i = oneof [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int ] ] in
  let s =
    map
      (fun s ->
        let n = String.length s in
        if n > 0 && Char.equal s.[n - 1] ' ' then s ^ "x" else s)
      (string_size ~gen:(oneof [ char_range ' ' '~'; return ' ' ]) (0 -- 16))
  in
  let ev =
    oneof
      [
        map2 (fun p n -> K.Syscall_enter (p, n)) i s;
        map2 (fun p n -> K.Syscall_exit (p, n)) i s;
        map2 (fun a b -> K.Ctx_switch (a, b)) i i;
        map (fun l -> K.Irq_enter l) s;
        map (fun l -> K.Irq_exit l) s;
        map (fun p -> K.Sched_wakeup p) i;
        map3 (fun p a b -> K.Sched_migrate (p, a, b)) i i i;
        map (fun c -> K.Ipi_send c) i;
        map (fun c -> K.Ipi_recv c) i;
        return K.Kbd_report;
        map (fun p -> K.Event_delivered p) i;
        map2 (fun p n -> K.Poll_return (p, n)) i i;
        map (fun p -> K.Frame_present p) i;
        return K.Wm_composite;
        map2 (fun n c -> K.Lock_acquire (n, c)) s i;
        map2 (fun n c -> K.Lock_release (n, c)) s i;
        map2 (fun p id -> K.Sem_block (p, id)) i i;
        map2 (fun p id -> K.Sem_wake (p, id)) i i;
        map (fun m -> K.Custom m) s;
        map3 (fun id p n -> K.Span_begin (id, p, n)) i i s;
        map (fun id -> K.Span_end id) i;
        map2 (fun p st -> K.Task_state (p, st)) i i;
        map2 (fun c d -> K.Runq_depth (c, d)) i i;
      ]
  in
  let ts =
    oneof
      [
        ui64;
        map Int64.of_int small_signed_int;
        oneofl [ 0L; Int64.max_int; Int64.min_int; 4611686018427387904L ];
      ]
  in
  let entry =
    map2
      (fun (ts_ns, seq, core) ev -> { K.ts_ns; seq; core; ev })
      (triple ts i i) ev
  in
  qcheck ~count:2000 "parse_machine_line (machine_line e) = Some e"
    (QCheck.make ~print:K.machine_line entry)
    (fun e -> K.parse_machine_line (K.machine_line e) = Some e)

(* Malformed lines, one per argument shape, each pinned to the answer
   the parser has always given: an integer shape rejects a missing,
   extra or non-integer field; a trailing string may be empty; an
   argument-less tag ignores trailing text. *)
let machine_parse_malformed () =
  let module K = Core.Ktrace in
  let cases =
    [
      ("", None);
      ("7 3 wakeup 1", None);
      ("12 x 0 sys_enter 1 read", None);
      ("12 0 0 teleport 1", None);
      ("7 3 1 wakeup", None);
      ("7 3 1 wakeup 1 2", None);
      ("7 3 1 wakeup x", None);
      ("7 3 1 wakeup  1", None);
      ("7 3 1 ctx_switch 1", None);
      ("7 3 1 ctx_switch 1 2 3", None);
      ("7 3 1 ctx_switch 1 x", None);
      ("7 3 1 migrate 1 2", None);
      ("7 3 1 migrate 1 2 3 4", None);
      ("7 3 1 migrate 1 x 3", None);
      ("7 3 1 sys_enter", None);
      ("7 3 1 sys_enter 4", Some (K.Syscall_enter (4, "")));
      ("7 3 1 sys_enter x read", None);
      ("7 3 1 sys_enter 4 read more", Some (K.Syscall_enter (4, "read more")));
      ("7 3 1 span_begin 1", None);
      ("7 3 1 span_begin 1 2", Some (K.Span_begin (1, 2, "")));
      ("7 3 1 span_begin 1 x open", None);
      ("7 3 1 irq_enter", Some (K.Irq_enter ""));
      ("7 3 1 kbd_report 1 2", Some K.Kbd_report);
      ("7 3 1 wm_composite junk", Some K.Wm_composite);
    ]
  in
  List.iter
    (fun (line, want) ->
      let got =
        Option.map (fun e -> e.K.ev) (K.parse_machine_line line)
      in
      check_bool (Printf.sprintf "%S" line) true (got = want))
    cases

(* ---- dump order against the reference sort ---- *)

(* The surviving entries in ring (emission) order. *)
let ring_window (tr : Core.Ktrace.t) =
  let n = min tr.head (Core.Ktrace.length tr) in
  List.init n (fun i -> Core.Ktrace.entry tr (tr.head - n + i))

let check_dump_sorted name tr =
  let reference = List.sort Core.Ktrace.compare_entry (ring_window tr) in
  let d = Core.Ktrace.dump tr in
  check_bool (name ^ ": dump = List.sort compare_entry") true (d = reference);
  let rec stable = function
    | a :: (b :: _ as rest) ->
        (Int64.compare a.Core.Ktrace.ts_ns b.Core.Ktrace.ts_ns < 0
        || Int64.equal a.Core.Ktrace.ts_ns b.Core.Ktrace.ts_ns
           && a.Core.Ktrace.seq < b.Core.Ktrace.seq)
        && stable rest
    | [ _ ] | [] -> true
  in
  check_bool (name ^ ": equal stamps stay in emission order") true (stable d)

(* SD-style spans: each Span_end is emitted at issue time, stamped at
   completion, with a pair of equal stamps every few entries *)
let emit_sd tr i =
  let module K = Core.Ktrace in
  let ts = Int64.of_int (i / 2 * 10) in
  K.emit tr ~ts_ns:ts ~core:(i land 3) (K.Sched_wakeup i);
  if i mod 50 = 7 then begin
    let id = K.new_span tr in
    K.emit tr ~ts_ns:ts ~core:0 (K.Span_begin (id, 1, "sd:read"));
    K.emit tr ~ts_ns:(Int64.add ts 25L) ~core:0 (K.Span_end id)
  end

let trace_dump_matches_reference_sort () =
  let module K = Core.Ktrace in
  let future = K.create ~capacity:1024 () in
  for i = 0 to 599 do
    emit_sd future i
  done;
  check_bool "future stamps make the window unsorted" true
    (ring_window future
    <> List.sort K.compare_entry (ring_window future));
  check_dump_sorted "future-stamped Span_end" future;
  let wrapped = K.create ~capacity:1024 () in
  for i = 0 to 2999 do
    emit_sd wrapped i
  done;
  check_bool "ring wrapped" true (wrapped.K.head > K.length wrapped);
  check_dump_sorted "wrapped ring" wrapped;
  (* every stamp below its predecessor's: the insertion pass runs out of
     shifts and the merge sort takes over *)
  let reversed = K.create ~capacity:1024 () in
  for i = 0 to 1023 do
    K.emit reversed ~ts_ns:(Int64.of_int ((1023 - i) / 2)) ~core:0
      (K.Sched_wakeup i)
  done;
  check_dump_sorted "reverse-ordered ring" reversed;
  check_dump_sorted "empty ring" (K.create ~capacity:1024 ())

(* The panic tail builds only the entries it prints, from the sorted
   positions; its text must be what filtering the whole sorted dump
   printed, on a wrapped ring whose tail holds displaced Span_ends. *)
let panic_tail_matches_filtered_dump () =
  let module K = Core.Ktrace in
  let tr = K.create ~capacity:1024 () in
  for i = 0 to 2999 do
    emit_sd tr i
  done;
  check_bool "ring wrapped" true (tr.K.head > K.length tr);
  let header = Printf.sprintf "trace tail (last %d of %d):\n" in
  let filtered n =
    let recent = K.dump tr in
    let total = List.length recent in
    List.filteri (fun i _ -> i >= total - n) recent
  in
  let rec displaced = function
    | a :: (b :: _ as rest) -> a.K.seq > b.K.seq || displaced rest
    | [ _ ] | [] -> false
  in
  check_bool "the last 64 hold a future-stamped Span_end" true
    (displaced (filtered 64));
  List.iter
    (fun n ->
      let b = Buffer.create 4096 in
      Core.Panic.add_trace_tail b tr n header;
      let tail = filtered n in
      let want =
        header (List.length tail) 1024
        ^ String.concat ""
            (List.map (fun e -> "  " ^ K.format_entry e ^ "\n") tail)
      in
      Alcotest.(check string) (Printf.sprintf "last %d" n) want
        (Buffer.contents b))
    [ -1; 0; 1; 10; 64; 1023; 1024; 5000 ]

(* The ring stores an emit's stamp, core and event in place: a constant
   event with an already-boxed stamp allocates nothing. *)
let emit_allocates_nothing () =
  let module K = Core.Ktrace in
  let tr = K.create () in
  (* opaque: a let-bound [int64] the compiler sees made is unboxed and
     boxed again at every use *)
  let stamp = Sys.opaque_identity 123_456L in
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    K.emit tr ~ts_ns:stamp ~core:1 K.Wm_composite
  done;
  let per_emit = (Gc.minor_words () -. w0) /. float_of_int n in
  check_int "every emit landed" n tr.K.head;
  check_bool
    (Printf.sprintf "an emit allocated %.2f minor words (< 0.5)" per_emit)
    true (per_emit < 0.5)

let trace_dump_sort_qcheck =
  qcheck ~count:200 "dump = reference sort on random stamps"
    QCheck.(list_of_size Gen.(int_range 0 1500) (int_range 0 40))
    (fun stamps ->
      let tr = Core.Ktrace.create ~capacity:1024 () in
      List.iter
        (fun ts ->
          Core.Ktrace.emit tr ~ts_ns:(Int64.of_int ts) ~core:0
            Core.Ktrace.Kbd_report)
        stamps;
      Core.Ktrace.dump tr
      = List.sort Core.Ktrace.compare_entry (ring_window tr))

(* The Figure-11 breakdown averages its keypress samples by running
   update; that must agree with the plain mean, and be 0 with none. *)
let evsel_mean_is_the_mean =
  qcheck "Evsel.mean is the mean"
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Benchlib.Evsel.mean xs in
      match xs with
      | [] -> m = 0.0
      | _ ->
          let n = float_of_int (List.length xs) in
          let mean = List.fold_left ( +. ) 0.0 xs /. n in
          Float.abs (m -. mean) < 1e-6 *. (1.0 +. Float.abs mean))

(* ---- the growing ring reads as the fixed ring ---- *)

(* The ring starts at 1024 entries and doubles up to its capacity. Seen
   through dump, the readers and their lost counts, it must be the ring
   allocated at full size: after [m] emits a dump holds the last
   [min m cap] entries, and a reader drained then has lost whatever
   fell out of that window before it got there. The emit counts sit on
   the growth and wrap points; readers open and drain at random
   positions. *)
let trace_growing_ring_is_fixed_ring =
  let frac = QCheck.float_bound_inclusive 1. in
  qcheck ~count:60 "growing ring reads as the fixed ring"
    QCheck.(
      triple (int_range 1024 8192) (int_range 0 7)
        (list_of_size Gen.(int_range 0 4) (pair frac frac)))
    (fun (capacity, which, readers) ->
      let module K = Core.Ktrace in
      let cap =
        let rec up k = if k >= capacity then k else up (2 * k) in
        up 1
      in
      let n =
        [| 0; 1023; 1024; 1025; cap - 1; cap; cap + 1; 3 * cap |].(which)
      in
      let entry i =
        { K.ts_ns = Int64.of_int i; seq = i; core = i land 3;
          ev = K.Sched_wakeup i }
      in
      let window a m = List.init (m - a) (fun k -> entry (a + k)) in
      let tr = K.create ~capacity () in
      let ok = ref true in
      (* each reader with its model (cursor, lost) and its drain point *)
      let plan =
        List.map
          (fun (a, b) ->
            let p = int_of_float (a *. float_of_int n) in
            (p, p + int_of_float (b *. float_of_int (n - p))))
          readers
      in
      let live = ref [] in
      let drain (r, model, _) m =
        let cursor, lost = !model in
        let oldest = m - cap in
        let cursor, lost =
          if cursor < oldest then (oldest, lost + (oldest - cursor))
          else (cursor, lost)
        in
        model := (m, lost);
        let got = K.read_reader r ~max:max_int in
        if got <> window cursor m || K.reader_lost r <> lost then ok := false
      in
      let at m =
        List.iter
          (fun (p, q) ->
            if p = m then live := (K.new_reader tr, ref (m, 0), q) :: !live)
          plan;
        List.iter (fun ((_, _, q) as r) -> if q = m then drain r m) !live
      in
      for i = 0 to n - 1 do
        at i;
        K.emit tr ~ts_ns:(Int64.of_int i) ~core:(i land 3) (K.Sched_wakeup i);
        if K.length tr > cap then ok := false
      done;
      at n;
      List.iter (fun r -> drain r n) !live;
      !ok
      && K.dump tr = window (max 0 (n - cap)) n
      && (n < cap || K.length tr = cap))

(* ---- span pairing over a real launcher session ---- *)

let span_pairing_full_run () =
  let stage = Proto.Stage.boot ~prototype:5 ~config_tweak:armed () in
  let kernel = stage.Proto.Stage.kernel in
  let board = kernel.Core.Kernel.board in
  ignore (Proto.Stage.start stage "launcher" [ "launcher"; "200" ]);
  Proto.Stage.run_for stage (Sim.Engine.sec 1);
  Hw.Usb.key_down board.Hw.Board.usb 0x51;
  Proto.Stage.run_for stage (Sim.Engine.ms 60);
  Hw.Usb.key_up board.Hw.Board.usb 0x51;
  Proto.Stage.run_for stage (Sim.Engine.ms 500);
  let events = Core.Ktrace.dump kernel.Core.Kernel.sched.Core.Sched.trace in
  let spans, open_begins = Core.Ktrace.pair_spans events in
  check_bool "a real session produces thousands of spans" true
    (List.length spans > 1000);
  (* every span id begins exactly once; every end matches a begin *)
  let seen = Hashtbl.create 1024 in
  let dup = ref 0 and end_without_begin = ref 0 in
  List.iter
    (fun e ->
      match e.Core.Ktrace.ev with
      | Core.Ktrace.Span_begin (id, _, _) ->
          if Hashtbl.mem seen id then incr dup else Hashtbl.add seen id true
      | Core.Ktrace.Span_end id ->
          if not (Hashtbl.mem seen id) then incr end_without_begin
      | _ -> ())
    events;
  check_int "no duplicate span begins" 0 !dup;
  check_int "no span end without a begin" 0 !end_without_begin;
  List.iter
    (fun sp ->
      if Int64.compare sp.Core.Ktrace.sp_end_ns sp.Core.Ktrace.sp_begin_ns < 0
      then Alcotest.failf "span %d ends before it begins" sp.Core.Ktrace.sp_id)
    spans;
  (* unmatched begins are rare: tasks blocked mid-syscall at dump time *)
  check_bool "open spans stay bounded" true (List.length open_begins <= 32)

(* ---- /proc surfaces ---- *)

let metrics_exposes_histograms () =
  let text =
    in_kernel ~config:(armed test_config) (fun _ ->
        (* generate latency in several subsystems: pipes, poll, sleep *)
        (match User.Usys.pipe () with
        | Ok (r, w) ->
            ignore (User.Usys.write w (Bytes.make 32 'x'));
            ignore (User.Usys.read r 32);
            ignore (User.Usys.poll [ r ] ~timeout_ms:0);
            ignore (User.Usys.close r);
            ignore (User.Usys.close w)
        | Error _ -> ());
        ignore (User.Usys.sleep 5);
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/metrics")))
  in
  check_bool "at least 5 histograms exported" true
    (count_sub text " histogram" >= 5);
  check_bool "cumulative buckets with le labels" true
    (count_sub text "_bucket{" > 0 && count_sub text "le=\"+Inf\"" >= 5);
  check_bool "counters exported too" true (count_sub text " counter" >= 3);
  List.iter
    (fun name ->
      if not (contains text name) then Alcotest.failf "missing metric %s" name)
    [
      "vos_syscall_service_ns";
      "vos_sched_run_delay_ns";
      "vos_pipe_read_wait_ns";
      "vos_poll_wait_ns";
      "vos_sd_request_ns";
      "vos_ctx_switches_total";
      "vos_trace_events_total";
    ]

(* ---- Prometheus exposition validity, parser-level ----

   Not substring spot-checks: an actual line parser for the text
   exposition format. Every line must be empty, a # HELP / # TYPE
   comment, or a syntactically valid sample
   [name[{label="escaped",...}] value]; metadata must be unique per
   family and precede that family's samples; histogram families must
   ship the full _bucket/_sum/_count shape. *)

exception Bad_exposition of string

let expo_name_char strict_label c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | ':' -> not strict_label
  | _ -> false

let expo_valid_name ?(label = false) s =
  String.length s > 0
  && (match s.[0] with '0' .. '9' -> false | _ -> true)
  && String.for_all (expo_name_char label) s

(* Parse one sample line; returns the metric name or raises. *)
let expo_parse_sample line =
  let l = String.length line in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad_exposition m)) fmt in
  let i = ref 0 in
  while !i < l && expo_name_char false line.[!i] do incr i done;
  let name = String.sub line 0 !i in
  if not (expo_valid_name name) then fail "bad metric name in %S" line;
  (if !i < l && Char.equal line.[!i] '{' then begin
     incr i;
     let parsing = ref true in
     while !parsing do
       let s = !i in
       while !i < l && expo_name_char true line.[!i] do incr i done;
       if not (expo_valid_name ~label:true (String.sub line s (!i - s))) then
         fail "bad label name in %S" line;
       if !i >= l || not (Char.equal line.[!i] '=') then
         fail "label without '=' in %S" line;
       incr i;
       if !i >= l || not (Char.equal line.[!i] '"') then
         fail "unquoted label value in %S" line;
       incr i;
       while !i < l && not (Char.equal line.[!i] '"') do
         if Char.equal line.[!i] '\\' then
           if
             !i + 1 < l
             && (match line.[!i + 1] with '\\' | '"' | 'n' -> true | _ -> false)
           then i := !i + 2
           else fail "bad escape in label value of %S" line
         else incr i
       done;
       if !i >= l then fail "unterminated label value in %S" line;
       incr i;
       if !i < l && Char.equal line.[!i] ',' then incr i
       else if !i < l && Char.equal line.[!i] '}' then begin
         incr i;
         parsing := false
       end
       else fail "label block not ',' or '}' terminated in %S" line
     done
   end);
  if !i >= l || not (Char.equal line.[!i] ' ') then
    fail "no space before value in %S" line;
  let v = String.sub line (!i + 1) (l - !i - 1) in
  (match v with
  | "+Inf" | "-Inf" | "NaN" -> ()
  | _ -> (
      match float_of_string_opt v with
      | Some _ -> ()
      | None -> fail "non-numeric value %S in %S" v line));
  name

(* The family a sample belongs to: histogram series strip their
   _bucket/_sum/_count suffix iff that base family is declared. *)
let expo_family declared name =
  let strip suf =
    let n = String.length name and s = String.length suf in
    if n > s && String.equal (String.sub name (n - s) s) suf then
      let base = String.sub name 0 (n - s) in
      if Hashtbl.mem declared base then Some base else None
    else None
  in
  match strip "_bucket" with
  | Some b -> b
  | None -> (
      match strip "_sum" with
      | Some b -> b
      | None -> ( match strip "_count" with Some b -> b | None -> name))

(* The page parses line by line, each family has one # TYPE line ahead
   of its samples, and histogram families ship the full shape. *)
let check_exposition text =
  let declared_type = Hashtbl.create 32 in
  let declared_help = Hashtbl.create 32 in
  let sampled = Hashtbl.create 64 in
  let meta_of line =
    (* "# HELP <name> <text>" / "# TYPE <name> <type>" *)
    match String.split_on_char ' ' line with
    | "#" :: kind :: name :: rest -> (kind, name, String.concat " " rest)
    | _ -> raise (Bad_exposition ("malformed comment " ^ line))
  in
  (try
     List.iter
       (fun line ->
         if String.equal line "" then ()
         else if String.length line > 0 && Char.equal line.[0] '#' then begin
           let kind, name, rest = meta_of line in
           if not (expo_valid_name name) then
             raise (Bad_exposition ("metadata for bad name " ^ line));
           match kind with
           | "HELP" ->
               if Hashtbl.mem declared_help name then
                 raise (Bad_exposition ("duplicate HELP for " ^ name));
               Hashtbl.replace declared_help name ()
           | "TYPE" ->
               (match rest with
               | "counter" | "gauge" | "histogram" | "summary" | "untyped" ->
                   ()
               | t -> raise (Bad_exposition ("unknown TYPE " ^ t)));
               if Hashtbl.mem declared_type name then
                 raise (Bad_exposition ("duplicate TYPE for " ^ name));
               if Hashtbl.mem sampled name then
                 raise
                   (Bad_exposition ("TYPE after samples of " ^ name));
               Hashtbl.replace declared_type name rest
           | k -> raise (Bad_exposition ("unknown comment kind " ^ k))
         end
         else begin
           let name = expo_parse_sample line in
           Hashtbl.replace sampled (expo_family declared_type name) ()
         end)
       (String.split_on_char '\n' text)
   with Bad_exposition m -> Alcotest.fail m);
  (* every declared family produced samples, and histogram families
     shipped the full shape *)
  Hashtbl.iter
    (fun name ty ->
      if not (Hashtbl.mem sampled name) then
        Alcotest.failf "family %s declared but never sampled" name;
      if String.equal ty "histogram" then
        List.iter
          (fun suf ->
            if not (contains text (name ^ suf)) then
              Alcotest.failf "histogram %s missing %s series" name suf)
          [ "_bucket{"; "_sum"; "_count" ])
    declared_type;
  check_bool "at least one histogram family checked" true
    (Hashtbl.fold (fun _ ty n -> n || String.equal ty "histogram")
       declared_type false)

let metrics_exposition_wellformed () =
  let tab_spec = "probe sched:wakeup\t/ * / count" in
  let text =
    in_kernel ~config:(armed test_config) (fun _ ->
        (* a vprobe series adds labels built from arbitrary spec text,
           the worst case for label-value escaping; a tab between tokens
           must reach the label as a tab, not as an OCaml escape *)
        let fd = User.Usys.open_ "/proc/vprobe_ctl" Core.Abi.o_wronly in
        ignore
          (User.Usys.write fd
             (Bytes.of_string
                ("probe syscall:getpid / pid>=1 / count\n" ^ tab_spec ^ "\n")));
        ignore (User.Usys.close fd);
        (match User.Usys.pipe () with
        | Ok (r, w) ->
            ignore (User.Usys.write w (Bytes.make 32 'x'));
            ignore (User.Usys.read r 32);
            ignore (User.Usys.close r);
            ignore (User.Usys.close w)
        | Error _ -> ());
        ignore (User.Usys.sleep 5);
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/metrics")))
  in
  check_exposition text;
  check_bool "the vprobe label block parsed" true
    (contains text "vos_vprobe_fired_total{probe=");
  check_bool "the tab spec is its label value" true
    (contains text ("vos_vprobe_fired_total{probe=\"" ^ tab_spec ^ "\"}"))

let label_quoting_matches_printf_on_printable =
  qcheck ~count:500 "printable label values quote as %S"
    QCheck.(string_gen (Gen.char_range ' ' '~'))
    (fun v -> String.equal (Core.Kperf.quote_label v) (Printf.sprintf "%S" v))

(* ---- one counter store: /proc/ipc and /proc/sched pinned ----

   Both pages render from the kperf registry. The pins below were taken
   from the tree before the IPC and per-core scheduler counters moved
   into the registry, on scenarios where every counter is non-zero, so
   the move is proven byte-identical. *)

let proc_page kernel name =
  Option.get (Core.Procfs.render kernel.Core.Kernel.vfs.Core.Vfs.procfs name)

let run_user kernel f =
  match Benchlib.Measure.run_task kernel ~name:"test" f with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* Ring pipes with edge wakeups: one issued and two suppressed wakeups,
   an immediate poll, and a poll that blocks until its timeout. *)
let ipc_scenario () =
  let kernel =
    boot_kernel
      ~config:
        {
          test_config with
          Core.Kconfig.pipe_ring = true;
          pipe_buffer_bytes = 4096;
          pipe_wake_edge = true;
        }
      ()
  in
  run_user kernel (fun () ->
      match User.Usys.pipe () with
      | Ok (r, w) ->
          ignore (User.Usys.write w (Bytes.make 32 'a'));
          ignore (User.Usys.write w (Bytes.make 32 'b'));
          ignore (User.Usys.poll [ r ] ~timeout_ms:0);
          ignore (User.Usys.read r 64);
          ignore (User.Usys.poll [ r ] ~timeout_ms:5);
          ignore (User.Usys.close r);
          ignore (User.Usys.close w)
      | Error _ -> Alcotest.fail "pipe");
  kernel

(* Four cores under MLFQ with reschedule IPIs: niced spinners and
   sleepers whose wakeups drift against the tick. [lb_ms > 0] moves
   tasks with the balancer; [lb_ms = 0] leaves it to pick-time steals. *)
let sched_scenario ~lb_ms =
  let kernel =
    boot_kernel
      ~config:
        {
          test_config with
          Core.Kconfig.sched_policy = Core.Kconfig.Sched_mlfq;
          wake_model = Core.Kconfig.Wake_ipi;
          wake_affinity = true;
          load_balance_ms = lb_ms;
        }
      ()
  in
  for i = 0 to 5 do
    ignore
      (Core.Kernel.spawn_user kernel
         ~name:(Printf.sprintf "spin%d" i)
         (fun () ->
           ignore (User.Usys.nice 5);
           for _ = 1 to 20 * (i + 1) do
             User.Usys.burn 2_000_000
           done;
           0))
  done;
  for i = 0 to 4 do
    ignore
      (Core.Kernel.spawn_user kernel
         ~name:(Printf.sprintf "sleep%d" i)
         (fun () ->
           ignore (User.Usys.nice (-5));
           let iters = ref 0 in
           while true do
             ignore (User.Usys.sleep (1 + (i mod 3)));
             User.Usys.burn (200_000 + (91_000 * ((i + !iters) mod 4)));
             incr iters
           done;
           0))
  done;
  Core.Kernel.run_for kernel (Sim.Engine.ms 300);
  kernel

let ipc_pin =
  String.concat ""
    [
      "pipe_impl          ring\n";
      "wake_mode          edge\n";
      "buffer_bytes       4096\n";
      "pipe_writes        2\n";
      "pipe_reads         1\n";
      "pipe_bytes         128\n";
      "wakeups_issued     1\n";
      "wakeups_suppressed 2\n";
      "polls              2\n";
      "poll_immediate     1\n";
      "poll_blocked       1\n";
      "poll_timeouts      1\n"
    ]

let sched_balance_pin =
  String.concat ""
    [
      "policy\t\t: mlfq\n";
      "\n";
      "core\t\t: 0\n";
      "switches\t: 622\n";
      "migrations\t: 35\n";
      "steals\t\t: 0\n";
      "balance_moves\t: 0\n";
      "ipis_sent_to\t: 377\n";
      "ipis_taken\t: 377\n";
      "run_delay_avg\t: 131090 ns\n";
      "run_delay_max\t: 4000000 ns\n";
      "run_delay_hist\t: n=622 avg=131090ns p50=2258ns p99=816384ns max=4000000ns\n";
      "\n";
      "core\t\t: 1\n";
      "switches\t: 45\n";
      "migrations\t: 1\n";
      "steals\t\t: 0\n";
      "balance_moves\t: 1\n";
      "ipis_sent_to\t: 6\n";
      "ipis_taken\t: 6\n";
      "run_delay_avg\t: 6601921 ns\n";
      "run_delay_max\t: 12000000 ns\n";
      "run_delay_hist\t: n=45 avg=6601921ns p50=9901635ns p99=12000000ns max=12000000ns\n";
      "\n";
      "core\t\t: 2\n";
      "switches\t: 216\n";
      "migrations\t: 35\n";
      "steals\t\t: 0\n";
      "balance_moves\t: 1\n";
      "ipis_sent_to\t: 166\n";
      "ipis_taken\t: 166\n";
      "run_delay_avg\t: 448998 ns\n";
      "run_delay_max\t: 12000000 ns\n";
      "run_delay_hist\t: n=216 avg=448998ns p50=2120ns p99=11337728ns max=12000000ns\n";
      "\n";
      "core\t\t: 3\n";
      "switches\t: 59\n";
      "migrations\t: 4\n";
      "steals\t\t: 0\n";
      "balance_moves\t: 1\n";
      "ipis_sent_to\t: 33\n";
      "ipis_taken\t: 33\n";
      "run_delay_avg\t: 2874272 ns\n";
      "run_delay_max\t: 12000000 ns\n";
      "run_delay_hist\t: n=59 avg=2874272ns p50=2267ns p99=12000000ns max=12000000ns\n";
      "\n"
    ]

let sched_steal_pin =
  String.concat ""
    [
      "policy\t\t: mlfq\n";
      "\n";
      "core\t\t: 0\n";
      "switches\t: 340\n";
      "migrations\t: 26\n";
      "steals\t\t: 10\n";
      "balance_moves\t: 0\n";
      "ipis_sent_to\t: 252\n";
      "ipis_taken\t: 252\n";
      "run_delay_avg\t: 358416 ns\n";
      "run_delay_max\t: 4000000 ns\n";
      "run_delay_hist\t: n=340 avg=358416ns p50=2140ns p99=4000000ns max=4000000ns\n";
      "\n";
      "core\t\t: 1\n";
      "switches\t: 297\n";
      "migrations\t: 0\n";
      "steals\t\t: 0\n";
      "balance_moves\t: 0\n";
      "ipis_sent_to\t: 146\n";
      "ipis_taken\t: 146\n";
      "run_delay_avg\t: 820879 ns\n";
      "run_delay_max\t: 4000000 ns\n";
      "run_delay_hist\t: n=297 avg=820879ns p50=217600ns p99=2441932ns max=4000000ns\n";
      "\n";
      "core\t\t: 2\n";
      "switches\t: 527\n";
      "migrations\t: 26\n";
      "steals\t\t: 7\n";
      "balance_moves\t: 0\n";
      "ipis_sent_to\t: 286\n";
      "ipis_taken\t: 286\n";
      "run_delay_avg\t: 177351 ns\n";
      "run_delay_max\t: 2018350 ns\n";
      "run_delay_hist\t: n=527 avg=177351ns p50=2324ns p99=1139507ns max=2018350ns\n";
      "\n";
      "core\t\t: 3\n";
      "switches\t: 186\n";
      "migrations\t: 4\n";
      "steals\t\t: 3\n";
      "balance_moves\t: 0\n";
      "ipis_sent_to\t: 97\n";
      "ipis_taken\t: 97\n";
      "run_delay_avg\t: 180863 ns\n";
      "run_delay_max\t: 2000000 ns\n";
      "run_delay_hist\t: n=186 avg=180863ns p50=2367ns p99=1695744ns max=2000000ns\n";
      "\n"
    ]

let ipc_page_pinned () =
  check_string "/proc/ipc" ipc_pin (proc_page (ipc_scenario ()) "ipc")

let sched_page_pinned () =
  check_string "/proc/sched, balancer on" sched_balance_pin
    (proc_page (sched_scenario ~lb_ms:4) "sched");
  check_string "/proc/sched, pick-time steals" sched_steal_pin
    (proc_page (sched_scenario ~lb_ms:0) "sched")

(* ---- one name per counter ----

   Each /proc/ipc counter line is the series vos_<key>_total, and each
   per-core /proc/sched counter is one core-labelled series; the pages
   and /proc/metrics render from the same registry cells. *)

let sched_series =
  [
    ("switches", "vos_ctx_switches_total");
    ("migrations", "vos_sched_migrations_total");
    ("steals", "vos_sched_steals_total");
    ("balance_moves", "vos_sched_balance_moves_total");
    ("ipis_sent_to", "vos_sched_ipis_sent_to_total");
    ("ipis_taken", "vos_sched_ipis_taken_total");
  ]

(* "key  value" and "key\t: value" lines as (key, value). *)
let page_fields text =
  List.filter_map
    (fun line ->
      match
        List.filter
          (fun w -> w <> "" && w <> ":")
          (String.split_on_char ' '
             (String.map (function '\t' -> ' ' | c -> c) line))
      with
      | [ k; v ] -> Some (k, v)
      | _ -> None)
    (String.split_on_char '\n' text)

(* Checks one kernel's pages against its /proc/metrics; returns each
   page key with its value summed over cores. *)
let same_names kernel =
  let metrics = proc_page kernel "metrics" in
  check_exposition metrics;
  let samples = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when line <> "" && line.[0] <> '#' ->
          Hashtbl.replace samples (String.sub line 0 i)
            (String.sub line (i + 1) (String.length line - i - 1))
      | Some _ | None -> ())
    (String.split_on_char '\n' metrics);
  let totals = Hashtbl.create 16 and checked = ref 0 in
  let same key v series =
    incr checked;
    (match Hashtbl.find_opt samples series with
    | Some m -> check_string series v m
    | None -> Alcotest.failf "%s has no series %s in /proc/metrics" key series);
    Hashtbl.replace totals key
      (int_of_string v + Option.value ~default:0 (Hashtbl.find_opt totals key))
  in
  List.iter
    (fun (k, v) ->
      if not (List.mem k [ "pipe_impl"; "wake_mode"; "buffer_bytes" ]) then
        same k v ("vos_" ^ k ^ "_total"))
    (page_fields (proc_page kernel "ipc"));
  let core = ref "" in
  List.iter
    (fun (k, v) ->
      if String.equal k "core" then core := v
      else
        match List.assoc_opt k sched_series with
        | Some name -> same k v (Printf.sprintf "%s{core=%S}" name !core)
        | None -> ())
    (page_fields (proc_page kernel "sched"));
  check_int "9 IPC and 4 x 6 per-core counters checked"
    (List.length Core.Procfs.ipc_keys + (4 * List.length sched_series))
    !checked;
  totals

let one_name_per_counter () =
  let ipc = same_names (ipc_scenario ()) in
  let balance = same_names (sched_scenario ~lb_ms:4) in
  let steal = same_names (sched_scenario ~lb_ms:0) in
  let total key =
    List.fold_left (fun n t -> n + Hashtbl.find t key) 0 [ ipc; balance; steal ]
  in
  List.iter
    (fun key ->
      check_bool (key ^ " is non-zero in some scenario") true (total key > 0))
    (Core.Procfs.ipc_keys @ List.map fst sched_series)

let profile_attributes_samples () =
  let text =
    in_kernel ~config:(armed test_config) (fun _ ->
        (* ~100 ms of user burn at 100 Hz -> a hard floor of samples *)
        for _ = 1 to 50 do
          User.Usys.burn 2_000_000
        done;
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/profile")))
  in
  check_bool "profiler header shows the rate" true
    (contains text "profile_hz\t: 100");
  check_bool "attribution table present" true (contains text "CORE");
  check_bool "profiler took samples" true
    (not (contains text "samples\t\t: 0\n"))

let profile_disabled_renders () =
  let text =
    in_kernel (fun _ ->
        Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/profile")))
  in
  check_bool "profile page reports disabled at profile_hz = 0" true
    (contains text "disabled")

let trace_pipe_streams () =
  in_kernel ~config:(armed test_config) (fun _ ->
      let fd =
        User.Usys.open_ "/proc/ktrace"
          (Core.Abi.o_rdonly lor Core.Abi.o_nonblock)
      in
      check_bool "trace-pipe opens" true (fd >= 0);
      (* a fresh trace-pipe starts at the present: nothing to read yet *)
      (match User.Usys.read fd 4096 with
      | Error e -> check_int "empty pipe yields EAGAIN" Core.Errno.eagain e
      | Ok _ -> Alcotest.fail "fresh trace-pipe should be empty");
      (* our own syscalls emit events; the next read streams them *)
      ignore (User.Usys.sleep 2);
      (match User.Usys.read fd 8192 with
      | Ok b ->
          check_bool "streamed events are formatted lines" true
            (Bytes.length b > 0 && contains (Bytes.to_string b) "sys_enter")
      | Error e -> Alcotest.failf "trace-pipe read failed: errno %d" e);
      (* disable the tracer so the pipe can actually run dry (each read
         is itself a syscall and would otherwise emit more events) *)
      let cfd = User.Usys.open_ "/proc/ktrace_ctl" Core.Abi.o_wronly in
      ignore (User.Usys.write cfd (Bytes.of_string "enable=0\n"));
      ignore (User.Usys.close cfd);
      let rec drain budget =
        if budget = 0 then Alcotest.fail "trace-pipe never drained"
        else
          match User.Usys.read fd 65536 with
          | Ok _ -> drain (budget - 1)
          | Error e ->
              check_int "drained pipe yields EAGAIN" Core.Errno.eagain e
      in
      drain 1000;
      ignore (User.Usys.close fd))

let trace_pipe_blocks_then_wakes () =
  let kernel = boot_kernel ~config:(armed test_config) () in
  let got = ref 0 in
  ignore
    (Core.Kernel.spawn_user kernel ~name:"tracer" (fun () ->
         let fd = User.Usys.open_ "/proc/ktrace" Core.Abi.o_rdonly in
         (* blocking read: parks on the poll channel until the tracer's
            deferred on_data wakeup fires for freshly emitted events *)
         (match User.Usys.read fd 4096 with
         | Ok b -> got := Bytes.length b
         | Error _ -> ());
         ignore (User.Usys.close fd);
         0));
  ignore
    (Core.Kernel.spawn_user kernel ~name:"noise" (fun () ->
         ignore (User.Usys.sleep 3);
         ignore (User.Usys.getpid ());
         0));
  run_for kernel 1;
  check_bool "blocked trace-pipe reader woke with data" true (!got > 0)

let ktrace_ctl_controls () =
  let kernel = boot_kernel ~config:(armed test_config) () in
  let tr = kernel.Core.Kernel.sched.Core.Sched.trace in
  match
    Benchlib.Measure.run_task kernel ~name:"ctl" (fun () ->
        let wr line =
          let fd = User.Usys.open_ "/proc/ktrace_ctl" Core.Abi.o_wronly in
          let r = User.Usys.write fd (Bytes.of_string line) in
          ignore (User.Usys.close fd);
          r
        in
        let ctl () =
          Bytes.to_string (Result.get_ok (User.Usys.slurp "/proc/ktrace_ctl"))
        in
        check_bool "tracer starts enabled" true
          (contains (ctl ()) "enable\t\t: 1");
        check_bool "disable accepted" true (wr "enable=0\n" > 0);
        check_bool "ctl mirrors disabled" true
          (contains (ctl ()) "enable\t\t: 0");
        let before = tr.Core.Ktrace.head in
        ignore (User.Usys.getpid ());
        check_int "no events emitted while disabled" before tr.Core.Ktrace.head;
        check_bool "re-enable + filter + rel clock in one write" true
          (wr "enable=1\nfilter=syscall,span\nclock=rel\n" > 0);
        let state = ctl () in
        check_bool "ctl mirrors the class filter" true
          (contains state "filter\t\t: syscall,span");
        check_bool "ctl mirrors the rebased clock" true
          (contains state "clock\t\t: rel");
        let before = tr.Core.Ktrace.head in
        ignore (User.Usys.getpid ());
        check_bool "filtered tracer emits again" true
          (tr.Core.Ktrace.head > before);
        check_int "unknown key rejected" (-Core.Errno.einval) (wr "bogus=1\n");
        check_int "bad filter rejected" (-Core.Errno.einval)
          (wr "filter=nope\n");
        check_int "empty write rejected" (-Core.Errno.einval) (wr "\n");
        (* a bad line rejects the whole write: no line before it applies *)
        check_int "a bad last line rejects the write" (-Core.Errno.einval)
          (wr "enable=0\nbogus=1\n");
        check_bool "the good line before it did not apply" true
          (contains (ctl ()) "enable\t\t: 1");
        check_bool "filter=all restores everything" true
          (wr "filter=all\n" > 0);
        check_bool "ctl mirrors the restored filter" true
          (contains (ctl ()) "filter\t\t: all");
        check_int "a bad clock rejects the write" (-Core.Errno.einval)
          (wr "filter=syscall\nclock=nope\n");
        check_bool "the filter before it did not apply" true
          (contains (ctl ()) "filter\t\t: all");
        0)
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let suite =
  ( "kperf",
    [
      quick "histogram bucket boundaries are exact" hist_bucket_boundaries;
      quick "empty histogram renders" hist_render_empty;
      quick "empty histogram quantiles are all 0" hist_empty_percentile_zero;
      hist_percentile_order;
      hist_merge_is_concat;
      quick "dump in time order, reader in emission order"
        trace_dump_time_order_reader_emission_order;
      quick "ring wraps, keeps newest, counts written" trace_ring_wraps;
      quick "trace reader consumes incrementally" trace_reader_consumes;
      quick "trace reader counts overwritten entries"
        trace_reader_lost_on_overwrite;
      quick "event-class filter" trace_filter_classes;
      quick "machine format round-trips every event" machine_roundtrip;
      machine_render_matches_printf;
      machine_parse_inverts_render;
      quick "malformed machine lines keep their answers" machine_parse_malformed;
      quick "dump matches the reference sort on three rings"
        trace_dump_matches_reference_sort;
      trace_dump_sort_qcheck;
      quick "panic tail matches the filtered dump"
        panic_tail_matches_filtered_dump;
      quick "emit allocates nothing" emit_allocates_nothing;
      evsel_mean_is_the_mean;
      trace_growing_ring_is_fixed_ring;
      slow "span pairing over a launcher session" span_pairing_full_run;
      slow "/proc/metrics exposes the kernel histograms"
        metrics_exposes_histograms;
      slow "/proc/metrics is valid Prometheus exposition"
        metrics_exposition_wellformed;
      label_quoting_matches_printf_on_printable;
      slow "/proc/profile attributes samples" profile_attributes_samples;
      quick "/proc/profile reports disabled when off" profile_disabled_renders;
      slow "/proc/ipc is pinned" ipc_page_pinned;
      slow "/proc/sched is pinned" sched_page_pinned;
      slow "one name per counter across /proc" one_name_per_counter;
      slow "/proc/ktrace streams and drains to EAGAIN" trace_pipe_streams;
      slow "blocked /proc/ktrace reader wakes on data"
        trace_pipe_blocks_then_wakes;
      slow "/proc/ktrace_ctl drives enable, filter and clock"
        ktrace_ctl_controls;
    ] )
