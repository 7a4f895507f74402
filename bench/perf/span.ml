(** Host-time spans recorded from the benchmark's own code, kept in
    memory and written once at exit as Chrome trace-event JSON (open it
    in Perfetto or chrome://tracing).

    A span has a name, a track (one per host domain for offload
    computes, 0 for the simulation thread), a start and an end in host
    seconds since process start, and the id of the span that caused it.
    Recording is off unless {!enable} was called, so the untraced run
    pays one branch per call site.

    Fine-grained spans (user segments, offload computes) can number in
    the hundreds of thousands; past {!fine_budget} of them only their
    count is kept, while their time still reaches the per-layer
    accumulators, which never depend on storage. *)

let started = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. started

type t = {
  id : int;
  name : string;
  track : int;
  t0 : float;
  t1 : float;
  parent : int;  (** 0 = root *)
}

let on = ref false
let enable () = on := true
let enabled () = !on

(* Offload computes record from pool domains, so the store is guarded. *)
let lock = Mutex.create ()
let spans = ref []
let next_id = Atomic.make 1
let fine_budget = 100_000
let fine_kept = ref 0
let fine_dropped = ref 0

let fresh_id () = Atomic.fetch_and_add next_id 1

let add ?(fine = false) ?(track = 0) ~id ~parent name t0 t1 =
  if !on then begin
    Mutex.lock lock;
    if fine && !fine_kept >= fine_budget then incr fine_dropped
    else begin
      if fine then incr fine_kept;
      spans := { id; name; track; t0; t1; parent } :: !spans
    end;
    Mutex.unlock lock
  end

(** [within ~parent name f] runs [f] with a fresh span id, records the
    span around it and returns [f]'s value with its duration. *)
let within ?(parent = 0) name f =
  let id = fresh_id () in
  let t0 = now () in
  let v = f id in
  let t1 = now () in
  add ~id ~parent name t0 t1;
  (v, t1 -. t0)

let all () = List.rev !spans
let dropped () = !fine_dropped

(* Self time: a span's duration minus the time covered by the spans
   nested directly inside it on the same track. Spans on one track nest
   properly (each is opened and closed by one call), so a sweep in start
   order with a stack of open spans finds every span's enclosing one. *)
let self_seconds spans =
  let totals = Hashtbl.create 16 in
  let add name d =
    let n, s = Option.value ~default:(0, 0.) (Hashtbl.find_opt totals name) in
    Hashtbl.replace totals name (n + 1, s +. d)
  in
  let by_track = Hashtbl.create 4 in
  let on_track k = Option.value ~default:[] (Hashtbl.find_opt by_track k) in
  List.iter (fun s -> Hashtbl.replace by_track s.track (s :: on_track s.track)) spans;
  Hashtbl.iter
    (fun _ track ->
      let track =
        List.sort (fun a b -> if a.t0 = b.t0 then compare b.t1 a.t1 else compare a.t0 b.t0) track
      in
      let covered = Hashtbl.create 1024 in
      let covered_of s = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      let rec place stack s =
        match stack with
        | p :: rest when s.t0 >= p.t1 -> place rest s
        | p :: _ ->
            Hashtbl.replace covered p.id (s.t1 -. s.t0 +. covered_of p);
            s :: stack
        | [] -> [ s ]
      in
      ignore (List.fold_left place [] track);
      List.iter (fun s -> add s.name (s.t1 -. s.t0 -. covered_of s)) track)
    by_track;
  Hashtbl.fold (fun name (n, s) acc -> (name, n, s) :: acc) totals []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write_chrome path ~process =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  Printf.fprintf oc
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": %S}}"
    process;
  List.iter
    (fun s ->
      Printf.fprintf oc
        ",\n{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}"
        s.name s.track (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (all ());
  Printf.fprintf oc "\n], \"otherData\": {\"fine_spans_dropped\": %d}}\n"
    (dropped ());
  close_out oc
