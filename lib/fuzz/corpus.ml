(** The in-tree regression corpus: a plain-text list of scenarios that
    once found (or nearly found) a bug. [dune runtest] replays every
    entry and expects a clean pass — reintroducing one of the fixed
    bugs makes its entry fail again with an Invariant/Crash outcome.

    Format (line-oriented; [#] comments and blank lines ignored):

    {v
    entry lseek-wild-whence
    seed 0x1234
    variant 0
    op open /f0 0
    op lseek s0 0 7
    end
    v}

    [seed] is required. [variant] and [op] lines are optional: an entry
    with no [op] lines regenerates the whole scenario from the seed
    (and [ops]/[faults] override the generator's defaults), which is
    how campaign-found seeds are archived; entries with explicit ops
    pin a hand-shrunk trace independent of generator evolution. *)

type entry = {
  e_name : string;
  e_seed : int64;
  e_variant : int option;
  e_ops : Gen.op list option;  (** [None] = regenerate from seed *)
  e_gen_ops : int option;  (** generator op count, for seed entries *)
  e_faults : bool option;
}

let scenario_of_entry entry =
  match entry.e_ops with
  | Some ops ->
      {
        Gen.sc_seed = entry.e_seed;
        sc_variant = Option.value entry.e_variant ~default:0;
        sc_ops = ops;
      }
  | None ->
      let ops = Option.value entry.e_gen_ops ~default:Gen.default_ops in
      let faults = Option.value entry.e_faults ~default:true in
      let scen = Gen.generate ~ops ~faults entry.e_seed in
      (* an explicit variant line overrides the seed-derived one *)
      (match entry.e_variant with
      | Some v -> { scen with Gen.sc_variant = v }
      | None -> scen)

let render_entry entry =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "entry %s\n" entry.e_name);
  Buffer.add_string b (Printf.sprintf "seed 0x%Lx\n" entry.e_seed);
  (match entry.e_variant with
  | Some v -> Buffer.add_string b (Printf.sprintf "variant %d\n" v)
  | None -> ());
  (match entry.e_gen_ops with
  | Some n -> Buffer.add_string b (Printf.sprintf "ops %d\n" n)
  | None -> ());
  (match entry.e_faults with
  | Some f -> Buffer.add_string b (Printf.sprintf "faults %b\n" f)
  | None -> ());
  (match entry.e_ops with
  | Some ops ->
      List.iter
        (fun op -> Buffer.add_string b ("op " ^ Gen.op_to_string op ^ "\n"))
        ops
  | None -> ());
  Buffer.add_string b "end\n";
  Buffer.contents b

let entry_of_scenario ~name scen =
  {
    e_name = name;
    e_seed = scen.Gen.sc_seed;
    e_variant = Some scen.Gen.sc_variant;
    e_ops = Some scen.Gen.sc_ops;
    e_gen_ops = None;
    e_faults = None;
  }

(* ---- parsing ---- *)

let parse_lines lines =
  let entries = ref [] in
  let cur = ref None in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let finish () =
    match !cur with
    | None -> Ok ()
    | Some (name, seed, variant, gen_ops, faults, ops) -> (
        match seed with
        | None -> Error (Printf.sprintf "entry %s: missing seed" name)
        | Some seed ->
            let e_ops = match ops with [] -> None | l -> Some (List.rev l) in
            entries :=
              {
                e_name = name;
                e_seed = seed;
                e_variant = variant;
                e_ops;
                e_gen_ops = gen_ops;
                e_faults = faults;
              }
              :: !entries;
            cur := None;
            Ok ())
  in
  let rec go lineno = function
    | [] -> (
        match !cur with
        | None -> Ok (List.rev !entries)
        | Some (name, _, _, _, _, _) ->
            Error (Printf.sprintf "entry %s: missing end" name))
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) rest
        else
          let kv =
            match String.index_opt line ' ' with
            | None -> (line, "")
            | Some i ->
                ( String.sub line 0 i,
                  String.trim
                    (String.sub line (i + 1) (String.length line - i - 1)) )
          in
          match (kv, !cur) with
          | ("entry", name), None ->
              cur := Some (name, None, None, None, None, []);
              go (lineno + 1) rest
          | ("entry", _), Some (prev, _, _, _, _, _) ->
              err lineno (Printf.sprintf "entry inside entry %s" prev)
          | (_, _), None -> err lineno "directive outside entry"
          | ("seed", v), Some (n, _, var, go_, f, ops) -> (
              match Int64.of_string_opt v with
              | Some s ->
                  cur := Some (n, Some s, var, go_, f, ops);
                  go (lineno + 1) rest
              | None -> err lineno ("bad seed: " ^ v))
          | ("variant", v), Some (n, s, _, go_, f, ops) -> (
              match int_of_string_opt v with
              | Some var ->
                  cur := Some (n, s, Some var, go_, f, ops);
                  go (lineno + 1) rest
              | None -> err lineno ("bad variant: " ^ v))
          | ("ops", v), Some (n, s, var, _, f, ops) -> (
              match int_of_string_opt v with
              | Some g ->
                  cur := Some (n, s, var, Some g, f, ops);
                  go (lineno + 1) rest
              | None -> err lineno ("bad ops: " ^ v))
          | ("faults", v), Some (n, s, var, go_, _, ops) -> (
              match bool_of_string_opt v with
              | Some f ->
                  cur := Some (n, s, var, go_, Some f, ops);
                  go (lineno + 1) rest
              | None -> err lineno ("bad faults: " ^ v))
          | ("op", v), Some (n, s, var, go_, f, ops) -> (
              match Gen.op_of_string v with
              | Some op ->
                  cur := Some (n, s, var, go_, f, op :: ops);
                  go (lineno + 1) rest
              | None -> err lineno ("bad op: " ^ v))
          | ("end", _), Some _ -> (
              match finish () with
              | Ok () -> go (lineno + 1) rest
              | Error e -> Error e)
          | (k, _), Some _ -> err lineno ("unknown directive: " ^ k))
  in
  go 1 lines

let parse text = parse_lines (String.split_on_char '\n' text)

let load path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      parse text
