(** The one BENCH report shape, [{"deterministic": {...}, "host": {...}}]
    (DESIGN.md, "One BENCH report shape"), its one printer, and [timed],
    the only host clock in the bench library. *)

type t =
  | Int of int
  | Int64 of int64
  | Bool of bool
  | String of string
  | Fixed of int * float  (** printed as [%.nf]; non-finite as [null] *)
  | List of t list
  | Obj of (string * t) list

(* RFC 8259 escaping: the quote, the backslash and control characters;
   every other byte, UTF-8 included, passes through. *)
let add_quoted b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The top two levels put one item per line; below them a container of
   scalars (a table row, a small sub-record) stays on one line. *)
let rec add b indent = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Int64 n -> Buffer.add_string b (Int64.to_string n)
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | String s -> add_quoted b s
  | Fixed (n, x) when Float.is_finite x -> Printf.bprintf b "%.*f" n x
  | Fixed _ -> Buffer.add_string b "null"
  | List vs -> add_items b indent "[]" (List.map (fun v -> (None, v)) vs)
  | Obj kvs ->
      add_items b indent "{}" (List.map (fun (k, v) -> (Some k, v)) kvs)

and add_items b indent brackets items =
  let scalar = function _, (List _ | Obj _) -> false | _ -> true in
  let one_line = indent >= 4 && List.for_all scalar items in
  let break i = Printf.bprintf b "\n%*s" i "" in
  Buffer.add_char b brackets.[0];
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char b ',';
      if not one_line then break (indent + 2)
      else if i > 0 then Buffer.add_char b ' ';
      Option.iter (fun k -> add_quoted b k; Buffer.add_string b ": ") key;
      add b (indent + 2) v)
    items;
  if (not one_line) && items <> [] then break indent;
  Buffer.add_char b brackets.[1]

let to_string v =
  let b = Buffer.create 4096 in
  add b 0 v;
  Buffer.contents b

let render (deterministic, host) =
  to_string (Obj [ ("deterministic", Obj deterministic); ("host", Obj host) ])
  ^ "\n"

let write path report =
  Out_channel.with_open_text path (fun oc -> output_string oc (render report))

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A host-time split by layer (codec, compose): each layer's median over
   a run's loops, with the min and max. *)
type layer = { l_name : string; l_median : float; l_min : float; l_max : float }

(* [layers names runs]: each of [runs] holds one loop's time per layer,
   in the order of [names]. *)
let layers names runs =
  List.mapi
    (fun i name ->
      let xs = List.sort Float.compare (List.map (fun r -> List.nth r i) runs) in
      let n = List.length xs in
      {
        l_name = name;
        l_median = List.nth xs (n / 2);
        l_min = List.hd xs;
        l_max = List.nth xs (n - 1);
      })
    names

let add_layers b ls =
  List.iter
    (fun l ->
      Printf.bprintf b "    %-20s %7.3f  (%.3f-%.3f)\n" l.l_name l.l_median l.l_min l.l_max)
    ls

(* The [host] fields of a split: [<layer>_ms] and its [_min] and [_max]. *)
let layer_fields ls =
  List.concat_map
    (fun l ->
      [
        (l.l_name ^ "_ms", Fixed (3, l.l_median));
        (l.l_name ^ "_ms_min", Fixed (3, l.l_min));
        (l.l_name ^ "_ms_max", Fixed (3, l.l_max));
      ])
    ls
