(** vlint — the VOS static invariant linter.

    Parses every .ml file under the given directories with the host
    compiler's own frontend (compiler-libs) and enforces the cross-file
    invariants that the type checker cannot see:

    - R001  every [Abi.syscall] constructor has exactly one dispatch arm
            in syscall.ml and at least one stub in usys.ml
    - R002  every [Kconfig.t] knob is read somewhere outside kconfig.ml
            and mentioned in DESIGN.md
    - R003  kernel code (a "core" path segment) returns [Errno.*] or
            panics via {!Kpanic}; [invalid_arg]/[failwith] are banned
            outside panic.ml and kpanic.ml
    - R004  no wildcard [_] case in a match over [Task.state],
            [Task.chan] or [Ktrace.event] — adding a state, wait channel
            or event variant must force an audit of every consumer
    - R005  no [Sim.Engine] access from the user library (a "user" path
            segment): user code reads time through the uptime syscall,
            never the simulator's clock
    - R006  every [Ktrace.event] constructor is handled by the
            ktrace2perfetto converter (a "ktrace2perfetto" path
            segment): a new trace event must not silently vanish from
            the exported Perfetto view
    - R007  every vprobe static probe-point name is registered exactly
            once in vprobe.ml's [static_points] catalog and mentioned in
            DESIGN.md — a probe a user cannot look up might as well not
            exist
    - R008  no module-level mutable state under a "core", "fs" or "hw"
            path segment: a top-level [ref], [Hashtbl.create],
            [Atomic.make], [Array.make], [Bytes.create], [Queue.create],
            [Stack.create], [Mutex.create] or [Domain.DLS.new_key] is
            shared by every kernel in the process

    Findings print as [file:line: rule-id message] and fail the build.
    [--allow FILE] grandfathers existing cases; an allow entry matching
    no finding is stale and fails the build too, so the list can only
    shrink. That contract is {!Lintkit}'s, shared with vrace.

    This module is the whole linter as a library: {!run} scans and hands
    its findings to {!Lintkit.check}. The [vlint.ml] executable and the
    lintbench experiment are both thin callers. *)

let report = Lintkit.report

(* ---- file discovery and parsing ---- *)

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if String.length entry > 0 && entry.[0] = '.' then []
           else if entry = "_build" then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  try Some (Parse.implementation lexbuf)
  with exn ->
    report ~file:path ~line:1 ~rule:"R000" "parse error: %s"
      (Printexc.to_string exn);
    None

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let path_has_segment seg path =
  List.mem seg (String.split_on_char '/' path)

let basename_is name path = Filename.basename path = name

(* ---- extraction of the ground-truth declarations ---- *)

(* Constructors of a named variant type in a structure: (name, line). *)
let variant_ctors ~type_name structure =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_type (_, decls) ->
          List.concat_map
            (fun (d : Parsetree.type_declaration) ->
              if d.Parsetree.ptype_name.Asttypes.txt <> type_name then []
              else
                match d.Parsetree.ptype_kind with
                | Parsetree.Ptype_variant ctors ->
                    List.map
                      (fun (c : Parsetree.constructor_declaration) ->
                        (c.Parsetree.pcd_name.Asttypes.txt,
                         line_of c.Parsetree.pcd_loc))
                      ctors
                | _ -> [])
            decls
      | _ -> [])
    structure

(* Labels of a named record type in a structure: (label, line). *)
let record_labels ~type_name structure =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_type (_, decls) ->
          List.concat_map
            (fun (d : Parsetree.type_declaration) ->
              if d.Parsetree.ptype_name.Asttypes.txt <> type_name then []
              else
                match d.Parsetree.ptype_kind with
                | Parsetree.Ptype_record labels ->
                    List.map
                      (fun (l : Parsetree.label_declaration) ->
                        (l.Parsetree.pld_name.Asttypes.txt,
                         line_of l.Parsetree.pld_loc))
                      labels
                | _ -> [])
            decls
      | _ -> [])
    structure

(* ---- per-file scanning ---- *)

type scan = {
  mutable pat_ctors : (string * int) list;  (** ctor name, line (all patterns) *)
  mutable exp_ctors : (string * int) list;  (** ctor name, line (all constructs) *)
  mutable field_reads : string list;  (** record labels read or destructured *)
  mutable banned_raises : (string * int) list;  (** invalid_arg/failwith sites *)
  mutable sim_engine : int list;  (** lines touching Sim.Engine *)
  mutable matches : (string list * int option) list;
      (** per match/function: top-level case head ctors, wildcard line *)
}

let head_ctors_of_case (p : Parsetree.pattern) =
  let rec heads (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_construct (lid, _) -> [ Longident.last lid.Asttypes.txt ]
    | Parsetree.Ppat_or (a, b) -> heads a @ heads b
    | Parsetree.Ppat_alias (q, _) | Parsetree.Ppat_constraint (q, _) -> heads q
    | _ -> []
  in
  heads p

let wildcard_line_of_case (p : Parsetree.pattern) =
  let rec wild (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_any -> Some (line_of p.Parsetree.ppat_loc)
    | Parsetree.Ppat_or (a, b) -> (
        match wild a with Some l -> Some l | None -> wild b)
    | Parsetree.Ppat_alias (q, _) | Parsetree.Ppat_constraint (q, _) -> wild q
    | _ -> None
  in
  wild p

let record_match s (cases : Parsetree.case list) =
  let heads =
    List.concat_map (fun (c : Parsetree.case) -> head_ctors_of_case c.Parsetree.pc_lhs) cases
  in
  let wildcard =
    List.find_map
      (fun (c : Parsetree.case) ->
        match c.Parsetree.pc_guard with
        | Some _ -> None  (* a guarded catch-all is not a silent default *)
        | None -> wildcard_line_of_case c.Parsetree.pc_lhs)
      cases
  in
  s.matches <- (heads, wildcard) :: s.matches

let scan_structure structure =
  let s =
    {
      pat_ctors = [];
      exp_ctors = [];
      field_reads = [];
      banned_raises = [];
      sim_engine = [];
      matches = [];
    }
  in
  let lid_is_sim_engine lid =
    let rec has = function
      | "Sim" :: "Engine" :: _ -> true
      | _ :: rest -> has rest
      | [] -> false
    in
    has (Longident.flatten lid)
  in
  let open Ast_iterator in
  let iter =
    {
      default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_construct (lid, _) ->
              s.exp_ctors <-
                (Longident.last lid.Asttypes.txt, line_of e.Parsetree.pexp_loc)
                :: s.exp_ctors
          | Parsetree.Pexp_field (_, lid) ->
              s.field_reads <- Longident.last lid.Asttypes.txt :: s.field_reads
          | Parsetree.Pexp_ident lid ->
              let name = Longident.last lid.Asttypes.txt in
              if name = "invalid_arg" || name = "failwith" then
                s.banned_raises <-
                  (name, line_of e.Parsetree.pexp_loc) :: s.banned_raises;
              if lid_is_sim_engine lid.Asttypes.txt then
                s.sim_engine <- line_of e.Parsetree.pexp_loc :: s.sim_engine
          | Parsetree.Pexp_match (_, cases) -> record_match s cases
          | Parsetree.Pexp_function cases -> record_match s cases
          | Parsetree.Pexp_open
              ( { Parsetree.popen_expr = { Parsetree.pmod_desc = Parsetree.Pmod_ident lid; _ };
                  _ },
                _ )
            when lid_is_sim_engine lid.Asttypes.txt ->
              s.sim_engine <- line_of e.Parsetree.pexp_loc :: s.sim_engine
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_construct (lid, _) ->
              s.pat_ctors <-
                (Longident.last lid.Asttypes.txt, line_of p.Parsetree.ppat_loc)
                :: s.pat_ctors
          | Parsetree.Ppat_record (fields, _) ->
              List.iter
                (fun ((lid : Longident.t Asttypes.loc), _) ->
                  s.field_reads <- Longident.last lid.Asttypes.txt :: s.field_reads)
                fields
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  iter.structure iter structure;
  s

(* ---- the rules ---- *)

let r001 ~files =
  let find base =
    List.filter (fun (path, _, _) -> basename_is base path) files
  in
  match (find "abi.ml", find "syscall.ml", find "usys.ml") with
  | [ (abi_path, abi_str, _) ], [ (_, _, sc_scan) ], [ (_, _, us_scan) ] ->
      let ctors = variant_ctors ~type_name:"syscall" abi_str in
      if ctors = [] then
        report ~file:abi_path ~line:1 ~rule:"R001"
          "no [type syscall] variant found in abi.ml"
      else
        List.iter
          (fun (ctor, line) ->
            let arms =
              List.length
                (List.filter (fun (c, _) -> c = ctor) sc_scan.pat_ctors)
            in
            let stubs =
              List.length
                (List.filter (fun (c, _) -> c = ctor) us_scan.exp_ctors)
            in
            if arms = 0 then
              report ~file:abi_path ~line ~rule:"R001"
                "syscall %s has no dispatch arm in syscall.ml" ctor
            else if arms > 1 then
              report ~file:abi_path ~line ~rule:"R001"
                "syscall %s has %d dispatch arms in syscall.ml" ctor arms;
            if stubs = 0 then
              report ~file:abi_path ~line ~rule:"R001"
                "syscall %s has no stub in usys.ml" ctor)
          ctors
  | _ -> ()  (* tree without the syscall layer: rule not applicable *)

let r002 ~files ~design =
  match List.filter (fun (p, _, _) -> basename_is "kconfig.ml" p) files with
  | [ (kc_path, kc_str, _) ] ->
      let knobs = record_labels ~type_name:"t" kc_str in
      let reads_elsewhere =
        List.concat_map
          (fun (p, _, s) ->
            if basename_is "kconfig.ml" p then [] else s.field_reads)
          files
      in
      let design_text =
        match design with
        | None -> None
        | Some path ->
            let ic = open_in_bin path in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            Some (path, text)
      in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
        at 0
      in
      List.iter
        (fun (knob, line) ->
          if not (List.mem knob reads_elsewhere) then
            report ~file:kc_path ~line ~rule:"R002"
              "Kconfig knob %s is never read outside kconfig.ml" knob;
          match design_text with
          | Some (dpath, text) when not (contains text knob) ->
              report ~file:kc_path ~line ~rule:"R002"
                "Kconfig knob %s is not mentioned in %s" knob dpath
          | _ -> ())
        knobs
  | _ -> ()

let r003 ~files =
  let exempt = [ "panic.ml"; "kpanic.ml" ] in
  List.iter
    (fun (path, _, s) ->
      if
        path_has_segment "core" path
        && not (List.mem (Filename.basename path) exempt)
      then
        List.iter
          (fun (name, line) ->
            report ~file:path ~line ~rule:"R003"
              "kernel code must return Errno.* or use Kpanic, not %s" name)
          s.banned_raises)
    files

let r004 ~files =
  let ctor_set ~base ~type_name =
    List.concat_map
      (fun (p, str, _) ->
        if basename_is base p then List.map fst (variant_ctors ~type_name str)
        else [])
      files
  in
  let states = ctor_set ~base:"task.ml" ~type_name:"state" in
  let chans = ctor_set ~base:"task.ml" ~type_name:"chan" in
  let events = ctor_set ~base:"ktrace.ml" ~type_name:"event" in
  let classify heads =
    if List.exists (fun h -> List.mem h events) heads then Some "Ktrace.event"
    else if List.exists (fun h -> List.mem h states) heads then
      Some "Task.state"
    else if List.exists (fun h -> List.mem h chans) heads then
      Some "Task.chan"
    else None
  in
  List.iter
    (fun (path, _, s) ->
      List.iter
        (fun (heads, wildcard) ->
          match (classify heads, wildcard) with
          | Some ty, Some line ->
              report ~file:path ~line ~rule:"R004"
                "wildcard _ in a match over %s: new variants must be \
                 handled explicitly"
                ty
          | _ -> ())
        s.matches)
    files

let r006 ~files =
  (* active only when the converter is part of the scanned tree, so the
     fixture run controls the rule by including a ktrace2perfetto dir *)
  let conv_files =
    List.filter (fun (p, _, _) -> path_has_segment "ktrace2perfetto" p) files
  in
  if conv_files <> [] then
    match
      List.filter
        (fun (p, _, _) ->
          basename_is "ktrace.ml" p && not (path_has_segment "ktrace2perfetto" p))
        files
    with
    | [ (kt_path, kt_str, _) ] ->
        let handled =
          List.concat_map
            (fun (_, _, s) -> List.map fst s.pat_ctors)
            conv_files
        in
        List.iter
          (fun (ctor, line) ->
            if not (List.mem ctor handled) then
              report ~file:kt_path ~line ~rule:"R006"
                "Ktrace.event %s is not handled by the ktrace2perfetto \
                 converter"
                ctor)
          (variant_ctors ~type_name:"event" kt_str)
    | _ -> ()

(* String constants inside the expression bound to [let <name> = ...],
   with their lines — how R007 reads vprobe's probe-point catalog without
   evaluating it. *)
let string_list_binding ~name structure =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, bindings) ->
          List.concat_map
            (fun (vb : Parsetree.value_binding) ->
              match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
              | Parsetree.Ppat_var v when v.Asttypes.txt = name ->
                  let acc = ref [] in
                  let open Ast_iterator in
                  let iter =
                    {
                      default_iterator with
                      expr =
                        (fun self e ->
                          (match e.Parsetree.pexp_desc with
                          | Parsetree.Pexp_constant
                              (Parsetree.Pconst_string (s, _, _)) ->
                              acc :=
                                (s, line_of e.Parsetree.pexp_loc) :: !acc
                          | _ -> ());
                          default_iterator.expr self e);
                    }
                  in
                  iter.expr iter vb.Parsetree.pvb_expr;
                  List.rev !acc
              | _ -> [])
            bindings
      | _ -> [])
    structure

let str_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let r007 ~files ~design =
  match List.filter (fun (p, _, _) -> basename_is "vprobe.ml" p) files with
  | [ (vp_path, vp_str, _) ] ->
      let points = string_list_binding ~name:"static_points" vp_str in
      if points = [] then
        report ~file:vp_path ~line:1 ~rule:"R007"
          "no [static_points] probe catalog found in vprobe.ml"
      else begin
        let seen = Hashtbl.create 16 in
        List.iter
          (fun (name, line) ->
            if not (Hashtbl.mem seen name) then begin
              Hashtbl.add seen name ();
              let count =
                List.length (List.filter (fun (n, _) -> n = name) points)
              in
              if count > 1 then
                report ~file:vp_path ~line ~rule:"R007"
                  "probe point %s is registered %d times in static_points"
                  name count
            end)
          points;
        match design with
        | None -> ()
        | Some dpath ->
            let ic = open_in_bin dpath in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let documented = Hashtbl.create 16 in
            List.iter
              (fun (name, line) ->
                if not (Hashtbl.mem documented name) then begin
                  Hashtbl.add documented name ();
                  if not (str_contains text name) then
                    report ~file:vp_path ~line ~rule:"R007"
                      "probe point %s is not documented in %s" name dpath
                end)
              points
      end
  | _ -> ()

let r005 ~files =
  List.iter
    (fun (path, _, s) ->
      if path_has_segment "user" path then
        List.iter
          (fun line ->
            report ~file:path ~line ~rule:"R005"
              "user code must not touch Sim.Engine (use the uptime \
               syscall)")
          s.sim_engine)
    files

(* Makers of mutable values: a top-level binding to one of these is
   process-wide state. *)
let mutable_makers =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Atomic"; "make" ];
    [ "Array"; "make" ];
    [ "Bytes"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Mutex"; "create" ];
    [ "Domain"; "DLS"; "new_key" ];
  ]

(* Top-level (and nested-module top-level) bindings whose value is a
   direct call to a mutable maker: (name, maker, line). *)
let rec toplevel_mutables structure =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, bindings) ->
          List.filter_map
            (fun (vb : Parsetree.value_binding) ->
              let rec maker (e : Parsetree.expression) =
                match e.Parsetree.pexp_desc with
                | Parsetree.Pexp_constraint (e, _) -> maker e
                | Parsetree.Pexp_apply
                    ({ Parsetree.pexp_desc = Parsetree.Pexp_ident lid; _ }, _)
                  ->
                    let path =
                      match Longident.flatten lid.Asttypes.txt with
                      | "Stdlib" :: rest -> rest
                      | path -> path
                    in
                    if List.mem path mutable_makers then
                      Some (String.concat "." path)
                    else None
                | _ -> None
              in
              let line = line_of vb.Parsetree.pvb_loc in
              match
                ( vb.Parsetree.pvb_pat.Parsetree.ppat_desc,
                  maker vb.Parsetree.pvb_expr )
              with
              | Parsetree.Ppat_var v, Some m
              | ( Parsetree.Ppat_constraint
                    ({ Parsetree.ppat_desc = Parsetree.Ppat_var v; _ }, _),
                  Some m ) ->
                  Some (v.Asttypes.txt, m, line)
              | _, Some m -> Some ("_", m, line)
              | _, None -> None)
            bindings
      | Parsetree.Pstr_module mb -> module_mutables mb.Parsetree.pmb_expr
      | Parsetree.Pstr_recmodule mbs ->
          List.concat_map
            (fun (mb : Parsetree.module_binding) ->
              module_mutables mb.Parsetree.pmb_expr)
            mbs
      | _ -> [])
    structure

and module_mutables (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_structure str -> toplevel_mutables str
  | Parsetree.Pmod_constraint (me, _) -> module_mutables me
  | _ -> []

let r008 ~files =
  List.iter
    (fun (path, str, _) ->
      if
        List.exists
          (fun seg -> path_has_segment seg path)
          [ "core"; "fs"; "hw" ]
      then
        List.iter
          (fun (name, m, line) ->
            report ~file:path ~line ~rule:"R008"
              "module-level mutable state: %s = %s ... is shared by every \
               kernel in the process"
              name m)
          (toplevel_mutables str))
    files

(* ---- run: scan, then filter through the allowlist and render ---- *)

let run ?allow_path ?design_path ~dirs () =
  Lintkit.check ~allow_path (fun () ->
      let files =
        dirs
        |> List.concat_map ml_files_under
        |> List.filter_map (fun path ->
               match parse_file path with
               | None -> None
               | Some str -> Some (path, str, scan_structure str))
      in
      r001 ~files;
      r002 ~files ~design:design_path;
      r003 ~files;
      r004 ~files;
      r005 ~files;
      r006 ~files;
      r007 ~files ~design:design_path;
      r008 ~files;
      List.length files)
