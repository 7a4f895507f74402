(** Command-line driver for {!Vlint_core}. See that module for the rule
    catalog; this file only parses argv and sets the exit code. *)

let usage = "vlint [--allow FILE] [--design FILE] DIR..."

let () =
  let allow_path = ref None and design_path = ref None and dirs = ref [] in
  let rec parse_args = function
    | "--allow" :: p :: rest ->
        allow_path := Some p;
        parse_args rest
    | "--design" :: p :: rest ->
        design_path := Some p;
        parse_args rest
    | d :: rest ->
        dirs := d :: !dirs;
        parse_args rest
    | [] -> ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if !dirs = [] then begin
    prerr_endline usage;
    exit 2
  end;
  (* defaults resolve only if present, so the fixture run (which passes
     its own files) is hermetic *)
  if !allow_path = None && Sys.file_exists "tools/vlint/allow.txt" then
    allow_path := Some "tools/vlint/allow.txt";
  if !design_path = None && Sys.file_exists "DESIGN.md" then
    design_path := Some "DESIGN.md";
  let res =
    Vlint_core.run ?allow_path:!allow_path ?design_path:!design_path
      ~dirs:(List.rev !dirs) ()
  in
  print_string res.Lintkit.res_output;
  if Lintkit.failed res then exit 1
