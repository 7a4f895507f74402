(* vrace driver: [vrace [--allow FILE] CMT_ROOT...] where each root is a
   directory searched recursively for .cmt files (or a .cmt file itself).
   Defaults: allowlist at tools/vrace/allow.txt when present; roots are
   the four simulated-OS libraries. Exit 1 on any finding or stale allow
   entry. *)

let () =
  let allow = ref None in
  let roots = ref [] in
  let rec parse = function
    | "--allow" :: path :: rest ->
        allow := Some path;
        parse rest
    | arg :: rest ->
        roots := arg :: !roots;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let allow =
    match !allow with
    | Some _ as a -> a
    | None ->
        if Sys.file_exists "tools/vrace/allow.txt" then
          Some "tools/vrace/allow.txt"
        else None
  in
  let roots =
    match List.rev !roots with
    | [] -> [ "lib/core"; "lib/sim"; "lib/user"; "lib/apps" ]
    | rs -> rs
  in
  let res = Vrace_core.run ?allow_path:allow ~roots () in
  print_string res.Lintkit.res_output;
  if Lintkit.failed res then exit 1
