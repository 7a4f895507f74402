(** lintbench — what does static checking cost on this codebase?

    Both analyzers run in-process over the real tree: vlint parses the
    surface syntax of lib/ bin/ tools/ktrace2perfetto, vrace loads the
    [.cmt] typed ASTs of the four simulated-OS libraries. The point of
    the numbers is CI budgeting — the analyzers gate every test run, so
    their wall cost has to stay in the noise next to the 40-second test
    suite — plus a regression guard on coverage: the file counts are
    deterministic, and a clean tree must report zero findings and zero
    stale allowlist entries. *)

type side = {
  l_files : int;
  l_findings : int;
  l_stale : int;
  l_wall_s : float;
}

type t = { l_vlint : side; l_vrace : side }

(* The bench can run from the workspace root (dune exec) or from inside
   _build/default; resolve whichever spelling of a path exists. *)
let resolve candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let side ((r : Lintkit.result), wall) =
  {
    l_files = r.res_files;
    l_findings = r.res_findings;
    l_stale = r.res_stale;
    l_wall_s = wall;
  }

let run () =
  let vlint =
    Report.timed (fun () ->
        Vlint_core.run
          ~allow_path:(resolve [ "tools/vlint/allow.txt" ])
          ~design_path:(resolve [ "DESIGN.md" ])
          ~dirs:[ "lib"; "bin"; "tools/ktrace2perfetto" ]
          ())
  in
  (* vrace reads compiled artifacts: from the workspace root they live
     under _build/default, from inside the build tree in place *)
  let cmt_root d = resolve [ "_build/default/" ^ d; d ] in
  let vrace =
    Report.timed (fun () ->
        Vrace_core.run
          ~allow_path:(resolve [ "tools/vrace/allow.txt" ])
          ~roots:
            (List.map cmt_root
               [ "lib/core"; "lib/sim"; "lib/user"; "lib/apps" ])
          ())
  in
  { l_vlint = side vlint; l_vrace = side vrace }

let clean t =
  t.l_vlint.l_findings = 0
  && t.l_vlint.l_stale = 0
  && t.l_vrace.l_findings = 0
  && t.l_vrace.l_stale = 0

let render t =
  let line name s unit_ =
    Printf.sprintf "  %-6s %4d %s, %d findings, %d stale allows, %.3fs wall\n"
      name s.l_files unit_ s.l_findings s.l_stale s.l_wall_s
  in
  line "vlint" t.l_vlint "source files"
  ^ line "vrace" t.l_vrace "typed units"
  ^ if clean t then "  clean tree\n" else "  NOT CLEAN\n"

let report t =
  let counts s unit_ =
    Report.(
      Obj
        [
          (unit_, Int s.l_files); ("findings", Int s.l_findings);
          ("stale_allows", Int s.l_stale);
        ])
  in
  let wall s = Report.(Obj [ ("wall_s", Fixed (3, s.l_wall_s)) ]) in
  ( [
      ("benchmark", Report.String "lintbench");
      ("vlint", counts t.l_vlint "source_files");
      ("vrace", counts t.l_vrace "typed_units");
    ],
    [ ("vlint", wall t.l_vlint); ("vrace", wall t.l_vrace) ] )
