(** Tests for lintkit, the findings-and-allowlist contract vlint and
    vrace share: allowlist parsing and matching, staleness, dedup and
    the report's order. Each row writes its allowlist to a file, reports
    its findings inside one {!Lintkit.check} and compares the report
    line by line. *)

open Tharness

type row = {
  allow : string list;  (** allowlist file, one line each *)
  found : (string * int * string * string) list;  (** file, line, rule, msg *)
  expect : string list;  (** report lines *)
}

let check_row ~allow ~found =
  let path = Filename.temp_file "lintkit" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) allow);
  let res =
    Lintkit.check ~allow_path:(Some path) (fun () ->
        List.iter
          (fun (file, line, rule, msg) ->
            Lintkit.report ~file ~line ~rule "%s" msg)
          found;
        7)
  in
  Sys.remove path;
  res

let rows =
  [
    ( "comments and blank lines are not entries",
      {
        allow = [ "# R001 grandfathered"; ""; "   "; "  # R001"; "" ];
        found = [ ("a.ml", 3, "R001", "x") ];
        expect = [ "a.ml:3: R001 x" ];
      } );
    ( "a rule-only entry matches in every file",
      {
        allow = [ "R003" ];
        found =
          [
            ("lib/core/a.ml", 1, "R003", "failwith");
            ("lib/fs/b.ml", 2, "R003", "invalid_arg");
            ("lib/core/a.ml", 4, "R004", "wildcard");
          ];
        expect = [ "lib/core/a.ml:4: R004 wildcard" ];
      } );
    ( "a rule-plus-suffix entry matches by path suffix",
      {
        allow = [ "R003 core/a.ml" ];
        found =
          [
            ("lib/core/a.ml", 1, "R003", "failwith");
            ("lib/core/b.ml", 1, "R003", "failwith");
          ];
        expect = [ "lib/core/b.ml:1: R003 failwith" ];
      } );
    ( "a suffix matches whole path segments",
      {
        allow = [ "R003 core/a.ml"; "R101 sched.ml" ];
        found =
          [
            ("lib/xcore/a.ml", 1, "R003", "failwith");
            ("lib/core/a.ml", 2, "R003", "failwith");
            ("lib/core/xsched.ml", 3, "R101", "m");
            ("lib/core/sched.ml", 4, "R101", "m");
            ("sched.ml", 5, "R101", "m");
          ];
        expect =
          [
            "lib/core/xsched.ml:3: R101 m";
            "lib/xcore/a.ml:1: R003 failwith";
          ];
      } );
    ( "a suffix that is not a whole segment matches nothing",
      {
        allow = [ "R003 ore/a.ml" ];
        found = [ ("lib/core/a.ml", 1, "R003", "failwith") ];
        expect =
          [
            "lib/core/a.ml:1: R003 failwith";
            "allowlist: stale entry: R003 ore/a.ml ";
          ];
      } );
    ( "a substring may contain spaces",
      {
        allow = [ "R101 sched.ml mutated under lock 'ptable'" ];
        found =
          [
            ("lib/core/sched.ml", 10, "R101", "field 'x' is mutated under lock 'ptable' here");
            ("lib/core/sched.ml", 12, "R101", "field 'y' is mutated under lock 'plock' here");
          ];
        expect = [ "lib/core/sched.ml:12: R101 field 'y' is mutated under lock 'plock' here" ];
      } );
    ( "one entry suppresses two findings",
      {
        allow = [ "R008 kalloc.ml module-level" ];
        found =
          [
            ("lib/core/kalloc.ml", 3, "R008", "module-level mutable state: a");
            ("lib/core/kalloc.ml", 9, "R008", "module-level mutable state: b");
          ];
        expect = [];
      } );
    ( "two entries matching one finding are both used",
      {
        allow = [ "R005"; "R005 user/app.ml engine" ];
        found = [ ("lib/user/app.ml", 2, "R005", "engine access") ];
        expect = [];
      } );
    ( "an entry matching nothing is stale",
      {
        allow = [ "R002 kconfig.ml knob 'old'"; "R003"; "R007" ];
        found = [ ("lib/core/a.ml", 1, "R003", "failwith") ];
        expect =
          [
            "allowlist: stale entry: R002 kconfig.ml knob 'old'";
            "allowlist: stale entry: R007  ";
          ];
      } );
    ( "identical findings print once",
      {
        allow = [];
        found = [ ("a.ml", 1, "R001", "m"); ("a.ml", 1, "R001", "m"); ("a.ml", 1, "R001", "n") ];
        expect = [ "a.ml:1: R001 m"; "a.ml:1: R001 n" ];
      } );
    ( "findings sort by file, line, rule, msg; stale entries follow",
      {
        allow = [ "R009 zzz.ml"; "R008 aaa.ml" ];
        found =
          [
            ("b.ml", 2, "R001", "m");
            ("a.ml", 10, "R001", "m");
            ("a.ml", 9, "R002", "m");
            ("a.ml", 9, "R001", "z");
            ("a.ml", 9, "R001", "a");
          ];
        expect =
          [
            "a.ml:9: R001 a";
            "a.ml:9: R001 z";
            "a.ml:9: R002 m";
            "a.ml:10: R001 m";
            "b.ml:2: R001 m";
            "allowlist: stale entry: R009 zzz.ml ";
            "allowlist: stale entry: R008 aaa.ml ";
          ];
      } );
  ]

let test_row { allow; found; expect } () =
  let res = check_row ~allow ~found in
  let lines =
    String.split_on_char '\n' res.Lintkit.res_output
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "report" expect lines;
  let stale =
    List.length
      (List.filter (String.starts_with ~prefix:"allowlist: stale entry:") expect)
  in
  check_int "findings" (List.length expect - stale) res.Lintkit.res_findings;
  check_int "stale" stale res.Lintkit.res_stale;
  check_int "files" 7 res.Lintkit.res_files;
  check_bool "failed" (expect <> []) (Lintkit.failed res)

(* The collector is shared by both tools: a second check must not see
   the first one's findings (lintbench runs vlint, then vrace). *)
let collector_starts_empty () =
  ignore (check_row ~allow:[] ~found:[ ("a.ml", 1, "R001", "m") ]);
  let res = Lintkit.check ~allow_path:None (fun () -> 0) in
  check_string "report" "" res.Lintkit.res_output;
  check_bool "failed" false (Lintkit.failed res)

let suite =
  ( "lintkit",
    List.map (fun (name, row) -> quick name (test_row row)) rows
    @ [ quick "a check starts from an empty collector" collector_starts_empty ] )
