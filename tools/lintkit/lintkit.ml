(** lintkit — the findings-and-allowlist contract vlint and vrace share.

    Each analyzer only finds things: it {!report}s a finding per
    violation inside {!check}. lintkit owns everything after that, once
    for both tools:

    - the allowlist: one [RULE path-suffix msg-substring] entry per
      line, [#] comments and blank lines ignored, the suffix and the
      substring optional (the substring may contain spaces). An entry
      suppresses every finding of its rule whose file ends with the
      suffix, in whole path segments, and whose message contains the
      substring;
    - staleness: an entry that suppresses nothing prints as
      [allowlist: stale entry: ...] and fails the run, so an allowlist
      can only shrink;
    - the report: surviving findings sorted by (file, line, rule, msg),
      identical ones printed once, each as [file:line: rule msg], then
      the stale entries in allowlist order. *)

(* The field order is the report's sort order. *)
type finding = { file : string; line : int; rule : string; msg : string }

(* The findings of the {!check} in progress. *)
let findings : finding list ref = ref []

let report ~file ~line ~rule fmt =
  Printf.ksprintf
    (fun msg -> findings := { file; line; rule; msg } :: !findings)
    fmt

(* ---- allowlist ---- *)

type allow = { a_rule : string; a_suffix : string; a_substr : string }

(* Split [s] at its first space: the word before it and the trimmed
   rest ("" when there is no space). *)
let first_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.trim (String.sub s i (String.length s - i)))

let load_allow path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun line -> line <> "" && line.[0] <> '#')
  |> List.map (fun line ->
         let a_rule, rest = first_word line in
         let a_suffix, a_substr = first_word rest in
         { a_rule; a_suffix; a_substr })

(* [suffix] matches whole path segments: "core/a.ml" matches
   "lib/core/a.ml" but not "lib/xcore/a.ml". *)
let suffix_matches ~suffix path =
  let sl = String.length suffix and pl = String.length path in
  suffix = ""
  || String.ends_with ~suffix path
     && (sl = pl || path.[pl - sl - 1] = '/')

let substr_matches ~sub msg =
  let nl = String.length sub and hl = String.length msg in
  let rec at i = i + nl <= hl && (String.sub msg i nl = sub || at (i + 1)) in
  sub = "" || at 0

let suppresses a f =
  a.a_rule = f.rule
  && suffix_matches ~suffix:a.a_suffix f.file
  && substr_matches ~sub:a.a_substr f.msg

(* ---- check: scan, filter through the allowlist, render ---- *)

type result = {
  res_files : int;  (** files or units the scan read *)
  res_findings : int;  (** findings surviving the allowlist *)
  res_stale : int;  (** allow entries matching nothing *)
  res_output : string;  (** the report, exactly as the tools print it *)
}

let failed r = r.res_findings > 0 || r.res_stale > 0

(* Run [scan] (which reports findings and returns how many files it
   read) from an empty collector, then apply the allowlist at
   [allow_path] and render the report. *)
let check ~allow_path scan =
  findings := [];
  let files = scan () in
  let found = !findings in
  findings := [];
  let entries =
    match allow_path with None -> [] | Some p -> load_allow p
  in
  let surviving =
    found
    |> List.filter (fun f ->
           not (List.exists (fun a -> suppresses a f) entries))
    |> List.sort_uniq compare
  in
  (* an entry is used if it matches any finding, even one that an
     earlier entry already suppressed *)
  let stale =
    List.filter (fun a -> not (List.exists (suppresses a) found)) entries
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun f -> Printf.bprintf buf "%s:%d: %s %s\n" f.file f.line f.rule f.msg)
    surviving;
  List.iter
    (fun a ->
      Printf.bprintf buf "allowlist: stale entry: %s %s %s\n" a.a_rule
        a.a_suffix a.a_substr)
    stale;
  {
    res_files = files;
    res_findings = List.length surviving;
    res_stale = List.length stale;
    res_output = Buffer.contents buf;
  }
