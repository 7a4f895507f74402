(** vrace — whole-program lockset and domain-safety race analysis.

    Where {!Vlint_core} works on the surface syntax, vrace loads the
    [.cmt] typed ASTs dune already emits, so identifiers arrive fully
    resolved through opens and module aliases ([Core__Sched.wake_all],
    [Stdlib.Mutex.lock]) and record labels carry their declaration's
    attributes to every use site. Three rule families:

    - R101  {b lockset discipline} (Eraser-style). A mutable field
            annotated [[@locked_by "name"]] may only be mutated while a
            lock read from a field called [name] is held; locksets are
            inferred by an abstract walk that threads acquire/release
            effects through call summaries ([ptable_acquire] nets an
            acquire of ["ptable"], [Spinlock.protect]/[with_lock]-style
            combinators run their argument under the lock). Unannotated
            mutable state in lib/core + lib/sim whose mutation sites see
            inconsistent locksets (some under a lock, some not, with no
            common lock) is reported too.
    - R102  {b domain safety}. Closures handed to worker domains
            ([Domain.spawn], [Dpool.run], [Engine.schedule_par] computes,
            [Usys.offload] thunks, [Abi.Offload] payloads, and lambdas
            marked [[@vrace.worker]]) and everything they transitively
            call must not touch non-atomic mutable state shared with the
            simulation thread: mutable-field reads/writes and container
            mutations on captured or global bases are findings unless a
            real [Mutex] is held. Function parameters are exempt for
            in-place container helpers (the [Sha256.compress state w
            data off] idiom), but each summary records which parameters
            its function mutates, so a captured or global container
            handed to such a parameter is reported at the call site;
            the tail lambda returned by a [schedule_par] compute is the
            commit and runs back on the sim thread, so it is skipped.
    - R103  {b sleep in atomic context}. May-block summaries (anything
            reaching [Sched.block], [Sched.finish_after],
            [Sched.park_for_debug] or [Condition.wait]) intersected
            with spinlock/irq windows: blocking with a spin lock held
            would deadlock a real kernel, so the discipline checker
            bans it even in the simulator.
            Mutex windows are exempt ([Condition.wait] under its mutex
            is the intended idiom).

    Known imprecision, chosen to keep the checker quiet and honest:
    branch effects are joined by union (a conditional acquire counts as
    an acquire — locks here are discipline locks, never contended);
    aliasing through local lets hides the base of a mutation from R102;
    array/ref cell {e reads} are never checked. Findings print as
    [file:line: rule-id message] and pass through {!Lintkit}, the
    allowlist contract vlint uses too: [--allow FILE] grandfathers, a
    stale entry fails the run. *)

open Typedtree

let report ~loc ~rule fmt =
  Lintkit.report ~file:loc.Location.loc_start.Lexing.pos_fname
    ~line:loc.Location.loc_start.Lexing.pos_lnum ~rule fmt

(* ---- locks and locksets ---- *)

(* A lock's identity is the record-field name it lives in ("ptable",
   "plock", "lock"): the code never aliases one subsystem's lock into
   another subsystem's field, so the field name is a stable key that
   survives being passed through locals and option payloads. *)
type lock_kind = Spin | Mutex_k | Irq

module LS = Set.Make (struct
  type t = string * lock_kind

  let compare = compare
end)

module SS = Set.Make (String)

let holds_name name ls = LS.exists (fun (n, _) -> n = name) ls
let spin_locks ls = LS.filter (fun (_, k) -> k = Spin || k = Irq) ls
let has_mutex ls = LS.exists (fun (_, k) -> k = Mutex_k) ls
let remove_name name ls = LS.filter (fun (n, _) -> n <> name) ls

(* ---- names ---- *)

(* "Core__Sched.wake_all" -> "Sched.wake_all", "Stdlib.Mutex.lock" ->
   "Mutex.lock": strip the wrapped-library mangling and the Stdlib
   prefix so primitives and cross-module calls match by one spelling. *)
let strip_mangle comp =
  let rec last_sep i =
    if i + 1 >= String.length comp then None
    else if comp.[i] = '_' && comp.[i + 1] = '_' then
      match last_sep (i + 2) with Some j -> Some j | None -> Some (i + 2)
    else last_sep (i + 1)
  in
  match last_sep 0 with
  | Some j -> String.sub comp j (String.length comp - j)
  | None -> comp

(* Names of the wrapper modules dune synthesizes for wrapped libraries
   ("Core", "Sim", ...), learned from the mangled unit names of the cmts
   being analyzed: calls through the wrapper alias ("Core.Spinlock.acquire")
   and direct mangled references ("Core__Spinlock.acquire") must both
   normalize to "Spinlock.acquire". *)
let wrappers : (string, unit) Hashtbl.t = Hashtbl.create 8

let normalize_path p =
  let parts =
    String.split_on_char '.' (Path.name p) |> List.map strip_mangle
  in
  let parts =
    match parts with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | w :: (_ :: _ as rest) when Hashtbl.mem wrappers w -> rest
    | parts -> parts
  in
  String.concat "." parts

let record_type_name (ld : Types.label_description) =
  match Types.get_desc ld.Types.lbl_res with
  | Types.Tconstr (p, _, _) -> normalize_path p
  | _ -> "?"

(* A type defined in the unit being analyzed shows up as a bare Pident
   ("t"); qualify it with the unit name so "Dpool.t.failure" and
   "Fd.t.failure" cannot collide in the R101b site table. *)
let field_key ~m ld =
  let tn = record_type_name ld in
  let tn = if String.contains tn '.' || m = "" then tn else m ^ "." ^ tn in
  tn ^ "." ^ ld.Types.lbl_name

let locked_by_of (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.Parsetree.attr_name.Asttypes.txt <> "locked_by" then None
      else
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                Parsetree.pstr_desc =
                  Parsetree.Pstr_eval
                    ( {
                        Parsetree.pexp_desc =
                          Parsetree.Pexp_constant
                            (Parsetree.Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
            Some s
        | _ -> None)
    attrs

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.Asttypes.txt = name)
    attrs

(* ---- patterns ---- *)

let rec pat_vars : type k. k general_pattern -> string list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ Ident.name id ]
  | Tpat_alias (q, id, _) -> Ident.name id :: pat_vars q
  | Tpat_tuple ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, q) -> pat_vars q) fields
  | Tpat_variant (_, Some q, _) -> pat_vars q
  | Tpat_variant (_, None, _) -> []
  | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Tpat_lazy q -> pat_vars q
  | Tpat_value v -> pat_vars (v :> value general_pattern)
  | Tpat_exception q -> pat_vars q
  | Tpat_any | Tpat_constant _ -> []

(* The one variable a pattern binds, looking through [Some x] and
   aliases — the shape of [match t.ptable with Some l -> ...] that the
   binding-origin environment needs to see through. *)
let rec single_var : type k. k general_pattern -> string option =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> Some (Ident.name id)
  | Tpat_alias (q, id, _) -> (
      match single_var q with Some v -> Some v | None -> Some (Ident.name id))
  | Tpat_construct (_, _, [ q ], _) -> single_var q
  | Tpat_value v -> single_var (v :> value general_pattern)
  | _ -> None

(* ---- binding origins ---- *)

type field_info = {
  fi_key : string;  (** "Task.t.state" *)
  fi_name : string;  (** "state" *)
  fi_locked_by : string option;
  fi_mutable : bool;
}

let field_info_of ~m ld =
  {
    fi_key = field_key ~m ld;
    fi_name = ld.Types.lbl_name;
    fi_locked_by = locked_by_of ld.Types.lbl_attributes;
    fi_mutable = ld.Types.lbl_mut = Asttypes.Mutable;
  }

type binding =
  | B_param  (** bound as a parameter of the context being analyzed *)
  | B_local  (** bound locally: allocation or derived value *)
  | B_field of field_info  (** bound from a record-field read *)

type base = Param | Local | Captured | Global

(* ---- function index and summaries ---- *)

type func = {
  f_key : string;
  f_params : string list;
  f_slots : string list list;
      (** the variables each positional parameter binds *)
  f_body : expression;
}

type summary = {
  mutable sm_acq : LS.t;  (** locks held on exit that were not on entry *)
  mutable sm_rel : SS.t;  (** caller's locks this function releases *)
  mutable sm_blocks : bool;
  mutable sm_applies : (int * LS.t) list;
      (** parameter index applied while holding extra locks *)
  mutable sm_mutates : int list;
      (** parameter indices whose container the function mutates with
          no mutex held *)
}

let empty_summary () =
  {
    sm_acq = LS.empty;
    sm_rel = SS.empty;
    sm_blocks = false;
    sm_applies = [];
    sm_mutates = [];
  }

let funcs : (string, func) Hashtbl.t = Hashtbl.create 512
let summaries : (string, summary) Hashtbl.t = Hashtbl.create 512

(* R101b evidence: every mutation site of unannotated mutable kernel
   state, with the lock names held there. *)
type site = { st_loc : Location.t; st_locks : SS.t }

let mut_sites : (string, site list ref) Hashtbl.t = Hashtbl.create 256

(* R102 work queue *)
type root =
  | R_lambda of expression * bool * string
      (** lambda, skip tail-position lambdas, defining module *)
  | R_func of string

let worker_roots : root list ref = ref []
let worker_seen : (string, unit) Hashtbl.t = Hashtbl.create 64

(* ---- primitive tables ---- *)

let blockers =
  SS.of_list
    [
      "Sched.block";
      "Sched.finish_after";
      "Sched.park_for_debug";
      "Condition.wait";
    ]

(* (function, index of the mutated container argument) *)
let mutators =
  [
    ("Array.set", 0);
    ("Array.unsafe_set", 0);
    ("Array.fill", 0);
    ("Bytes.set", 0);
    ("Bytes.unsafe_set", 0);
    ("Bytes.fill", 0);
    ("Hashtbl.add", 0);
    ("Hashtbl.replace", 0);
    ("Hashtbl.remove", 0);
    ("Hashtbl.clear", 0);
    ("Hashtbl.reset", 0);
    ("Queue.add", 1);
    ("Queue.push", 1);
    ("Queue.pop", 0);
    ("Queue.take", 0);
    ("Queue.clear", 0);
    (":=", 0);
    ("incr", 0);
    ("decr", 0);
  ]

(* Stdlib higher-order functions that apply their lambda arguments
   before returning: the lambda runs under the caller's lockset. Lambdas
   passed to anything else are treated as deferred callbacks running
   with no locks held. *)
let applies_inline fname =
  List.exists
    (fun prefix ->
      String.length fname >= String.length prefix
      && String.sub fname 0 (String.length prefix) = prefix)
    [
      "List.";
      "Array.";
      "Hashtbl.";
      "Queue.";
      "Option.";
      "Seq.";
      "Fun.";
      "Buffer.";
      "String.";
      "Bytes.";
      "Either.";
      "Result.";
      "Printf.";
      "Lazy.";
    ]

(* ---- the abstract walk ---- *)

type mode = Sim | Worker

type st = {
  cur_module : string;
  mode : mode;
  emit : bool;
  params : string list;  (** parameters of the function being summarized *)
  mutable released : SS.t;
  mutable blocks : bool;
  mutable applies : (int * LS.t) list;
  mutable mutated : SS.t;  (** parameters mutated with no mutex held *)
  mutable calls : SS.t;
  mutable skip_locs : Location.t list;
}

let in_kernel_scope loc =
  let segs =
    String.split_on_char '/' loc.Location.loc_start.Lexing.pos_fname
  in
  List.mem "core" segs || List.mem "sim" segs

let lock_names ls = LS.fold (fun (n, _) acc -> SS.add n acc) ls SS.empty

let record_mut_site key ~loc ~ls =
  let sites =
    match Hashtbl.find_opt mut_sites key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace mut_sites key r;
        r
  in
  sites := { st_loc = loc; st_locks = lock_names ls } :: !sites

let add_worker_root r =
  match r with
  | R_func key ->
      if not (Hashtbl.mem worker_seen key) then begin
        Hashtbl.replace worker_seen key ();
        worker_roots := r :: !worker_roots
      end
  | R_lambda (e, _, _) ->
      (* keyed by location: the same lambda is reached both when its
         enclosing function is summarized and when it is checked *)
      let key =
        Printf.sprintf "%s:%d:%d"
          e.exp_loc.Location.loc_start.Lexing.pos_fname
          e.exp_loc.Location.loc_start.Lexing.pos_lnum
          e.exp_loc.Location.loc_start.Lexing.pos_cnum
      in
      if not (Hashtbl.mem worker_seen key) then begin
        Hashtbl.replace worker_seen key ();
        worker_roots := r :: !worker_roots
      end

(* The field name a lock expression denotes, through local aliases. *)
let rec lock_name_of env e =
  match e.exp_desc with
  | Texp_field (_, _, ld) -> Some ld.Types.lbl_name
  | Texp_ident (Path.Pident id, _, _) -> (
      match List.assoc_opt (Ident.name id) env with
      | Some (B_field fi) -> Some fi.fi_name
      | _ -> None)
  | Texp_open (_, e') -> lock_name_of env e'
  | _ -> None

(* The root identifier of a base expression (peeling field projections),
   classified against the current environment. *)
let rec base_of env e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
      match List.assoc_opt (Ident.name id) env with
      | Some B_param -> (Param, Ident.name id)
      | Some B_local -> (Local, Ident.name id)
      (* bound from a field read: an alias of shared state *)
      | Some (B_field _) -> (Captured, Ident.name id)
      | None -> (Captured, Ident.name id))
  | Texp_ident (p, _, _) -> (Global, normalize_path p)
  | Texp_field (b, _, _) -> base_of env b
  | Texp_open (_, e') -> base_of env e'
  | _ -> (Captured, "?")

(* [base_of] for an argument that names a container (an identifier or a
   field path); [None] for computed values, which are fresh. *)
let rec named_base env e =
  match e.exp_desc with
  | Texp_ident _ | Texp_field _ -> Some (base_of env e)
  | Texp_open (_, e') -> named_base env e'
  | _ -> None

let resolve_key st fname =
  if Hashtbl.mem funcs fname then Some fname
  else if not (String.contains fname '.') then begin
    let qualified = st.cur_module ^ "." ^ fname in
    if Hashtbl.mem funcs qualified then Some qualified else None
  end
  else None

let rec summary_of key =
  match Hashtbl.find_opt summaries key with
  | Some s -> s
  | None -> (
      match Hashtbl.find_opt funcs key with
      | None -> empty_summary ()
      | Some f ->
          (* seed first so recursion sees an empty summary instead of
             looping *)
          let s = empty_summary () in
          Hashtbl.replace summaries key s;
          let st =
            {
              cur_module =
                (match String.rindex_opt key '.' with
                | Some i -> String.sub key 0 i
                | None -> key);
              mode = Sim;
              emit = false;
              params = f.f_params;
              released = SS.empty;
              blocks = false;
              applies = [];
              mutated = SS.empty;
              calls = SS.empty;
              skip_locs = [];
            }
          in
          let env = List.map (fun p -> (p, B_param)) f.f_params in
          let out = walk st env LS.empty f.f_body in
          s.sm_acq <- out;
          s.sm_rel <- st.released;
          s.sm_blocks <- st.blocks;
          s.sm_applies <- st.applies;
          s.sm_mutates <-
            List.concat
              (List.mapi
                 (fun i vars ->
                   if List.exists (fun v -> SS.mem v st.mutated) vars then [ i ]
                   else [])
                 f.f_slots);
          s)

and may_block st fname =
  SS.mem fname blockers
  ||
  match resolve_key st fname with
  | Some key -> (summary_of key).sm_blocks
  | None -> false

(* Apply the effect of calling [key] (or a primitive named [fname]) with
   lockset [ls]; checks R103 and returns the lockset after the call. *)
and call_effect st ~loc ls fname =
  if may_block st fname then begin
    st.blocks <- true;
    if st.emit then
      LS.iter
        (fun (n, k) ->
          report ~loc ~rule:"R103"
            "'%s' may block while holding %s '%s' — a real kernel \
             deadlocks here"
            fname
            (if k = Irq then "irq guard" else "spin lock")
            n)
        (spin_locks ls)
  end;
  match resolve_key st fname with
  | None -> ls
  | Some key ->
      st.calls <- SS.add key st.calls;
      let s = summary_of key in
      let ls = SS.fold remove_name s.sm_rel ls in
      LS.union ls s.sm_acq

and walk_case :
    type k. st -> (string * binding) list -> LS.t -> binding option -> k case
    -> LS.t =
 fun st env ls scrutinee_origin c ->
  (* Vars a pattern binds come from elsewhere — a scrutinee, an iterated
     container — so for worker-mode base classification they count as
     shared inputs (B_param), not domain-local allocations. *)
  let env =
    match (single_var c.c_lhs, scrutinee_origin) with
    | Some v, Some origin -> (v, origin) :: env
    | Some v, None -> (v, B_param) :: env
    | None, _ ->
        List.map (fun v -> (v, B_param)) (pat_vars c.c_lhs) @ env
  in
  (match c.c_guard with Some g -> ignore (walk st env ls g) | None -> ());
  walk st env ls c.c_rhs

and walk_lambda_body st env ls e =
  (* walk the body of a one-argument lambda under lockset [ls] *)
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left
        (fun acc c -> LS.union acc (walk_case st env ls None c))
        LS.empty cases
      |> ignore
  | _ -> ignore (walk st env ls e)

(* Walk every subexpression of [e] that the explicit cases below do not
   cover, threading the current lockset into each child. *)
and walk_children st env ls e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ e' -> ignore (walk st env ls e'));
    }
  in
  Tast_iterator.default_iterator.expr it e

and origin_of st env e =
  match e.exp_desc with
  | Texp_field (_, _, ld) ->
      Some (B_field (field_info_of ~m:st.cur_module ld))
  | Texp_ident (Path.Pident id, _, _) ->
      List.assoc_opt (Ident.name id) env
  | Texp_open (_, e') -> origin_of st env e'
  | _ -> None

(* Feeds [sm_mutates]: a mutation rooted at one of our own parameters. *)
and note_param_mutation st env ls base =
  match base_of env base with
  | Param, name when not (has_mutex ls) ->
      st.mutated <- SS.add name st.mutated
  | _ -> ()

(* R101/R102 checks for one mutation whose container/base is [container],
   described for messages as [what]. *)
and check_mutation st env ls ~loc ~what container =
  note_param_mutation st env ls container;
  (match origin_of st env container with
  | Some (B_field fi) ->
      (match fi.fi_locked_by with
      | Some lock ->
          if st.emit && st.mode = Sim && not (holds_name lock ls) then
            report ~loc ~rule:"R101"
              "%s '%s' mutated without holding its lock '%s' ([@locked_by])"
              what fi.fi_key lock
      | None ->
          if st.mode = Sim && fi.fi_mutable && in_kernel_scope loc then
            record_mut_site fi.fi_key ~loc ~ls);
      ()
  | _ -> ());
  if st.emit && st.mode = Worker && not (has_mutex ls) then begin
    match base_of env container with
    | (Captured | Global), name ->
        report ~loc ~rule:"R102"
          "%s rooted at '%s' mutated from worker-domain context without \
           Atomic or a held mutex"
          what name
    | (Param | Local), _ -> ()
  end

and walk st env ls (e : expression) : LS.t =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ -> ls
  | Texp_let (_, vbs, body) ->
      let env' =
        List.fold_left
          (fun acc vb ->
            ignore (walk st acc ls vb.vb_expr);
            match single_var vb.vb_pat with
            | Some v -> (
                match origin_of st acc vb.vb_expr with
                | Some (B_field _ as o) -> (v, o) :: acc
                | _ -> (v, B_local) :: acc)
            | None ->
                List.map (fun v -> (v, B_local)) (pat_vars vb.vb_pat) @ acc)
          env vbs
      in
      walk st env' ls body
  | Texp_sequence (a, b) ->
      let ls = walk st env ls a in
      walk st env ls b
  | Texp_ifthenelse (c, t, f) ->
      let ls = walk st env ls c in
      let lt = walk st env ls t in
      let lf = match f with Some f -> walk st env ls f | None -> ls in
      LS.union lt lf
  | Texp_match (scrut, cases, _) ->
      let ls = walk st env ls scrut in
      let origin = origin_of st env scrut in
      List.fold_left
        (fun acc c -> LS.union acc (walk_case st env ls origin c))
        LS.empty cases
  | Texp_try (body, cases) ->
      let lb = walk st env ls body in
      List.fold_left
        (fun acc c -> LS.union acc (walk_case st env ls None c))
        lb cases
  | Texp_while (c, body) ->
      let ls = walk st env ls c in
      ignore (walk st env ls body);
      ls
  | Texp_for (id, _, lo, hi, _, body) ->
      let ls = walk st env ls lo in
      let ls = walk st env ls hi in
      ignore (walk st ((Ident.name id, B_local) :: env) ls body);
      ls
  | Texp_field (base, _, ld) ->
      ignore (walk st env ls base);
      (* R102: reading non-atomic mutable state from a worker domain *)
      if
        st.emit && st.mode = Worker
        && ld.Types.lbl_mut = Asttypes.Mutable
        && not (has_mutex ls)
      then begin
        match base_of env base with
        | (Param | Captured | Global), name ->
            report ~loc:e.exp_loc ~rule:"R102"
              "mutable field '%s' of '%s' read from worker-domain context \
               without Atomic or a held mutex"
              (field_key ~m:st.cur_module ld)
              name
        | Local, _ -> ()
      end;
      ls
  | Texp_setfield (base, _, ld, rhs) ->
      ignore (walk st env ls base);
      let ls = walk st env ls rhs in
      let fi = field_info_of ~m:st.cur_module ld in
      note_param_mutation st env ls base;
      (match fi.fi_locked_by with
      | Some lock ->
          if st.emit && st.mode = Sim && not (holds_name lock ls) then
            report ~loc:e.exp_loc ~rule:"R101"
              "field '%s' mutated without holding its lock '%s' \
               ([@locked_by])"
              fi.fi_key lock
      | None ->
          if st.mode = Sim && in_kernel_scope e.exp_loc then
            record_mut_site fi.fi_key ~loc:e.exp_loc ~ls);
      if st.emit && st.mode = Worker && not (has_mutex ls) then begin
        match base_of env base with
        | (Param | Captured | Global), name ->
            report ~loc:e.exp_loc ~rule:"R102"
              "mutable field '%s' of '%s' written from worker-domain \
               context without Atomic or a held mutex"
              (field_key ~m:st.cur_module ld)
              name
        | Local, _ -> ()
      end;
      ls
  | Texp_function { cases; param; _ } ->
      if List.memq e.exp_loc st.skip_locs then ls
      else if has_attr "vrace.worker" e.exp_attributes then begin
        if st.mode = Sim then
          add_worker_root (R_lambda (e, false, st.cur_module));
        ls
      end
      else begin
        (* a lambda not consumed by any call we understand: analyze as a
           deferred callback — same mode, no locks held *)
        ignore param;
        List.iter
          (fun c -> ignore (walk_case st env LS.empty None c))
          cases;
        ls
      end
  | Texp_construct (_, cd, args) ->
      if cd.Types.cstr_name = "Offload" then
        List.iter
          (fun a ->
            match a.exp_desc with
            | Texp_function _ ->
                if st.mode = Sim then
                  add_worker_root (R_lambda (a, false, st.cur_module))
                else ignore (walk st env ls a)
            | _ -> ignore (walk st env ls a))
          args
      else List.iter (fun a -> ignore (walk st env ls a)) args;
      ls
  | Texp_apply (fn, args) -> walk_apply st env ls e fn args
  | _ ->
      walk_children st env ls e;
      ls

and walk_apply st env ls e fn args =
  let arg_exprs = List.filter_map (fun (_, a) -> a) args in
  let fname =
    match fn.exp_desc with
    | Texp_ident (p, _, _) -> Some (normalize_path p)
    | _ ->
        ignore (walk st env ls fn);
        None
  in
  let walk_args ?(except = []) () =
    List.iter
      (fun a -> if not (List.memq a except) then ignore (walk st env ls a))
      arg_exprs
  in
  let arg i = List.nth_opt arg_exprs i in
  match fname with
  | Some ("Spinlock.acquire" | "Mutex.lock" as prim) -> (
      walk_args ();
      let kind = if prim = "Mutex.lock" then Mutex_k else Spin in
      match arg 0 with
      | Some l -> (
          match lock_name_of env l with
          | Some n -> LS.add (n, kind) ls
          | None -> ls)
      | None -> ls)
  | Some ("Spinlock.release" | "Mutex.unlock" as prim) -> (
      walk_args ();
      ignore prim;
      match arg 0 with
      | Some l -> (
          match lock_name_of env l with
          | Some n ->
              if not (holds_name n ls) then st.released <- SS.add n st.released;
              remove_name n ls
          | None -> ls)
      | None -> ls)
  | Some ("Spinlock.protect" | "Mutex.protect" as prim) ->
      let kind = if prim = "Mutex.protect" then Mutex_k else Spin in
      let locked =
        match arg 0 with
        | Some l -> (
            match lock_name_of env l with
            | Some n -> LS.add (n, kind) ls
            | None -> ls)
        | None -> ls
      in
      (match arg 0 with Some l -> ignore (walk st env ls l) | None -> ());
      (match arg 1 with
      | Some ({ exp_desc = Texp_function _; _ } as f) ->
          walk_lambda_body st env locked f
      | Some ({ exp_desc = Texp_ident (p, _, _); _ } as f) ->
          ignore (walk st env ls f);
          ignore (call_effect st ~loc:e.exp_loc locked (normalize_path p))
      | Some other -> ignore (walk st env ls other)
      | None -> ());
      ls
  | Some "Irq_guard.push" | Some "Spinlock.Irq_guard.push" ->
      walk_args ();
      LS.add ("irq", Irq) ls
  | Some "Irq_guard.pop" | Some "Spinlock.Irq_guard.pop" ->
      walk_args ();
      remove_name "irq" ls
  | Some ("Domain.spawn" | "Dpool.run" | "Usys.offload" as root_fn) ->
      ignore root_fn;
      List.iter
        (fun a ->
          match a.exp_desc with
          | Texp_function _ ->
              if st.mode = Sim then
                add_worker_root (R_lambda (a, false, st.cur_module))
              else ignore (walk st env ls a)
          | _ -> ignore (walk st env ls a))
        arg_exprs;
      ls
  | Some "Engine.schedule_par" | Some "Sim.Engine.schedule_par" ->
      List.iter
        (fun a ->
          match a.exp_desc with
          | Texp_function _ ->
              if st.mode = Sim then
                add_worker_root (R_lambda (a, true, st.cur_module))
              else ignore (walk st env ls a)
          | _ -> ignore (walk st env ls a))
        arg_exprs;
      ls
  | Some fname ->
      (* mutator check: the container argument *)
      (match List.assoc_opt fname mutators with
      | Some idx -> (
          match arg idx with
          | Some c ->
              check_mutation st env ls ~loc:e.exp_loc
                ~what:
                  (match fname with
                  | ":=" | "incr" | "decr" -> "ref cell"
                  | _ -> "container")
                c
          | None -> ())
      | None -> ());
      (* record the application of one of our own parameters *)
      (match fn.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> (
          let n = Ident.name id in
          match List.assoc_opt n env with
          | Some B_param -> (
              match
                List.find_index (fun p -> p = n) st.params
              with
              | Some i when not (LS.is_empty ls) ->
                  st.applies <- (i, ls) :: st.applies
              | _ -> ())
          | _ -> ())
      | _ -> ());
      let callee = resolve_key st fname in
      let applies =
        match callee with Some k -> (summary_of k).sm_applies | None -> []
      in
      (* containers handed to a parameter the callee mutates: the
         mutation happens in the callee, but whose state it is — a
         parameter, a domain-local value, or shared — is known here *)
      (match callee with
      | Some k ->
          List.iter
            (fun i ->
              (* positional in [args], where an omitted optional
                 argument still holds its slot *)
              let passed =
                match List.nth_opt args i with
                | Some (_, Some a) -> named_base env a
                | _ -> None
              in
              match passed with
              | Some (Param, name) when not (has_mutex ls) ->
                  st.mutated <- SS.add name st.mutated
              | Some ((Captured | Global), name)
                when st.emit && st.mode = Worker && not (has_mutex ls) ->
                  report ~loc:e.exp_loc ~rule:"R102"
                    "container rooted at '%s' passed to '%s', which mutates \
                     that parameter, from worker-domain context without \
                     Atomic or a held mutex"
                    name k
              | _ -> ())
            (summary_of k).sm_mutates
      | None -> ());
      (* lambda arguments: run inline under the callee's documented
         lockset, or as deferred callbacks with none *)
      List.iteri
        (fun i a ->
          match a.exp_desc with
          | Texp_function _ ->
              let extra =
                match List.assoc_opt i applies with
                | Some extra_ls -> Some extra_ls
                | None -> if applies_inline fname then Some LS.empty else None
              in
              (match extra with
              | Some extra_ls ->
                  walk_lambda_body st env (LS.union ls extra_ls) a
              | None -> ignore (walk st env ls a))
          | _ -> ignore (walk st env ls a))
        arg_exprs;
      (* non-lambda ident arguments applied under locks by the callee *)
      List.iteri
        (fun i a ->
          match (a.exp_desc, List.assoc_opt i applies) with
          | Texp_ident (p, _, _), Some extra_ls ->
              ignore
                (call_effect st ~loc:e.exp_loc (LS.union ls extra_ls)
                   (normalize_path p))
          | _ -> ())
        arg_exprs;
      call_effect st ~loc:e.exp_loc ls fname
  | None ->
      walk_args ();
      ls

(* ---- phase 1: index every top-level function in every cmt ---- *)

let rec peel_params e acc =
  match e.exp_desc with
  | Texp_function { cases = [ ({ c_guard = None; _ } as c) ]; _ } ->
      peel_params c.c_rhs (pat_vars c.c_lhs :: acc)
  | _ -> (List.rev acc, e)

let rec index_structure modpath (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match single_var vb.vb_pat with
              | Some name -> (
                  match vb.vb_expr.exp_desc with
                  | Texp_function _ ->
                      let slots, body = peel_params vb.vb_expr [] in
                      let key = modpath ^ "." ^ name in
                      Hashtbl.replace funcs key
                        {
                          f_key = key;
                          f_params = List.concat slots;
                          f_slots = slots;
                          f_body = body;
                        }
                  | _ -> ())
              | None -> ())
            vbs
      | Tstr_module mb -> index_module modpath mb
      | Tstr_recmodule mbs -> List.iter (index_module modpath) mbs
      | _ -> ())
    str.str_items

and index_module modpath mb =
  let name =
    match mb.mb_name.Asttypes.txt with Some n -> n | None -> "_"
  in
  let rec structure_of me =
    match me.mod_desc with
    | Tmod_structure str -> Some str
    | Tmod_constraint (me', _, _, _) -> structure_of me'
    | _ -> None
  in
  match structure_of mb.mb_expr with
  | Some str -> index_structure (modpath ^ "." ^ name) str
  | None -> ()

(* ---- phase 2: check every function body ---- *)

let fresh_st ~cur_module ~mode ~params =
  {
    cur_module;
    mode;
    emit = true;
    params;
    released = SS.empty;
    blocks = false;
    applies = [];
    mutated = SS.empty;
    calls = SS.empty;
    skip_locs = [];
  }

let module_of_key key =
  match String.rindex_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

let check_function key (f : func) =
  let st = fresh_st ~cur_module:(module_of_key key) ~mode:Sim ~params:f.f_params in
  let env = List.map (fun p -> (p, B_param)) f.f_params in
  ignore (walk st env LS.empty f.f_body)

(* ---- phase 3: worker-context propagation ---- *)

(* Tail-position lambdas of a schedule_par compute are the commit and run
   back on the simulation thread. *)
let rec tail_lambda_locs e =
  match e.exp_desc with
  | Texp_function _ -> [ e.exp_loc ]
  | Texp_let (_, _, body) | Texp_sequence (_, body) | Texp_open (_, body) ->
      tail_lambda_locs body
  | Texp_ifthenelse (_, t, f) -> (
      tail_lambda_locs t
      @ match f with Some f -> tail_lambda_locs f | None -> [])
  | Texp_match (_, cases, _) ->
      List.concat_map (fun c -> tail_lambda_locs c.c_rhs) cases
  | _ -> []

let run_worker_phase () =
  let rec drain () =
    match !worker_roots with
    | [] -> ()
    | root :: rest ->
        worker_roots := rest;
        (match root with
        | R_lambda (e, skip_tail, m) ->
            let st = fresh_st ~cur_module:m ~mode:Worker ~params:[] in
            if skip_tail then begin
              (* the body of the outer lambda produces the commit *)
              match e.exp_desc with
              | Texp_function { cases; _ } ->
                  st.skip_locs <-
                    List.concat_map (fun c -> tail_lambda_locs c.c_rhs) cases
              | _ -> ()
            end;
            (match e.exp_desc with
            | Texp_function { cases; _ } ->
                List.iter
                  (fun c ->
                    let env =
                      List.map (fun v -> (v, B_local)) (pat_vars c.c_lhs)
                    in
                    ignore (walk st env LS.empty c.c_rhs))
                  cases
            | _ -> ignore (walk st [] LS.empty e));
            SS.iter (fun k -> add_worker_root (R_func k)) st.calls
        | R_func key -> (
            match Hashtbl.find_opt funcs key with
            | None -> ()
            | Some f ->
                let st =
                  fresh_st ~cur_module:(module_of_key key) ~mode:Worker
                    ~params:f.f_params
                in
                let env = List.map (fun p -> (p, B_param)) f.f_params in
                ignore (walk st env LS.empty f.f_body);
                SS.iter (fun k -> add_worker_root (R_func k)) st.calls));
        drain ()
  in
  drain ()

(* ---- phase 4: R101b — inconsistent locksets on unannotated state ---- *)

let check_inconsistent_locksets () =
  Hashtbl.iter
    (fun key sites ->
      let sites = !sites in
      let locked = List.filter (fun s -> not (SS.is_empty s.st_locks)) sites in
      let unlocked = List.filter (fun s -> SS.is_empty s.st_locks) sites in
      if locked <> [] && unlocked <> [] then begin
        (* the lock most mutation sites agree on *)
        let counts = Hashtbl.create 4 in
        List.iter
          (fun s ->
            SS.iter
              (fun n ->
                Hashtbl.replace counts n
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
              s.st_locks)
          locked;
        let modal =
          Hashtbl.fold
            (fun n c (bn, bc) -> if c > bc then (n, c) else (bn, bc))
            counts ("?", 0)
          |> fst
        in
        List.iter
          (fun s ->
            report ~loc:s.st_loc ~rule:"R101"
              "mutable field '%s' is mutated under lock '%s' elsewhere but \
               with no lock held here — annotate it [@locked_by \"%s\"] and \
               close the window, or allowlist why this site is safe"
              key modal modal)
          unlocked
      end)
    mut_sites

(* ---- cmt loading ---- *)

let rec cmt_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun entry ->
           if entry = "_build" then []
           else cmt_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

let load_cmt path =
  match Cmt_format.read_cmt path with
  | cmt -> (
      let modname = cmt.Cmt_format.cmt_modname in
      (* the wrapper is everything before the first "__" — which is not
         the first '_': wrapper names can contain single underscores
         ("Vrace_fixture__Spinlock") *)
      let rec first_dsep i =
        if i + 1 >= String.length modname then None
        else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
        else first_dsep (i + 1)
      in
      (match first_dsep 0 with
      | Some i when i > 0 ->
          Hashtbl.replace wrappers (String.sub modname 0 i) ()
      | _ -> ());
      match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str -> Some (strip_mangle modname, str)
      | _ -> None)
  | exception _ -> None

(* ---- run: analyze, then filter through the allowlist and render ---- *)

let run ?allow_path ~roots () =
  Lintkit.check ~allow_path (fun () ->
      Hashtbl.reset funcs;
      Hashtbl.reset summaries;
      Hashtbl.reset mut_sites;
      Hashtbl.reset worker_seen;
      Hashtbl.reset wrappers;
      worker_roots := [];
      let units =
        roots
        |> List.concat_map cmt_files_under
        |> List.filter_map load_cmt
      in
      List.iter (fun (modname, str) -> index_structure modname str) units;
      Hashtbl.iter check_function funcs;
      run_worker_phase ();
      check_inconsistent_locksets ();
      List.length units)
