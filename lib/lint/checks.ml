(* Parsetree walks for rules R1-R4 (R5 is a file-system check and lives
   in the driver).  Everything here is purely syntactic: we match on the
   surface tree the stock compiler-libs parser produces, before any
   typing, so the checks are fast, dependency-free, and run on files
   that do not even typecheck yet. *)

open Parsetree
module StrSet = Set.Make (String)

(* Longident as a head-first path, with a leading [Stdlib] stripped so
   [Stdlib.exit] and [exit] (or [Stdlib.Hashtbl.iter] and
   [Hashtbl.iter]) are the same construct. *)
let ident_path lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> acc
  in
  match go [] lid with "Stdlib" :: rest -> rest | path -> path

let head_ident e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (ident_path txt) | _ -> None

type ctx = {
  file : string;
  mutable findings : Finding.t list;
  mutable allow_uses : (string * string) list;  (** (rule, allow prefix) that suppressed *)
}

(* Applicability-aware reporting: an allowlisted file swallows the
   finding but records which entry earned its keep, so the driver can
   flag entries that suppress nothing (A0). *)
let report ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun message ->
      match Rules.find rule with
      | None -> ()
      | Some meta -> (
        match Rules.applicability meta ctx.file with
        | Rules.Applies ->
          ctx.findings <-
            Finding.make ~rule ~severity:Finding.Error ~file:ctx.file ~loc message
            :: ctx.findings
        | Rules.Allowlisted prefix -> ctx.allow_uses <- (rule, prefix) :: ctx.allow_uses
        | Rules.Out_of_scope -> ()))
    fmt

let rule_in_scope id file =
  match Rules.find id with Some meta -> Rules.in_scope meta file | None -> false

(* ---------- pattern variables (for the R3 scope analysis) ---------- *)

let rec pat_vars p acc =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> StrSet.add txt acc
  | Ppat_alias (sub, { txt; _ }) -> pat_vars sub (StrSet.add txt acc)
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left (fun acc p -> pat_vars p acc) acc ps
  | Ppat_construct (_, Some (_, sub)) | Ppat_variant (_, Some sub) -> pat_vars sub acc
  | Ppat_record (fields, _) -> List.fold_left (fun acc (_, p) -> pat_vars p acc) acc fields
  | Ppat_or (a, b) -> pat_vars a (pat_vars b acc)
  | Ppat_constraint (sub, _) | Ppat_lazy sub | Ppat_exception sub | Ppat_open (_, sub) ->
    pat_vars sub acc
  | _ -> acc

(* ---------- R3: task purity ---------- *)

(* Fan-out entry points of [Parallel] whose function argument runs on
   worker domains. *)
let fanout_functions = [ "map"; "map_array"; "filter_map"; "concat_map"; "parallel_for" ]

let mutation_kind = function
  | [ ":=" ] -> Some "reference assignment (:=)"
  | [ "incr" ] | [ "decr" ] -> Some "incr/decr"
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ] -> Some "Hashtbl mutation"
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> Some "array mutation"
  | [ "Buffer"; s ] when String.length s >= 4 && String.sub s 0 4 = "add_" ->
    Some "Buffer mutation"
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> Some "Buffer mutation"
  | [ "Queue"; ("add" | "push" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ] -> Some "Queue/Stack mutation"
  | _ -> None

(* Walk the body of a closure submitted to a fan-out entry point.
   [bound] holds every name introduced inside the closure (parameters,
   lets, match/try cases, for indices): mutating those is task-local and
   fine; mutating anything else is captured state shared with other
   domains, i.e. a race that breaks the determinism contract. *)
let rec scan_task ctx bound e =
  let flag_target ~loc ~what target =
    match head_ident target with
    | Some [ name ] when StrSet.mem name bound -> ()
    | Some path ->
      report ctx ~rule:"R3" ~loc
        "%s of `%s` captured from outside a closure submitted to Parallel fan-out; hoist the \
         mutation out of the task or make the state task-local"
        what (String.concat "." path)
    | None ->
      report ctx ~rule:"R3" ~loc
        "%s of a non-local value inside a closure submitted to Parallel fan-out" what
  in
  let scan_cases bound cases =
    List.iter
      (fun c ->
        let bound = pat_vars c.pc_lhs bound in
        Option.iter (scan_task ctx bound) c.pc_guard;
        scan_task ctx bound c.pc_rhs)
      cases
  in
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (scan_task ctx bound) default;
    scan_task ctx (pat_vars pat bound) body
  | Pexp_function cases -> scan_cases bound cases
  | Pexp_let (rec_flag, vbs, body) ->
    let bound' = List.fold_left (fun acc vb -> pat_vars vb.pvb_pat acc) bound vbs in
    let rhs_bound = match rec_flag with Asttypes.Recursive -> bound' | Nonrecursive -> bound in
    List.iter (fun vb -> scan_task ctx rhs_bound vb.pvb_expr) vbs;
    scan_task ctx bound' body
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    scan_task ctx bound scrut;
    scan_cases bound cases
  | Pexp_for (pat, lo, hi, _, body) ->
    scan_task ctx bound lo;
    scan_task ctx bound hi;
    scan_task ctx (pat_vars pat bound) body
  | Pexp_setfield (target, _, value) ->
    flag_target ~loc:e.pexp_loc ~what:"field mutation (<-)" target;
    scan_task ctx bound target;
    scan_task ctx bound value
  | Pexp_setinstvar (_, value) ->
    report ctx ~rule:"R3" ~loc:e.pexp_loc
      "instance-variable mutation inside a closure submitted to Parallel fan-out";
    scan_task ctx bound value
  | Pexp_apply (f, args) ->
    (match (head_ident f, args) with
    | Some path, (_, target) :: _ -> (
      match mutation_kind path with
      | Some what -> flag_target ~loc:e.pexp_loc ~what target
      | None -> ())
    | _ -> ());
    scan_task ctx bound f;
    List.iter (fun (_, a) -> scan_task ctx bound a) args
  | _ ->
    (* Generic recursion: none of the remaining constructs bind names an
       expression child can see, so the bound set is unchanged. *)
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ child -> scan_task ctx bound child) }
    in
    Ast_iterator.default_iterator.expr it e

let check_fanout_application ctx args =
  List.iter
    (fun (_, arg) ->
      match arg.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> scan_task ctx StrSet.empty arg
      | _ -> ())
    args

(* The stealing entry points.  [Steal.run] receives its worker-run
   closures nested inside task tuples and arrays rather than as direct
   function arguments, so the purity scan must descend through arbitrary
   argument structure and check every lambda it finds; [Steal.spawn]
   gets the same treatment for uniformity. *)
let steal_functions = function
  | [ "Parallel"; "Steal"; ("run" | "spawn") ]
  | [ "Steal"; ("run" | "spawn") ] -> true
  | _ -> false

let rec scan_lambdas ctx e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> scan_task ctx StrSet.empty e
  | _ ->
    (* Descend, stopping at each lambda: [scan_task] owns everything
       inside it (and tracks the names it binds). *)
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ child -> scan_lambdas ctx child) }
    in
    Ast_iterator.default_iterator.expr it e

let check_steal_application ctx args = List.iter (fun (_, arg) -> scan_lambdas ctx arg) args

(* ---------- R1 / R2: banned identifiers ---------- *)

let sorting_head = function
  | [ ("List" | "Array"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
  | _ -> false

let check_ident ctx ~in_sort ~loc path =
  (match path with
  | [ "Random"; "self_init" ] ->
    report ctx ~rule:"R1" ~loc
      "Random.self_init seeds from the environment; use an explicit Prng seed so runs are \
       reproducible"
  | [ "Sys"; "time" ] ->
    report ctx ~rule:"R1" ~loc
      "Sys.time reads the process clock; deterministic code must not branch on wall-clock"
  | [ "Unix"; "gettimeofday" ] ->
    report ctx ~rule:"R1" ~loc
      "Unix.gettimeofday reads wall-clock; deterministic code must not branch on it"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] when not in_sort ->
    report ctx ~rule:"R1" ~loc
      "Hashtbl.%s visits bindings in unspecified order; sort the bindings (wrap the fold in \
       List.sort) before they feed fan-out or serialized output"
      fn
  | _ -> ());
  match path with
  | [ "Obj"; "magic" ] ->
    report ctx ~rule:"R2" ~loc "Obj.magic is forbidden: it defeats the type system"
  | "Marshal" :: _ ->
    report ctx ~rule:"R2" ~loc
      "Marshal is forbidden: wire data must go through the validating Codec layer"
  | [ "exit" ] when not (Rules.prefixed "bin/" ctx.file) ->
    report ctx ~rule:"R2" ~loc "exit outside bin/: libraries must return, not terminate"
  | _ -> ()

(* ---------- R4: fsync before rename ---------- *)

(* Collect rename/fsync call sites in source order inside one top-level
   binding; every rename must see an fsync earlier in the same body. *)
let check_fsync_order ctx vb =
  if rule_in_scope "R4" ctx.file then begin
    let events = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; loc } -> (
              match ident_path txt with
              | [ ("Unix" | "Sys"); "rename" ] -> events := (`Rename, loc) :: !events
              | [ "Unix"; "fsync" ] -> events := (`Fsync, loc) :: !events
              | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it vb.pvb_expr;
    let events = List.rev !events in
    let offset (loc : Location.t) = loc.loc_start.Lexing.pos_cnum in
    List.iter
      (fun (kind, loc) ->
        if kind = `Rename
           && not (List.exists (fun (k, l) -> k = `Fsync && offset l < offset loc) events)
        then
          report ctx ~rule:"R4" ~loc
            "rename without a preceding Unix.fsync in the same function body; atomic-replace \
             must flush the new file's blocks before publishing it")
      events
  end

(* ---------- the per-file walk ---------- *)

let check_structure ~file structure =
  let ctx = { file; findings = []; allow_uses = [] } in
  let in_sort = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident ctx ~in_sort:!in_sort ~loc (ident_path txt)
          | Pexp_apply (f, args) -> (
            match head_ident f with
            | Some [ "Parallel"; fn ] when List.mem fn fanout_functions ->
              if rule_in_scope "R3" ctx.file then check_fanout_application ctx args
            | Some path when steal_functions path ->
              if rule_in_scope "R3" ctx.file then check_steal_application ctx args
            | _ -> ())
          | _ -> ());
          match e.pexp_desc with
          | Pexp_apply (f, args)
            when (match head_ident f with Some p -> sorting_head p | None -> false) ->
            (* A Hashtbl.fold whose result goes straight into a sort is
               ordered output; the exemption covers the sort's arguments
               only. *)
            it.expr it f;
            let saved = !in_sort in
            in_sort := true;
            List.iter (fun (_, a) -> it.expr it a) args;
            in_sort := saved
          | _ -> Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter (fun vb -> check_fsync_order ctx vb) vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it item);
    }
  in
  List.iter (fun item -> it.structure_item it item) structure;
  (List.rev ctx.findings, List.sort_uniq compare ctx.allow_uses)
