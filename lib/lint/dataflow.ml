(* The semantic analyses over typedtrees: R1' interprocedural
   determinism taint, R6 lock discipline and R7 resource lifetime.

   All three share one approximation of "can this expression raise":
   a call is assumed to raise unless its head is on the safe-external
   list or is a local let-bound lambda whose body was summarized as
   non-raising.  [assert false] and [Texp_unreachable] mark dead code
   and are never treated as raises; a [Partial] match is a potential
   Match_failure.  Misclassifying a raising function as safe loses a
   finding; the reverse invents one, so the safe list is deliberately
   short.

   Blind spots (documented in DESIGN.md paragraph 15): functions inside
   nested modules are not call-graph nodes, [f @@ x] / [x |> f] hide
   the callee from the head check, [Mutex.try_lock] is not modeled, and
   a lambda passed to an unknown function conservatively marks captured
   resources as escaped rather than leaked. *)

open Typedtree
module S = Set.Make (String)

type report = {
  findings : Finding.t list;
  allow_uses : (string * string) list;  (** (rule id, allow prefix) that suppressed *)
}

(* ---------- shared classification ---------- *)

let head_of f =
  match f.exp_desc with Texp_ident (p, _, _) -> Some (p, Callgraph.normalize p) | _ -> None

let dotted comps = String.concat "." comps

let is_raise_head = function
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] -> true
  | _ -> false

(* Externals that cannot raise (or whose failure modes we accept, like
   allocation).  Division, [List.hd], [Array.get], [Option.get],
   [Hashtbl.find] are intentionally absent. *)
let safe_head = function
  | [ "Mutex"; _ ] | [ "Condition"; _ ] | [ "Atomic"; _ ]
  | [ "Domain"; ("cpu_relax" | "self" | "recommended_domain_count") ]
  | [ ("ref" | "!" | ":=" | "incr" | "decr" | "ignore" | "not" | "fst" | "snd") ]
  | [ ("min" | "max" | "abs" | "succ" | "pred" | "compare") ]
  | [ ("=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=") ]
  | [ ("+" | "-" | "*" | "+." | "-." | "*." | "/." | "~-" | "~-." | "**") ]
  | [ ("&&" | "||" | "^" | "@") ]
  | [ ("land" | "lor" | "lxor" | "lnot" | "lsl" | "lsr" | "asr") ]
  | [ ("float_of_int" | "int_of_float" | "truncate" | "string_of_int" | "string_of_float"
      | "string_of_bool" ) ]
  | [ "List";
      ( "length" | "rev" | "rev_append" | "cons" | "mem" | "memq" | "exists" | "for_all"
      | "filter" | "concat" | "append" | "is_empty" ) ]
  | [ "Array"; ("length" | "make" | "copy" | "to_list" | "of_list" | "unsafe_get" | "unsafe_set") ]
  | [ "String"; ("length" | "concat" | "equal" | "compare" | "trim" | "uppercase_ascii" | "lowercase_ascii") ]
  | [ "Option"; ("is_some" | "is_none" | "value" | "some" | "none" | "equal" | "to_list") ]
  | [ "Int"; _ ] | [ "Bool"; _ ] | [ "Char"; "code" ]
  | [ "Float"; ("of_int" | "to_int" | "equal" | "compare" | "add" | "sub" | "mul" | "abs" | "max" | "min") ]
  | [ "Printf"; "sprintf" ] | [ "Format"; "sprintf" ]
  | [ "Buffer";
      ("create" | "add_string" | "add_char" | "add_buffer" | "contents" | "length" | "clear" | "reset") ]
  | [ "Hashtbl";
      ("create" | "add" | "replace" | "mem" | "find_opt" | "remove" | "reset" | "clear" | "length") ]
  | [ "Queue"; ("create" | "add" | "push" | "is_empty" | "length" | "clear") ]
  | [ "Fun"; "id" ] | [ "Filename"; ("concat" | "basename" | "dirname" | "remove_extension") ]
  -> true
  | _ -> false

(* Calls that park the domain: never acceptable while holding a deque
   or pool mutex. *)
let blocking_head = function
  | [ "Unix"; _ ] -> true
  | [ "Domain"; "join" ] | [ "Thread"; "join" ] | [ "Event"; _ ] -> true
  | [ ("input_line" | "read_line" | "input" | "really_input") ] -> true
  | _ -> false

(* Stdlib container combinators run their function arguments to
   completion before returning, so a lambda argument executes inline
   under whatever locks/resources the caller holds. *)
let inline_combinator = function
  | [ ("List" | "Array" | "Seq" | "Option" | "Result" | "Either" | "Hashtbl" | "Queue"
      | "Stack" | "String" | "Buffer" | "Fun" | "Sys"); _ ] -> true
  | _ -> false

let is_false_construct e =
  match e.exp_desc with
  | Texp_construct (_, cd, _) -> cd.Types.cstr_name = "false"
  | _ -> false

(* Per-function summaries of local let-bound lambdas. *)
type lsum = { s_may_raise : bool; s_unlocks : S.t; s_closes : S.t }

let rec value_pat_idents (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (sub, id, _) -> id :: value_pat_idents sub
  | _ -> []

let binding_name vb =
  match value_pat_idents vb.vb_pat with id :: _ -> Ident.name id | [] -> "_"

let is_function e = match e.exp_desc with Texp_function _ -> true | _ -> false

(* [fun ?(x = d) -> body] is typed as [fun *opt* -> let x = match *opt*
   with Some x -> x | None -> d in body]; this is that [let]'s binding. *)
let is_default_binding vb =
  match vb.vb_expr.exp_desc with
  | Texp_match ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }, _, _) ->
    Ident.name id = "*opt*"
  | _ -> false

(* May evaluating [e] raise?  [locals] maps local lambda names to their
   summaries; a name being summarized is pre-seeded as non-raising so
   self-recursion does not poison its own summary. *)
let expr_may_raise ~locals e =
  let flag = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_assert (cond, _) when is_false_construct cond -> ()
          | Texp_assert _ -> flag := true
          | Texp_match (_, _, Partial) -> flag := true
          | Texp_function { partial = Partial; _ } -> flag := true
          | Texp_letop _ -> flag := true
          | Texp_apply (f, _) -> (
            match head_of f with
            | Some (p, comps) ->
              if is_raise_head comps then flag := true
              else if not (safe_head comps) then begin
                match p with
                | Path.Pident id -> (
                  match Hashtbl.find_opt locals (Ident.name id) with
                  | Some s -> if s.s_may_raise then flag := true
                  | None -> flag := true)
                | _ -> flag := true
              end
            | None -> flag := true)
          | _ -> ());
          match e.exp_desc with
          | Texp_assert (cond, _) when is_false_construct cond -> ()
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !flag

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Normalized spelling of a mutex expression, the lock identity used by
   the R6 state ([pool.mutex], [d.dq_mutex], a bare binding name...). *)
let rec lock_name e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> dotted (Callgraph.normalize p)
  | Texp_field (b, _, ld) -> lock_name b ^ "." ^ ld.Types.lbl_name
  | _ -> Printf.sprintf "<mutex@%d>" e.exp_loc.Location.loc_start.Lexing.pos_lnum

let iter_exprs ~f e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          f e;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e

let unlocks_in e =
  let acc = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
        match (head_of f, List.filter_map snd args) with
        | Some (_, [ "Mutex"; "unlock" ]), m :: _ -> acc := S.add (lock_name m) !acc
        | _ -> ())
      | _ -> ());
  !acc

let close_head = function
  | [ "Unix"; "close" ]
  | [ ("close_in" | "close_out" | "close_in_noerr" | "close_out_noerr") ]
  | [ "In_channel"; "close" ]
  | [ "Out_channel"; ("close" | "close_noerr") ] -> true
  | _ -> false

let closes_in e =
  let acc = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
        match (head_of f, List.filter_map snd args) with
        | Some (_, comps), { exp_desc = Texp_ident (Path.Pident id, _, _); _ } :: _
          when close_head comps ->
          acc := S.add (Ident.unique_name id) !acc
        | _ -> ())
      | _ -> ());
  !acc

(* Does this expression close things when called?  Either directly
   ([Unix.close fd]) or over a whole fd array ([Array.iter Unix.close
   fds], with or without a per-element wrapper lambda). *)
let closer_closes c =
  (match head_of c with Some (_, comps) -> close_head comps | None -> false)
  || (is_function c && not (S.is_empty (closes_in c)))

let array_iter_closes e =
  let acc = ref S.empty in
  iter_exprs e ~f:(fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
        match (head_of f, List.filter_map snd args) with
        | ( Some (_, [ "Array"; "iter" ]),
            [ closer; { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ] )
          when closer_closes closer ->
          acc := S.add (Ident.unique_name id) !acc
        | _ -> ())
      | _ -> ());
  !acc

let closes_full e = S.union (closes_in e) (array_iter_closes e)

let summarize ~locals name e =
  Hashtbl.replace locals name { s_may_raise = false; s_unlocks = S.empty; s_closes = S.empty };
  let s =
    {
      s_may_raise = expr_may_raise ~locals e;
      s_unlocks = unlocks_in e;
      s_closes = closes_full e;
    }
  in
  Hashtbl.replace locals name s

(* Does this application (callee plus any lambda arguments a combinator
   would run inline) potentially raise? *)
let app_may_raise ~locals p comps arg_exprs =
  let callee =
    if is_raise_head comps then true
    else if safe_head comps then false
    else
      match p with
      | Path.Pident id -> (
        match Hashtbl.find_opt locals (Ident.name id) with
        | Some s -> s.s_may_raise
        | None -> true)
      | _ -> true
  in
  callee
  || List.exists
       (fun a -> if is_function a then expr_may_raise ~locals a else false)
       arg_exprs

type actx = { file : string; mutable findings : Finding.t list }

let report ctx ~rule ~loc fmt =
  Printf.ksprintf
    (fun message ->
      ctx.findings <-
        Finding.make ~rule ~severity:Finding.Error ~file:ctx.file ~loc message :: ctx.findings)
    fmt

(* Analysis roots: every value binding introduced by a [Tstr_value] at
   any module depth (the parallel runtime keeps its deques in a nested
   [Steal] module). *)
let structure_roots structure =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun sub item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter (fun vb -> acc := vb :: !acc) vbs
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub item);
    }
  in
  it.structure it structure;
  List.rev !acc

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

(* ---------- R6: lock discipline ---------- *)

(* Symbolic walk of one function body.  The state is the set of lock
   names held on the current path; [None] means the path cannot fall
   through (raise or dead code).  [protected] carries locks that a
   surrounding [Fun.protect] finalizer is guaranteed to release. *)
let r6_check_binding ctx vb =
  let locals : (string, lsum) Hashtbl.t = Hashtbl.create 8 in
  let unprotected held protected = S.diff held protected in
  let held_str held = String.concat ", " (S.elements held) in
  let rec walk protected held e : S.t option =
    let loc = e.exp_loc in
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_extension_constructor _ ->
      Some held
    | Texp_unreachable -> None
    | Texp_let (_, vbs, body) ->
      let after =
        List.fold_left
          (fun acc vb ->
            match acc with
            | None -> None
            | Some h ->
              if is_function vb.vb_expr then begin
                summarize ~locals (binding_name vb) vb.vb_expr;
                analyze_lambda protected vb.vb_expr;
                Some h
              end
              else walk protected h vb.vb_expr)
          (Some held) vbs
      in
      (match after with None -> None | Some h -> walk protected h body)
    | Texp_function _ ->
      analyze_lambda protected e;
      Some held
    | Texp_apply (f, args) -> apply protected held loc f args
    | Texp_match (scrut, cases, partial) -> (
      match walk protected held scrut with
      | None -> None
      | Some h ->
        if partial = Partial && not (S.is_empty (unprotected h protected)) then
          report ctx ~rule:"R6" ~loc
            "partial match can raise Match_failure while %s is held; make the match total or \
             release first"
            (held_str (unprotected h protected));
        merge loc (List.map (fun c -> walk_case protected h c) cases))
    | Texp_try (body, handlers) ->
      let rb = walk protected held body in
      merge loc (rb :: List.map (fun c -> walk_case protected held c) handlers)
    | Texp_ifthenelse (c, t, eo) -> (
      match walk protected held c with
      | None -> None
      | Some h ->
        let rt = walk protected h t in
        let re = match eo with Some e -> walk protected h e | None -> Some h in
        merge loc [ rt; re ])
    | Texp_sequence (a, b) -> (
      match walk protected held a with None -> None | Some h -> walk protected h b)
    | Texp_while (c, body) ->
      (match walk protected held c with
      | None -> ()
      | Some h -> (
        match walk protected h body with
        | Some h' when not (S.equal h' h) ->
          report ctx ~rule:"R6" ~loc
            "lock state changes across a loop iteration (%s vs %s); each iteration must be \
             balanced"
            (held_str h) (held_str h')
        | _ -> ()));
      Some held
    | Texp_for (_, _, lo, hi, _, body) ->
      (match walk protected held lo with
      | None -> ()
      | Some h -> (
        match walk protected h hi with
        | None -> ()
        | Some h2 -> (
          match walk protected h2 body with
          | Some h' when not (S.equal h' h2) ->
            report ctx ~rule:"R6" ~loc
              "lock state changes across a loop iteration (%s vs %s); each iteration must be \
               balanced"
              (held_str h2) (held_str h')
          | _ -> ())));
      Some held
    | Texp_assert (cond, _) when is_false_construct cond -> None
    | Texp_assert (cond, _) ->
      if not (S.is_empty (unprotected held protected)) then
        report ctx ~rule:"R6" ~loc
          "assert can raise Assert_failure while %s is held; release first or use Fun.protect"
          (held_str (unprotected held protected));
      walk protected held cond
    | Texp_tuple es | Texp_array es -> walk_list protected held es
    | Texp_construct (_, _, es) -> walk_list protected held es
    | Texp_variant (_, eo) -> (
      match eo with Some e -> walk protected held e | None -> Some held)
    | Texp_record { fields; extended_expression; _ } ->
      let start =
        match extended_expression with
        | Some e -> walk protected held e
        | None -> Some held
      in
      Array.fold_left
        (fun acc (_, def) ->
          match (acc, def) with
          | None, _ -> None
          | Some h, Overridden (_, e) -> walk protected h e
          | Some h, Kept _ -> Some h)
        start fields
    | Texp_field (b, _, _) -> walk protected held b
    | Texp_setfield (b, _, _, v) -> (
      match walk protected held b with None -> None | Some h -> walk protected h v)
    | Texp_lazy _ -> Some held
    | Texp_letmodule (_, _, _, _, body) | Texp_letexception (_, body) | Texp_open (_, body) ->
      walk protected held body
    | Texp_letop { let_; ands; body; _ } ->
      let after =
        List.fold_left
          (fun acc bop ->
            match acc with None -> None | Some h -> walk protected h bop.bop_exp)
          (Some held) (let_ :: ands)
      in
      (match after with
      | None -> None
      | Some h ->
        if not (S.is_empty (unprotected h protected)) then
          report ctx ~rule:"R6" ~loc
            "binding operator can short-circuit while %s is held; release before the let* \
             chain or use Fun.protect"
            (held_str (unprotected h protected));
        walk protected h body.c_rhs)
    | _ -> Some held
  and walk_case : type k. S.t -> S.t -> k case -> S.t option =
   fun protected held c ->
    let after_guard =
      match c.c_guard with Some g -> walk protected held g | None -> Some held
    in
    (match after_guard with None -> None | Some h -> walk protected h c.c_rhs)
  and walk_list protected held es =
    List.fold_left
      (fun acc e -> match acc with None -> None | Some h -> walk protected h e)
      (Some held) es
  and merge loc results =
    match List.filter_map Fun.id results with
    | [] -> None
    | first :: rest ->
      if List.for_all (S.equal first) rest then Some first
      else begin
        let union = List.fold_left S.union first rest in
        let inter = List.fold_left S.inter first rest in
        report ctx ~rule:"R6" ~loc
          "%s held on some paths out of this branch but not others; every path must release \
           the same locks"
          (held_str (S.diff union inter));
        Some inter
      end
  and analyze_lambda protected e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      List.iter
        (fun c ->
          match walk protected S.empty c.c_rhs with
          | Some h when not (S.is_empty h) ->
            report ctx ~rule:"R6" ~loc:c.c_rhs.exp_loc
              "%s is still held when this function returns; release on every path or use \
               Fun.protect"
              (held_str h)
          | _ -> ())
        cases
    | _ -> ignore (walk protected S.empty e)
  and apply protected held loc f args =
    let arg_exprs = List.filter_map snd args in
    match head_of f with
    | None -> walk_list protected held (f :: arg_exprs)
    | Some (p, comps) -> (
      match (comps, arg_exprs) with
      | [ "Mutex"; "lock" ], m :: _ ->
        let name = lock_name m in
        if S.mem name held then begin
          report ctx ~rule:"R6" ~loc "double lock of %s: it is already held on this path" name;
          Some held
        end
        else begin
          if not (S.is_empty held) then
            report ctx ~rule:"R6" ~loc
              "acquiring %s while already holding %s%s; nested acquisition blocks other \
               domains and risks deadlock"
              name (held_str held)
              (if S.exists (fun h -> has_substring h "dq_") held then
                 " (a deque mutex: stealers spin on it)"
               else "");
          Some (S.add name held)
        end
      | [ "Mutex"; "unlock" ], m :: _ -> Some (S.remove (lock_name m) held)
      | [ "Condition"; "wait" ], [ _; m ] ->
        let name = lock_name m in
        if not (S.mem name held) then
          report ctx ~rule:"R6" ~loc
            "Condition.wait on %s which is not held on this path; wait must be called with \
             the mutex locked"
            name;
        let others = S.remove name held in
        if not (S.is_empty (unprotected others protected)) then
          report ctx ~rule:"R6" ~loc
            "Condition.wait parks the domain while still holding %s%s"
            (held_str (unprotected others protected))
            (if S.exists (fun h -> has_substring h "dq_") others then
               " (a deque mutex: stealers spin on it)"
             else "");
        Some held
      | [ "Condition"; _ ], _ -> walk_list protected held arg_exprs
      | [ "Fun"; "protect" ], _ -> fun_protect protected held loc args
      | comps, _ when is_raise_head comps ->
        (match walk_list protected held arg_exprs with
        | None -> ()
        | Some h ->
          if not (S.is_empty (unprotected h protected)) then
            report ctx ~rule:"R6" ~loc
              "raising while %s is held leaks the lock; release first or use Fun.protect"
              (held_str (unprotected h protected)));
        None
      | comps, _ ->
        List.iter
          (fun a -> if is_function a then analyze_lambda protected a)
          arg_exprs;
        let after =
          walk_list protected held (List.filter (fun a -> not (is_function a)) arg_exprs)
        in
        (match after with
        | None -> None
        | Some h ->
          let exposed = unprotected h protected in
          if not (S.is_empty exposed) then begin
            if blocking_head comps then
              report ctx ~rule:"R6" ~loc
                "blocking call %s while holding %s%s"
                (dotted comps) (held_str exposed)
                (if S.exists (fun l -> has_substring l "dq_") exposed then
                   " (a deque mutex: stealers spin on it)"
                 else "")
            else if app_may_raise ~locals p comps arg_exprs then
              report ctx ~rule:"R6" ~loc
                "call to %s can raise while %s is held, leaking the lock; release first or \
                 use Fun.protect"
                (dotted comps) (held_str exposed)
          end;
          Some h))
  and fun_protect protected held loc args =
    let finally =
      List.find_map
        (fun (l, a) ->
          match (l, a) with Asttypes.Labelled "finally", Some e -> Some e | _ -> None)
        args
    in
    let thunk =
      List.find_map
        (fun (l, a) -> match (l, a) with (Asttypes.Nolabel, Some e) -> Some e | _ -> None)
        args
    in
    let fin_unlocks =
      match finally with
      | Some ({ exp_desc = Texp_ident (Path.Pident id, _, _); _ }) -> (
        match Hashtbl.find_opt locals (Ident.name id) with
        | Some s -> s.s_unlocks
        | None -> S.empty)
      | Some fe -> unlocks_in fe
      | None -> S.empty
    in
    (match finally with
    | Some ({ exp_desc = Texp_function _; _ } as fe) -> analyze_lambda protected fe
    | _ -> ());
    match thunk with
    | Some { exp_desc = Texp_function { cases = [ c ]; _ }; _ } -> (
      match walk (S.union protected fin_unlocks) held c.c_rhs with
      | None -> None
      | Some h -> Some (S.diff h fin_unlocks))
    | _ ->
      (* Thunk is an ident or partial application: it may raise, but the
         finalizer's unlocks are covered. *)
      let exposed = S.diff (unprotected held protected) fin_unlocks in
      if not (S.is_empty exposed) then
        report ctx ~rule:"R6" ~loc
          "Fun.protect body can raise while %s is held and the finalizer does not release \
           it"
          (held_str exposed);
      Some (S.diff held fin_unlocks)
  in
  match walk S.empty S.empty vb.vb_expr with
  | Some h when not (S.is_empty h) ->
    report ctx ~rule:"R6" ~loc:vb.vb_loc
      "%s is still held when %s finishes evaluating; release on every path"
      (String.concat ", " (S.elements h))
      (binding_name vb)
  | _ -> ()

(* ---------- R7: resource lifetime ---------- *)

let open_kind comps =
  let opens s = String.length s >= 5 && String.sub s 0 5 = "open_" in
  match comps with
  | [ "Unix"; "openfile" ] -> Some "file descriptor"
  | [ "Unix"; "socket" ] -> Some "socket"
  | [ "In_channel"; s ] when opens s -> Some "input channel"
  | [ ("open_in" | "open_in_bin" | "open_in_gen") ] -> Some "input channel"
  | [ "Out_channel"; s ] when opens s -> Some "output channel"
  | [ ("open_out" | "open_out_bin" | "open_out_gen") ] -> Some "output channel"
  | _ -> None

(* [let fds = Array.init n (fun i -> ...Unix.openfile...)] - the
   campaign's fd-per-shard pattern.  The resource is the whole array;
   the open location reported is the openfile call inside the lambda. *)
let aggregate_open e =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
    match (head_of f, List.filter_map snd args) with
    | Some (_, [ "Array"; "init" ]), [ _; { exp_desc = Texp_function { cases = [ c ]; _ }; _ } ]
      ->
      let rec tail e =
        match e.exp_desc with
        | Texp_sequence (_, b) | Texp_let (_, _, b) | Texp_open (_, b) -> tail b
        | Texp_apply (f, _) -> (
          match head_of f with
          | Some (_, comps) when open_kind comps <> None -> Some e.exp_loc
          | _ -> None)
        | _ -> None
      in
      tail c.c_rhs
    | _ -> None)
  | _ -> None

let direct_open e =
  match e.exp_desc with
  | Texp_apply (f, args) when args <> [] -> (
    match head_of f with
    | Some (_, comps) -> (
      match open_kind comps with Some k -> Some (k, e.exp_loc) | None -> None)
    | None -> None)
  | _ -> None

(* [let fd, _addr = Unix.accept ...] - the accepted socket arrives as
   the first component of a pair, so the single-ident resource match
   misses it; the fd ident is the resource. *)
let accept_open e =
  match e.exp_desc with
  | Texp_apply (f, args) when args <> [] -> (
    match head_of f with
    | Some (_, [ "Unix"; "accept" ]) -> Some e.exp_loc
    | Some _ | None -> None)
  | _ -> None

let tuple_fd_pat (p : pattern) =
  match p.pat_desc with
  | Tpat_tuple ({ pat_desc = Tpat_var (id, _); _ } :: _) -> Some id
  | _ -> None

(* Track every let-bound open to a close on all paths.  The per-path
   state is the set of open resources; [escaped] resources (returned,
   stored in a structure, captured by a lambda handed to unknown code)
   leave the analysis silently - their lifetime belongs to the
   surrounding protocol.  A call that can raise while an unprotected
   resource is open records a leak against that resource; the report is
   anchored at the open so the fix site is obvious. *)
let r7_check_binding ctx vb =
  let locals : (string, lsum) Hashtbl.t = Hashtbl.create 8 in
  let res_info : (string, string * string * Location.t) Hashtbl.t = Hashtbl.create 8 in
  let escaped = ref S.empty in
  let leaks : (string, string * int) Hashtbl.t = Hashtbl.create 8 in
  let tracked id = Hashtbl.mem res_info (Ident.unique_name id) in
  let escape id = escaped := S.add (Ident.unique_name id) !escaped in
  let escape_scan e =
    iter_exprs e ~f:(fun e ->
        match e.exp_desc with
        | Texp_ident (Path.Pident id, _, _) when tracked id -> escape id
        | _ -> ())
  in
  let exposed open_ protected = S.diff (S.diff open_ protected) !escaped in
  let record_leaks set ~callee ~line =
    S.iter (fun r -> if not (Hashtbl.mem leaks r) then Hashtbl.add leaks r (callee, line)) set
  in
  let rec walk protected open_ e : S.t option =
    let loc = e.exp_loc in
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) when tracked id ->
      escape id;
      Some open_
    | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_extension_constructor _ ->
      Some open_
    | Texp_unreachable -> None
    | Texp_let (_, vbs, body) ->
      let introduced = ref [] in
      let after =
        List.fold_left
          (fun acc vb ->
            match acc with
            | None -> None
            | Some o ->
              if is_function vb.vb_expr then begin
                summarize ~locals (binding_name vb) vb.vb_expr;
                Some o
              end
              else begin
                let resource =
                  match value_pat_idents vb.vb_pat with
                  | [ id ] -> (
                    match direct_open vb.vb_expr with
                    | Some (kind, oloc) -> Some (id, kind, oloc)
                    | None -> (
                      match aggregate_open vb.vb_expr with
                      | Some oloc -> Some (id, "file descriptors", oloc)
                      | None -> None))
                  | _ -> (
                    match (tuple_fd_pat vb.vb_pat, accept_open vb.vb_expr) with
                    | Some id, Some oloc -> Some (id, "accepted socket", oloc)
                    | _ -> None)
                in
                let o' = walk protected o vb.vb_expr in
                match o' with
                | None -> None
                | Some o' -> (
                  match resource with
                  | Some (id, kind, oloc) ->
                    let r = Ident.unique_name id in
                    Hashtbl.replace res_info r (Ident.name id, kind, oloc);
                    introduced := r :: !introduced;
                    Some (S.add r o')
                  | None -> Some o')
              end)
          (Some open_) vbs
      in
      let result = match after with None -> None | Some o -> walk protected o body in
      List.iter
        (fun r ->
          if not (S.mem r !escaped) then
            match Hashtbl.find_opt res_info r with
            | None -> ()
            | Some (name, kind, oloc) -> (
              match Hashtbl.find_opt leaks r with
              | Some (callee, lline) ->
                report ctx ~rule:"R7" ~loc:oloc
                  "%s %s leaks if %s (line %d) raises before the close; close it from a \
                   Fun.protect finalizer or use a with_open_* combinator"
                  kind name callee lline
              | None -> (
                match result with
                | Some o when S.mem r o ->
                  report ctx ~rule:"R7" ~loc:oloc
                    "%s %s is not closed on every path to the end of its scope" kind name
                | _ -> ())))
        (List.rev !introduced);
      (match result with
      | None -> None
      | Some o -> Some (List.fold_left (fun o r -> S.remove r o) o !introduced))
    | Texp_function _ ->
      escape_scan e;
      Some open_
    | Texp_apply (f, args) -> apply protected open_ loc f args
    | Texp_match (scrut, cases, _) -> (
      match walk protected open_ scrut with
      | None -> None
      | Some o -> merge (List.map (fun c -> walk_case protected o c) cases))
    | Texp_try (body, handlers) ->
      let rb = walk protected open_ body in
      merge (rb :: List.map (fun c -> walk_case protected open_ c) handlers)
    | Texp_ifthenelse (c, t, eo) -> (
      match walk protected open_ c with
      | None -> None
      | Some o ->
        let rt = walk protected o t in
        let re = match eo with Some e -> walk protected o e | None -> Some o in
        merge [ rt; re ])
    | Texp_sequence (a, b) -> (
      match walk protected open_ a with None -> None | Some o -> walk protected o b)
    | Texp_while (c, body) ->
      (match walk protected open_ c with
      | None -> ()
      | Some o -> ignore (walk protected o body));
      Some open_
    | Texp_for (_, _, lo, hi, _, body) ->
      (match walk protected open_ lo with
      | None -> ()
      | Some o -> (
        match walk protected o hi with
        | None -> ()
        | Some o2 -> ignore (walk protected o2 body)));
      Some open_
    | Texp_assert (cond, _) when is_false_construct cond -> None
    | Texp_assert (cond, _) ->
      let ex = exposed open_ protected in
      if not (S.is_empty ex) then record_leaks ex ~callee:"assert" ~line:(line_of loc);
      walk protected open_ cond
    | Texp_tuple es | Texp_array es -> walk_list protected open_ es
    | Texp_construct (_, _, es) -> walk_list protected open_ es
    | Texp_variant (_, eo) -> (
      match eo with Some e -> walk protected open_ e | None -> Some open_)
    | Texp_record { fields; extended_expression; _ } ->
      let start =
        match extended_expression with
        | Some e -> walk protected open_ e
        | None -> Some open_
      in
      Array.fold_left
        (fun acc (_, def) ->
          match (acc, def) with
          | None, _ -> None
          | Some o, Overridden (_, e) -> walk protected o e
          | Some o, Kept _ -> Some o)
        start fields
    | Texp_field (b, _, _) -> walk protected open_ b
    | Texp_setfield (b, _, _, v) -> (
      match walk protected open_ b with None -> None | Some o -> walk protected o v)
    | Texp_lazy _ ->
      escape_scan e;
      Some open_
    | Texp_letmodule (_, _, _, _, body) | Texp_letexception (_, body) | Texp_open (_, body) ->
      walk protected open_ body
    | Texp_letop { let_; ands; body; _ } ->
      let after =
        List.fold_left
          (fun acc bop ->
            match acc with None -> None | Some o -> walk protected o bop.bop_exp)
          (Some open_) (let_ :: ands)
      in
      (match after with
      | None -> None
      | Some o ->
        let ex = exposed o protected in
        if not (S.is_empty ex) then
          record_leaks ex ~callee:"the binding operator (it can short-circuit)"
            ~line:(line_of loc);
        walk protected o body.c_rhs)
    | _ -> Some open_
  and walk_case : type k. S.t -> S.t -> k case -> S.t option =
   fun protected open_ c ->
    let after_guard =
      match c.c_guard with Some g -> walk protected open_ g | None -> Some open_
    in
    (match after_guard with None -> None | Some o -> walk protected o c.c_rhs)
  and walk_list protected open_ es =
    List.fold_left
      (fun acc e -> match acc with None -> None | Some o -> walk protected o e)
      (Some open_) es
  and merge results =
    match List.filter_map Fun.id results with
    | [] -> None
    | first :: rest -> Some (List.fold_left S.union first rest)
  and apply protected open_ loc f args =
    let arg_exprs = List.filter_map snd args in
    match head_of f with
    | None -> walk_list protected open_ (f :: arg_exprs)
    | Some (p, comps) -> (
      match (comps, arg_exprs) with
      | comps, { exp_desc = Texp_ident (Path.Pident id, _, _); _ } :: _
        when close_head comps && tracked id ->
        Some (S.remove (Ident.unique_name id) open_)
      | [ "Array"; "iter" ], [ closer; { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ]
        when tracked id && closer_closes closer ->
        Some (S.remove (Ident.unique_name id) open_)
      | [ "Fun"; "protect" ], _ -> fun_protect protected open_ loc args
      | comps, _ ->
        List.iter
          (fun a ->
            if is_function a then
              if inline_combinator comps then
                (* Descend through currying: [List.iteri (fun i x -> ...)]
                   nests a second Texp_function whose body must still run
                   inline, not count as a capture. *)
                let rec inline e =
                  match e.exp_desc with
                  | Texp_function { cases; _ } -> List.iter (fun c -> inline c.c_rhs) cases
                  | _ -> ignore (walk protected open_ e)
                in
                inline a
              else escape_scan a)
          arg_exprs;
        let after =
          walk_list protected open_
            (List.filter
               (fun a ->
                 (not (is_function a))
                 &&
                 match a.exp_desc with
                 | Texp_ident (Path.Pident id, _, _) -> not (tracked id)
                 | _ -> true)
               arg_exprs)
        in
        (match after with
        | None -> None
        | Some o ->
          let may_raise =
            (not (close_head comps)) && app_may_raise ~locals p comps arg_exprs
          in
          if may_raise then begin
            let ex = exposed o protected in
            if not (S.is_empty ex) then
              record_leaks ex ~callee:(dotted comps) ~line:(line_of loc)
          end;
          if is_raise_head comps then None else Some o))
  and fun_protect protected open_ loc args =
    let finally =
      List.find_map
        (fun (l, a) ->
          match (l, a) with Asttypes.Labelled "finally", Some e -> Some e | _ -> None)
        args
    in
    let thunk =
      List.find_map
        (fun (l, a) -> match (l, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
        args
    in
    let fin_closes =
      match finally with
      | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } -> (
        match Hashtbl.find_opt locals (Ident.name id) with
        | Some s -> s.s_closes
        | None -> S.empty)
      | Some fe -> closes_full fe
      | None -> S.empty
    in
    match thunk with
    | Some { exp_desc = Texp_function { cases = [ c ]; _ }; _ } -> (
      match walk (S.union protected fin_closes) open_ c.c_rhs with
      | None -> None
      | Some o -> Some (S.diff o fin_closes))
    | _ ->
      let ex = S.diff (exposed open_ protected) fin_closes in
      if not (S.is_empty ex) then
        record_leaks ex ~callee:"the Fun.protect body" ~line:(line_of loc);
      Some (S.diff open_ fin_closes)
  in
  let rec analyze_root e =
    match e.exp_desc with
    | Texp_function { cases; _ } -> List.iter (fun c -> analyze_root c.c_rhs) cases
    | Texp_let (_, [ d ], body) when is_default_binding d -> analyze_root body
    | _ -> ignore (walk S.empty S.empty e)
  in
  analyze_root vb.vb_expr

(* ---------- R1': interprocedural determinism taint ---------- *)

let sorting_head = function
  | [ ("List" | "Array"); ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] -> true
  | _ -> false

(* The same construct list as the syntactic R1 check, including its
   sorted-fold exemption: a Hashtbl.fold/iter in the arguments of a
   List/Array sort produces ordered output and is not a seed. *)
let seed_construct ~in_sort = function
  | [ "Unix"; "gettimeofday" ] -> Some "Unix.gettimeofday"
  | [ "Sys"; "time" ] -> Some "Sys.time"
  | [ "Random"; "self_init" ] -> Some "Random.self_init"
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] when not in_sort -> Some ("Hashtbl." ^ fn)
  | _ -> None

let iter_idents_with_sort ~f expr =
  let in_sort = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> f ~in_sort:!in_sort (Callgraph.normalize p) e.exp_loc
          | Texp_apply (fn, _)
            when (match head_of fn with Some (_, c) -> sorting_head c | None -> false) ->
            let saved = !in_sort in
            in_sort := true;
            Tast_iterator.default_iterator.expr sub e;
            in_sort := saved
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it expr

(* Call sites of other graph nodes inside a definition, as (target
   index, site) in source order. *)
let resolved_calls graph (d : Callgraph.def) =
  let acc = ref [] in
  iter_exprs d.Callgraph.def_expr ~f:(fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
        match Callgraph.resolve graph ~file:d.Callgraph.def_file p with
        | Some j -> acc := (j, e.exp_loc) :: !acc
        | None -> ())
      | _ -> ());
  List.rev !acc

type taint = {
  t_construct : string;
  t_seed_file : string;
  t_seed_line : int;
  t_path : string list;  (** def keys from this def down to the seed holder *)
  t_site : Location.t option;  (** [None] for the directly-seeded def itself *)
}

(* Seed at direct construct uses, propagate caller-ward over the call
   graph (breadth-first, so the reported chain is a shortest path), and
   report every transitively-tainted definition at its first tainted
   call site.  Seeds inside allowlisted files never start taint at all:
   the allowlist suppresses by root cause, so sanctioned wall-clock use
   (the search deadline) does not indict its callers.  Direct seeds in
   non-allowlisted files are left to the syntactic check, which already
   reports them; the typed layer only adds the Via findings. *)
let r1_taint r1_meta graph =
  let n = Array.length graph.Callgraph.defs in
  let findings = ref [] in
  let uses = ref [] in
  let seeds = Array.make n None in
  Array.iteri
    (fun i (d : Callgraph.def) ->
      match Rules.applicability r1_meta d.Callgraph.def_file with
      | Rules.Out_of_scope -> ()
      | app ->
        iter_idents_with_sort d.Callgraph.def_expr ~f:(fun ~in_sort comps loc ->
            match seed_construct ~in_sort comps with
            | None -> ()
            | Some c -> (
              match app with
              | Rules.Applies -> if seeds.(i) = None then seeds.(i) <- Some (c, loc)
              | Rules.Allowlisted prefix -> uses := ("R1", prefix) :: !uses
              | Rules.Out_of_scope -> ())))
    graph.Callgraph.defs;
  let callers = Array.make n [] in
  Array.iteri
    (fun i (d : Callgraph.def) ->
      List.iter
        (fun (j, site) -> if j <> i then callers.(j) <- (i, site) :: callers.(j))
        (resolved_calls graph d))
    graph.Callgraph.defs;
  Array.iteri (fun j l -> callers.(j) <- List.rev l) callers;
  let taint = Array.make n None in
  let q = Queue.create () in
  Array.iteri
    (fun i seed ->
      match seed with
      | None -> ()
      | Some (c, loc) ->
        taint.(i) <-
          Some
            {
              t_construct = c;
              t_seed_file = graph.Callgraph.defs.(i).Callgraph.def_file;
              t_seed_line = line_of loc;
              t_path = [ graph.Callgraph.defs.(i).Callgraph.def_key ];
              t_site = None;
            };
        Queue.add i q)
    seeds;
  while not (Queue.is_empty q) do
    let j = Queue.pop q in
    match taint.(j) with
    | None -> ()
    | Some t ->
      List.iter
        (fun (i, site) ->
          match taint.(i) with
          | Some _ -> ()
          | None ->
            taint.(i) <-
              Some
                {
                  t with
                  t_path = graph.Callgraph.defs.(i).Callgraph.def_key :: t.t_path;
                  t_site = Some site;
                };
            Queue.add i q)
        callers.(j)
  done;
  Array.iteri
    (fun i t ->
      match t with
      | Some { t_construct; t_seed_file; t_seed_line; t_path; t_site = Some site } -> (
        let d = graph.Callgraph.defs.(i) in
        match Rules.applicability r1_meta d.Callgraph.def_file with
        | Rules.Applies ->
          findings :=
            Finding.make ~rule:"R1" ~severity:Finding.Error ~file:d.Callgraph.def_file
              ~loc:site
              (Printf.sprintf
                 "call path %s reaches %s (seeded at %s:%d); deterministic library code must \
                  not depend on wall-clock or unordered iteration, however indirectly"
                 (String.concat " -> " t_path)
                 t_construct t_seed_file t_seed_line)
            :: !findings
        | Rules.Allowlisted prefix -> uses := ("R1", prefix) :: !uses
        | Rules.Out_of_scope -> ())
      | _ -> ())
    taint;
  (!findings, !uses)

(* ---------- entry point ---------- *)

let analyze (typed : Typed_load.typed_file list) : report =
  let graph = Callgraph.build typed in
  let taint_findings, taint_uses =
    match Rules.find "R1" with
    | Some r1 -> r1_taint r1 graph
    | None -> ([], [])
  in
  let findings = ref taint_findings in
  let uses = ref taint_uses in
  let run_rule rule_id check { Typed_load.file; structure } =
    match Rules.find rule_id with
    | None -> ()
    | Some meta -> (
      match Rules.applicability meta file with
      | Rules.Out_of_scope -> ()
      | app ->
        let ctx = { file; findings = [] } in
        List.iter (fun vb -> check ctx vb) (structure_roots structure);
        if ctx.findings <> [] then (
          match app with
          | Rules.Applies -> findings := ctx.findings @ !findings
          | Rules.Allowlisted prefix -> uses := (rule_id, prefix) :: !uses
          | Rules.Out_of_scope -> ()))
  in
  List.iter
    (fun tf ->
      run_rule "R6" r6_check_binding tf;
      run_rule "R7" r7_check_binding tf)
    typed;
  {
    findings = List.sort_uniq Finding.compare !findings;
    allow_uses = List.sort_uniq compare !uses;
  }
