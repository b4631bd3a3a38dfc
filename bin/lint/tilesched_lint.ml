(* tilesched_lint: the project-invariant static analyzer's front end.

   Scans the lib/, bin/ and test/ subtrees of a project root with
   [Lint.run] and prints the report as human text, JSON or SARIF.  Exits
   1 if any finding survives the baseline.  (Why this is not a tilesched
   subcommand: see ./dune.) *)

open Cmdliner

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json); ("sarif", `Sarif) ]) `Human
    & info [ "f"; "format" ] ~docv:"FMT" ~doc:"Report format: human, json, or sarif.")

let baseline_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Suppress findings listed in FILE (one per line, \
           RULE<TAB>FILE<TAB>MESSAGE; '#' comments). Suppressed counts still appear in the \
           summary.")

let root_arg =
  Arg.(
    value & opt dir "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Project root to scan (its lib/, bin/, and test/ subtrees).")

let rules_arg =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule book (ids, scopes, allowlists) and exit.")

let allow_stale_arg =
  Arg.(
    value & flag
    & info [ "allow-stale" ]
        ~doc:
          "Do not fail when a baseline entry matches no current finding (B0). Use while \
           burning a baseline down incrementally.")

let run format baseline allow_stale root rules =
  if rules then begin
    print_endline (Lint.Rules.describe ());
    Ok ()
  end
  else
    let ( let* ) = Result.bind in
    let* baseline =
      match baseline with
      | None -> Ok Lint.Baseline.empty
      | Some path ->
        Result.map_error (fun msg -> `Msg ("cannot load baseline: " ^ msg))
          (Lint.Baseline.load path)
    in
    let report = Lint.run ~baseline ~allow_stale ~root () in
    print_string
      (match format with
      | `Human -> Lint.render_human report
      | `Json -> Lint.render_json report
      | `Sarif -> Lint.render_sarif report);
    if report.Lint.findings = [] then Ok () else Stdlib.exit 1

let () =
  let doc =
    "Statically check the source tree against the project invariants: syntactic rules R1-R5 \
     plus the typedtree dataflow layer - interprocedural determinism taint (R1'), lock \
     discipline (R6), and resource lifetime (R7). Unused allowlist entries (A0) and stale \
     baseline entries (B0) are findings too. Exits 1 if any finding survives the baseline."
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "tilesched-lint" ~version:"1.0.0" ~doc)
          Term.(
            term_result
              (const run $ format_arg $ baseline_arg $ allow_stale_arg $ root_arg $ rules_arg))))
