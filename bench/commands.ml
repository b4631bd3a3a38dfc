(* The two commands of bench/main.exe besides the experiment sections:
   [suite] runs one benchmark suite of [Microbench] (or validates an
   artifact against the suite it names) and [loadgen] drives the
   schedule server.  They live here rather than in bin/tilesched.exe so
   that the daemon's binary links neither Bechamel nor the load
   generator. *)

open Cmdliner
open Lattice

(* Exit status when an artifact, or a fresh run's rows, fails its
   suite's checks; cmdliner keeps 124 for a bad command line. *)
let check_failed = 1

let jobs_term =
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | Some _ -> Error (`Msg "must be at least 1")
      | None -> Error (`Msg "expected an integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the search engines (1 = sequential).")
  in
  Term.(const Parallel.set_default_jobs $ jobs)

let suite =
  let suite_arg =
    Arg.(
      value
      & pos 0
          (some (enum (List.map (fun (s : Microbench.suite) -> (s.name, s)) Microbench.suites)))
          None
      & info [] ~docv:"SUITE"
          ~doc:
            ("The suite to run (default core): "
            ^ String.concat "; "
                (List.map
                   (fun (s : Microbench.suite) -> Printf.sprintf "$(b,%s): %s" s.name s.doc)
                   Microbench.suites)
            ^ "."))
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the results as a JSON artifact {suite, rows: [{name, value, unit}]} to PATH.")
  in
  let validate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "validate" ] ~docv:"PATH"
          ~doc:
            "Do not benchmark; instead check the artifact at PATH against the suite it names \
             (schema, required rows and units, gates) and exit.")
  in
  let quota_arg =
    Arg.(
      value & opt float 0.5
      & info [ "quota" ] ~docv:"SECS"
          ~doc:"Bechamel time budget per benchmark, in seconds. Small values make a fast smoke run.")
  in
  let fail code msg =
    Printf.eprintf "bench: %s\n%!" msg;
    `Ok code
  in
  let run () suite json validate quota =
    match (validate, suite) with
    | Some _, Some _ -> `Error (false, "--validate reads the suite from the artifact; drop SUITE")
    | Some path, None -> (
      match Microbench.validate_json (In_channel.with_open_bin path In_channel.input_all) with
      | Ok (suite, rows) ->
        Printf.printf "%s: suite %s, %d rows, schema and gates ok\n" path suite.name
          (List.length rows);
        `Ok Cmd.Exit.ok
      | Error msg -> fail check_failed (Printf.sprintf "%s: %s" path msg))
    | None, _ when quota <= 0.0 -> `Error (false, "quota must be positive")
    | None, suite -> (
      let suite = Option.value suite ~default:(List.hd Microbench.suites) in
      match suite.run ~quota with
      | exception Failure msg -> fail Cmd.Exit.some_error msg
      | rows -> (
        Printf.printf "%-42s %16s %s\n" "benchmark" "value" "unit";
        List.iter
          (fun (r : Microbench.row) ->
            Printf.printf "%-42s %16.1f %s\n" r.name r.value (Microbench.unit_to_string r.unit))
          rows;
        match json with
        | None -> `Ok Cmd.Exit.ok
        | Some path -> (
          let out = Microbench.to_json suite rows in
          match Microbench.validate_json out with
          | Error msg -> fail check_failed ("refusing to write invalid artifact: " ^ msg)
          | Ok _ ->
            Out_channel.with_open_bin path (fun oc -> output_string oc out);
            Printf.printf "\n[wrote %s: %d rows, validated]\n" path (List.length rows);
            `Ok Cmd.Exit.ok)))
  in
  Cmd.v
    (Cmd.info "suite"
       ~exits:
         (Cmd.Exit.info check_failed
            ~doc:
              "when the artifact, or a fresh run's rows with $(b,--json), fails the suite's \
               checks: schema, a required row or its unit, or a gate."
         :: Cmd.Exit.defaults)
       ~doc:
         "Run one benchmark suite and optionally write its JSON artifact, or validate an \
          artifact (the committed BENCH_*.json files) against the suite it names.  The \
          $(b,server) suite spawns the daemon from bin/tilesched.exe in the same build tree.")
    Term.(ret (const run $ jobs_term $ suite_arg $ json_arg $ validate_arg $ quota_arg))

let loadgen =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "socket" ] ~docv:"PATH"
          ~doc:"Drive the daemon listening on this Unix-domain socket instead of an in-process \
                engine.")
  in
  let requests =
    Arg.(value & opt int 10_000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Completions to drive.")
  in
  let clients =
    Arg.(value & opt int 8 & info [ "c"; "clients" ] ~docv:"N" ~doc:"Closed-loop clients.")
  in
  let zipf =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Tile popularity skew exponent (0 = uniform).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload RNG seed.") in
  let tiles =
    Arg.(
      value
      & opt (some string) None
      & info [ "tiles" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated named tiles, most popular first (e.g. cheb1,tet-S,tet-Z). \
             Default: a 16-tile catalogue with congruent pairs.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Finish by asking the server to shut down (socket mode).")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Speak the binary wire protocol instead of text lines (socket mode).")
  in
  let connections =
    Arg.(
      value
      & opt (some int) None
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Open-loop mode: hold N concurrent connections against the daemon, one request in \
             flight each, instead of the closed-loop batch driver.  Requires --socket.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Open-loop mode: aggregate target requests/second (0 = unpaced).")
  in
  let ops =
    Arg.(
      value
      & opt (enum [ ("mixed", `Mixed); ("search", `Search_only) ]) `Mixed
      & info [ "ops" ] ~docv:"MIX"
          ~doc:
            "Operation mix: 'mixed' (80/15/5 slot/schedule/tile-search) or 'search' \
             (tile-search only, the zero-copy splice workload).")
  in
  let cache =
    Arg.(
      value & opt int 256
      & info [ "cache" ] ~docv:"N" ~doc:"In-process mode: engine cache capacity.")
  in
  let queue =
    Arg.(
      value & opt int 512 & info [ "queue" ] ~docv:"N" ~doc:"In-process mode: admission bound.")
  in
  let run () socket requests clients zipf seed tiles shutdown binary connections rate ops
      cache queue =
    let ( let* ) = Result.bind in
    let* tiles =
      match tiles with
      | None -> Ok Server.Loadgen.default_tiles
      | Some names ->
        List.fold_right
          (fun name acc ->
            let* acc = acc in
            let* tile = Result.map_error (fun e -> `Msg e) (Prototile.of_name name) in
            Ok ((name, tile) :: acc))
          (String.split_on_char ',' names) (Ok [])
    in
    match connections with
    | Some connections -> (
      match socket with
      | None -> Error (`Msg "--connections (open-loop mode) needs --socket")
      | Some path -> (
        let open_config =
          { Server.Loadgen.connections; rate; total = requests; binary; zipf;
            seed = Int64.of_int seed; tiles; ops; send_shutdown = shutdown }
        in
        match Server.Loadgen.run_open ~path open_config with
        | report ->
          Format.printf "%a@." Server.Loadgen.pp_open_report report;
          Ok Cmd.Exit.ok
        | exception Unix.Unix_error (err, _, _) ->
          Error (`Msg (Printf.sprintf "cannot drive %s: %s" path (Unix.error_message err)))))
    | None ->
      let config =
        { Server.Loadgen.requests; clients; zipf; seed = Int64.of_int seed; tiles; ops;
          send_shutdown = shutdown }
      in
      let* report =
        match socket with
        | None ->
          if shutdown then Error (`Msg "--shutdown needs --socket")
          else if binary then Error (`Msg "--binary needs --socket")
          else begin
            let engine = Server.create ~cache_capacity:cache ~queue_bound:queue () in
            Ok (Server.Loadgen.run engine config)
          end
        | Some path -> (
          match
            if binary then
              Server.Frontend.with_binary_connection ~path (fun send ->
                  Server.Loadgen.run_binary ~send config)
            else
              Server.Frontend.with_connection ~path (fun send ->
                  Server.Loadgen.run_with ~send config)
          with
          | report -> Ok report
          | exception Unix.Unix_error (err, _, _) ->
            Error (`Msg (Printf.sprintf "cannot drive %s: %s" path (Unix.error_message err))))
      in
      (* Deterministic summary on stdout (diffable across -j and runs);
         wall-clock timing on stderr. *)
      Format.printf "%a@." Server.Loadgen.pp_report report;
      Format.eprintf "%a@." Server.Loadgen.pp_timing report;
      Ok Cmd.Exit.ok
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive the schedule server with a Zipf-skewed workload - closed-loop batches by \
          default, open-loop with --connections/--rate - over either wire dialect, and \
          report throughput, latency percentiles, cache hit rate, and backpressure behavior.")
    Term.(
      term_result
        (const run $ jobs_term $ socket $ requests $ clients $ zipf $ seed $ tiles $ shutdown
       $ binary $ connections $ rate $ ops $ cache $ queue))
