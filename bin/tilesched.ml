(* tilesched: command-line front end and daemon.

   Subcommands: figure, exact, schedule, color, simulate, export, sync,
   certify, serve, corpus, lifetime.  The benchmark suites and the load
   generator are bench/main.exe and the linter is
   bin/lint/tilesched_lint.exe, so the daemon's binary links neither
   Bechamel nor compiler-libs.

   Prototiles are named on the command line ([Prototile.of_name]):
     cheb<r>, euclid<r>, manhattan<r>, rect<W>x<H>, dir,
     tet-<I|O|T|S|Z|L|J>, pent-<F|I|L|N|P|T|U|V|W|X|Y|Z>,
     or cells:<x,y;x,y;...> (must include 0,0). *)

open Cmdliner
open Lattice

(* ---------- exit statuses ---------- *)

(* A command that ran and failed - a non-exact tile, a missing or
   refused corpus or store - exits 1; cmdliner keeps 124 for a bad
   command line, so a script can tell a bad flag from a bad file. *)
let runtime_failure = 1

let exits =
  Cmd.Exit.info runtime_failure
    ~doc:"when the command fails at run time: a non-exact tile, a missing or refused file."
  :: Cmd.Exit.defaults

(* The exit status of a command's result, its failure printed on stderr. *)
let status term =
  Term.(
    const (function
      | Ok () -> Cmd.Exit.ok
      | Error (`Msg msg) ->
        Printf.eprintf "tilesched: %s\n%!" msg;
        runtime_failure)
    $ term)

(* An integer option below [min] is a bad command line. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "must be at least %d" min))
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---------- prototile parsing ---------- *)

let tile_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Prototile.of_name s)),
      fun fmt p -> Format.fprintf fmt "%d-cell tile" (Prototile.size p) )

let tile_arg =
  Arg.(
    required
    & opt (some tile_conv) None
    & info [ "t"; "tile" ] ~docv:"TILE" ~doc:"Interference prototile (e.g. cheb1, tet-S, rect2x4).")

(* Every subcommand that searches or simulates takes [-j]: it sizes the
   process-wide domain pool that the search engines draw from.  Results
   are bit-identical at every value (see DESIGN.md, "Parallel engine"). *)
let jobs_term =
  let jobs =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the search and simulation engines (1 = sequential). Output is \
             bit-identical at every value.")
  in
  Term.(const Parallel.set_default_jobs $ jobs)

let width_arg =
  Arg.(value & opt int 12 & info [ "w"; "width" ] ~docv:"W" ~doc:"Window/field width.")

let height_arg =
  Arg.(value & opt int 9 & info [ "h"; "height" ] ~docv:"H" ~doc:"Window/field height.")

(* ---------- figure ---------- *)

let figure_cmd =
  let num =
    let figures =
      Render.Figures.
        [ ("1", fig1_lattices); ("2", fig2_neighborhoods); ("3", fig3_schedule);
          ("4", fig4_voronoi); ("5", fig5_nonrespectable) ]
    in
    Arg.(required & pos 0 (some (enum figures)) None & info [] ~docv:"N" ~doc:"Figure number, 1-5.")
  in
  let dir =
    Arg.(value & opt string "out" & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory for SVG.")
  in
  let run fig dir =
    let f = fig () in
    print_endline f.Render.Figures.ascii;
    Render.Figures.save_all ~dir [ f ];
    Printf.printf "\n[saved %s/%s.svg]\n" dir f.Render.Figures.name;
    Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "figure" ~doc:"Regenerate a figure of the paper.")
    (status Term.(const run $ num $ dir))

(* ---------- exact / schedule ---------- *)

let reason = function
  | `Hole -> "the polyomino has a hole, which no translate can fill"
  | `No_bn_factorization -> "its boundary word has no Beauquier-Nivat factorization"

let not_found = "no tiling found with a period of index up to 4|N| (a bounded search, not a proof)"

(* The tiling behind every command that builds a schedule: [decide]'s,
   or an error saying why there is none. *)
let tiling_of tile =
  match Tiling.Search.decide tile with
  | Tiling.Search.Exact t -> Ok t
  | Tiling.Search.Non_exact r -> Error (`Msg ("prototile is not exact: " ^ reason r))
  | Tiling.Search.Not_found -> Error (`Msg not_found)

let exact_cmd =
  let run () tile =
    Printf.printf "prototile (m = %d):\n%s\n\n" (Prototile.size tile) (Render.Ascii.prototile tile);
    (match Tiling.Search.decide tile with
    | Tiling.Search.Exact t -> Format.printf "EXACT@.%a@." Tiling.Single.pp t
    | Tiling.Search.Non_exact r -> Printf.printf "NOT exact: %s\n" (reason r)
    | Tiling.Search.Not_found -> Printf.printf "UNKNOWN: %s\n" not_found);
    Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "exact" ~doc:"Decide whether a prototile tiles the lattice (question Q1).")
    (status Term.(const run $ jobs_term $ tile_arg))

let schedule_cmd =
  let run () tile width height =
    match tiling_of tile with
    | Error _ as e -> e
    | Ok tiling ->
      let sched = Core.Schedule.of_tiling tiling in
      Printf.printf "prototile (m = %d):\n%s\n\n" (Prototile.size tile)
        (Render.Ascii.prototile tile);
      Format.printf "%a@.@." Tiling.Single.pp tiling;
      Printf.printf "schedule (%d slots):\n%s\n\n" (Core.Schedule.num_slots sched)
        (Render.Ascii.schedule sched ~width ~height);
      let ok = Core.Collision.is_collision_free_theorem1 tiling sched in
      Printf.printf "verified collision-free: %b; optimal (lower bound %d)\n" ok
        (Core.Optimality.lower_bound tile);
      Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "schedule" ~doc:"Construct and verify an optimal schedule (Theorem 1).")
    Term.(status (const run $ jobs_term $ tile_arg $ width_arg $ height_arg))

(* ---------- color ---------- *)

let color_cmd =
  let run tile width height =
    let g, _ = Coloring.Graph.lattice_window ~prototile:tile ~width ~height in
    let rng = Prng.Xoshiro.create 7L in
    Printf.printf "%d sensors, %d conflict edges\n\n" (Coloring.Graph.size g)
      (Coloring.Graph.num_edges g);
    Printf.printf "  naive TDMA       : %d slots\n" (Coloring.Baseline.tdma_slots g);
    Printf.printf "  greedy (natural) : %d\n" (Coloring.Greedy.colors_used g `Natural);
    Printf.printf "  greedy (random)  : %d\n" (Coloring.Greedy.colors_used g (`Random rng));
    Printf.printf "  Welsh-Powell     : %d\n" (Coloring.Greedy.colors_used g `LargestFirst);
    Printf.printf "  DSATUR           : %d\n" (Coloring.Dsatur.colors_used g);
    Printf.printf "  annealing        : %d\n" (Coloring.Annealing.min_colors rng g);
    Printf.printf "  tabu search      : %d\n" (Coloring.Tabucol.min_colors rng g);
    Printf.printf "  lattice tiling   : %d (optimal for the infinite lattice)\n"
      (Coloring.Baseline.tiling_slot_count tile);
    Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "color" ~doc:"Compare against distance-2 coloring baselines.")
    (status Term.(const run $ tile_arg $ width_arg $ height_arg))

(* ---------- simulate ---------- *)

let simulate_cmd =
  let mac_arg =
    Arg.(
      value
      & opt (enum [ ("lattice", `Lattice); ("tdma", `Tdma); ("aloha", `Aloha); ("csma", `Csma) ])
          `Lattice
      & info [ "m"; "mac" ] ~docv:"MAC" ~doc:"MAC protocol: lattice, tdma, aloha, csma.")
  in
  let duration_arg =
    Arg.(value & opt int 4000 & info [ "duration" ] ~docv:"SLOTS" ~doc:"Simulated slots.")
  in
  let interval_arg =
    Arg.(value & opt int 50 & info [ "interval" ] ~docv:"SLOTS" ~doc:"Packet every N slots per node.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let timeline_arg =
    Arg.(
      value & opt int 0
      & info [ "timeline" ] ~docv:"N"
          ~doc:"Also print per-slot timelines of the first N nodes (80 slots).")
  in
  let runs_arg =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "runs" ] ~docv:"N"
          ~doc:
            "Sweep N seeds (SEED, SEED+1, ...) and report each run plus aggregate statistics; \
             the sweep is spread over the -j domains.")
  in
  let run () tile width height mac duration interval seed timeline runs =
    let mac_factory =
      match mac with
      | `Lattice ->
        Result.map (fun t -> Netsim.Mac.lattice_tdma (Core.Schedule.of_tiling t)) (tiling_of tile)
      | `Tdma -> Ok (Netsim.Mac.full_tdma ~num_nodes:(width * height))
      | `Aloha -> Ok (Netsim.Mac.slotted_aloha ~p:0.2 ~max_backoff_exp:6)
      | `Csma -> Ok (Netsim.Mac.p_csma ~p:0.3)
    in
    Result.map
      (fun mac ->
        let cfg =
          { (Netsim.Sim.default_config ~mac) with width; height; prototile = tile; duration;
            workload = Netsim.Workload.Periodic { interval }; seed = Int64.of_int seed }
        in
        if runs = 1 then begin
          let tr = if timeline > 0 then Some (Netsim.Trace.create ()) else None in
          let r = Netsim.Sim.run { cfg with trace = tr } in
          Format.printf "%a@." Netsim.Sim.pp_result r;
          match tr with
          | None -> ()
          | Some tr ->
            Printf.printf
              "\ntimelines ('a' arrival, 'D' delivered, 'C' collided, '.' idle), slots 0-79:\n";
            for node = 0 to min timeline (width * height) - 1 do
              Printf.printf "node %3d  %s\n" node
                (Netsim.Trace.timeline tr ~node ~horizon:(min 80 duration))
            done
        end
        else begin
          if timeline > 0 then
            prerr_endline "note: --timeline applies only to single runs; ignored with --runs";
          let seeds = List.init runs (fun i -> Int64.add (Int64.of_int seed) (Int64.of_int i)) in
          let results = Netsim.Sim.run_sweep cfg ~seeds in
          List.iteri
            (fun i r ->
              Printf.printf "seed %-6Ld " (List.nth seeds i);
              Format.printf "%a@." Netsim.Sim.pp_result r)
            results;
          let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 results /. float_of_int runs in
          Printf.printf
            "\naggregate over %d seeds: delivery %.1f%%  collisions %.1f  mean latency %.1f\n"
            runs
            (100.0 *. mean (fun r -> r.Netsim.Sim.stats.Netsim.Stats.delivery_ratio))
            (mean (fun r -> float_of_int r.Netsim.Sim.stats.Netsim.Stats.collisions))
            (mean (fun r -> r.Netsim.Sim.stats.Netsim.Stats.mean_latency))
        end)
      mac_factory
  in
  Cmd.v
    (Cmd.info ~exits "simulate" ~doc:"Run the slotted wireless simulator.")
    Term.(
      status
        (const run $ jobs_term $ tile_arg $ width_arg $ height_arg $ mac_arg $ duration_arg
       $ interval_arg $ seed_arg $ timeline_arg $ runs_arg))

(* ---------- certify ---------- *)

let certify_cmd =
  let run () tile =
    match tiling_of tile with
    | Error _ as e -> e
    | Ok tiling ->
      let cert = Core.Certificate.build tiling in
      print_endline (Core.Certificate.to_string cert);
      (match Core.Certificate.check cert with
      | Ok () ->
        Printf.eprintf "certificate verified: %d slots, collision-free, optimal\n"
          (Core.Schedule.num_slots cert.Core.Certificate.schedule);
        Ok ()
      | Error f -> Error (`Msg (Format.asprintf "%a" Core.Certificate.pp_failure f)))
  in
  Cmd.v
    (Cmd.info ~exits "certify"
       ~doc:"Emit a machine-checkable optimality certificate for a prototile's schedule.")
    Term.(status (const run $ jobs_term $ tile_arg))

(* ---------- export ---------- *)

let export_cmd =
  let fmt_arg =
    Arg.(
      value
      & opt (enum [ ("record", `Record); ("csv", `Csv) ]) `Record
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:"Output format: record (parsable schedule line) or csv (per-sensor slots).")
  in
  let run () tile width height fmt =
    match tiling_of tile with
    | Error _ as e -> e
    | Ok tiling ->
      let sched = Core.Schedule.of_tiling tiling in
      (match fmt with
      | `Record ->
        print_endline (Core.Codec.tiling_to_string tiling);
        print_endline (Core.Codec.schedule_to_string sched)
      | `Csv ->
        let domain =
          List.concat_map
            (fun x -> List.init height (fun y -> Zgeom.Vec.make2 x y))
            (List.init width Fun.id)
        in
        print_string (Core.Codec.csv_assignment sched ~domain));
      Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "export" ~doc:"Serialize a schedule for deployment tooling.")
    Term.(status (const run $ jobs_term $ tile_arg $ width_arg $ height_arg $ fmt_arg))

(* ---------- sync ---------- *)

let sync_cmd =
  let resync_arg =
    Arg.(value & opt int 1000 & info [ "resync" ] ~docv:"SLOTS" ~doc:"Resync period (0 = never).")
  in
  let drift_arg =
    Arg.(value & opt float 500.0 & info [ "drift" ] ~docv:"PPM" ~doc:"Clock drift bound (ppm).")
  in
  let duration_arg =
    Arg.(value & opt int 20000 & info [ "duration" ] ~docv:"SLOTS" ~doc:"Simulated slots.")
  in
  let run () tile width height resync drift duration =
    match tiling_of tile with
    | Error _ as e -> e
    | Ok tiling ->
      let schedule = Core.Schedule.of_tiling tiling in
      let r =
        Netsim.Timesync.run
          { width; height; prototile = tile; schedule;
            root = Zgeom.Vec.make2 (width / 2) (height / 2); resync_period = resync;
            drift_ppm = drift; hop_jitter = 0.02; duration; seed = 9L }
      in
      Printf.printf "sync latency       : %d slots\n" r.Netsim.Timesync.sync_latency;
      Printf.printf "max clock error    : %.3f slots\n" r.Netsim.Timesync.max_clock_error;
      Printf.printf "mean clock error   : %.3f slots\n" r.Netsim.Timesync.mean_clock_error;
      Printf.printf "schedule violations: %d\n" r.Netsim.Timesync.tdma_violations;
      Printf.printf "beacons sent       : %d\n" r.Netsim.Timesync.beacons_sent;
      Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "sync" ~doc:"Simulate beacon-flooding time synchronization.")
    Term.(
      status
        (const run $ jobs_term $ tile_arg $ width_arg $ height_arg $ resync_arg $ drift_arg
       $ duration_arg))

(* ---------- serve ---------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path: listen here instead of stdio.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"PATH"
        ~doc:
          "Persistent certificate store (an append-only verdict segment, created if absent; a \
           file that is not one is refused): probed on cache misses, and completed searches \
           are written through.")

let report_recovery store =
  let r = Store.recovery store in
  if r.Store.dropped > 0 || r.Store.truncated_bytes > 0 then
    Printf.eprintf
      "tilesched: store %s: recovered %d live entries (%d records; %d dropped by validation, \
       %d corrupt tail bytes truncated)\n\
       %!"
      (Store.path store) r.Store.live r.Store.records r.Store.dropped r.Store.truncated_bytes
  else
    Printf.eprintf "tilesched: store %s: %d live entries\n%!" (Store.path store) r.Store.live

let serve_cmd =
  let cache =
    Arg.(value & opt (int_at_least 1) 256 & info [ "cache" ] ~docv:"N" ~doc:"Tiling cache capacity (LRU).")
  in
  let queue =
    Arg.(
      value & opt (int_at_least 1) 512
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission bound per batch; excess requests get an explicit overloaded reply.")
  in
  let deadline =
    Arg.(
      value & opt float 0.0
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-search wall-clock budget (0 = unbounded). Expired searches answer \
                deadline, are not cached, and may succeed on retry.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Sealed verdict corpus (built with 'tilesched corpus build'). Mapped read-only and \
             probed before every other tier; hits answer src=corpus without searching.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 0.0
      & info [ "idle-timeout" ] ~docv:"SECS"
          ~doc:
            "Socket mode: close connections with no inbound traffic for this long (0 = never, \
             the default).")
  in
  let run () socket cache queue deadline store_path corpus_path idle_timeout =
    let ( let* ) = Result.bind in
    let deadline = if deadline > 0.0 then Some deadline else None in
    let* corpus =
      match corpus_path with
      | None -> Ok None
      | Some dir -> (
        match Corpus.Snapshot.open_ dir with
        | Ok snap ->
          Printf.eprintf "tilesched serve: corpus %s: %d precomputed verdicts\n%!" dir
            (Corpus.Snapshot.length snap);
          Ok (Some snap)
        | Error msg -> Error (`Msg msg))
    in
    let* store =
      match store_path with
      | None -> Ok None
      | Some path -> ( try Ok (Some (Store.open_ path)) with Sys_error msg -> Error (`Msg msg))
    in
    Option.iter report_recovery store;
    let engine =
      Server.create ~cache_capacity:cache ~queue_bound:queue ?deadline ?store ?corpus ()
    in
    (match socket with
    | None -> Server.Frontend.serve_stdio engine
    | Some path ->
      Printf.eprintf "tilesched serve: listening on %s\n%!" path;
      Server.Frontend.serve_unix ~idle_timeout engine ~path);
    Option.iter Store.close store;
    Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "serve"
       ~doc:
         "Run the schedule server: one request line in, one reply line out (see README for \
          the wire protocol). Congruent tiles share one cached search result; with --store, \
          settled results also survive restarts; with --corpus, precomputed verdicts are \
          served from an mmap snapshot without deserialization.")
    Term.(
      status
        (const run $ jobs_term $ socket_arg $ cache $ queue $ deadline $ store_arg $ corpus
       $ idle_timeout))

(* ---------- corpus ---------- *)

let corpus_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let max_area =
    Arg.(
      value & opt (int_at_least 1) 10
      & info [ "n"; "max-area" ] ~docv:"N"
          ~doc:"Every free polyomino of area at most N (OEIS A000105 classes).")
  in
  let build_cmd =
    let shards =
      Arg.(
        value & opt int 8
        & info [ "shards" ] ~docv:"K"
            ~doc:"Segment shards (must match when resuming an existing corpus).")
    in
    let kill_at =
      Arg.(
        value & opt int 0
        & info [ "kill-at" ] ~docv:"BAND"
            ~doc:
              "Test hook: kill -9 this process halfway through band BAND's appends, leaving a \
               torn corpus for the crash-recovery checks (0 = disabled).")
    in
    let run () dir max_area shards kill_at =
      let progress ~n ~done_ ~total =
        if n = kill_at && done_ = (total + 1) / 2 then
          Unix.kill (Unix.getpid ()) Sys.sigkill
      in
      match Corpus.Campaign.run ~shards ~progress ~dir ~max_n:max_area () with
      | Ok report ->
        Format.printf "%a@." Corpus.Campaign.pp_report report;
        Ok ()
      | Error msg -> Error (`Msg msg)
    in
    Cmd.v
      (Cmd.info ~exits "build"
         ~doc:
           "Build (or resume) the verdict corpus: enumerate the free polyominoes band by band, \
            decide each with the Beauquier-Nivat criterion (spread over -j domains), append the \
            verdicts to sharded segments with a fsynced checkpoint after every band, and seal \
            the per-shard indexes. A killed build resumes from its last checkpoint and produces \
            a byte-identical corpus.")
      Term.(status (const run $ jobs_term $ dir_arg $ max_area $ shards $ kill_at))
  in
  let stats_cmd =
    (* Reads the manifest directly (not through Snapshot.open_) so a
       half-built, unsealed corpus can still be inspected. *)
    let run dir =
      let path = Filename.concat dir Corpus.Layout.manifest_name in
      if not (Sys.file_exists path) then
        Error (`Msg (Printf.sprintf "no corpus at %s (missing %s)" dir Corpus.Layout.manifest_name))
      else
        match
          Corpus.Layout.manifest_of_string (In_channel.with_open_bin path In_channel.input_all)
        with
        | Error msg -> Error (`Msg msg)
        | Ok m ->
          Printf.printf "corpus %s: shards=%d sealed=%b bands=%d\n" dir m.Corpus.Layout.shards
            m.Corpus.Layout.sealed
            (List.length m.Corpus.Layout.bands);
          List.iter
            (fun b ->
              Printf.printf "band n=%d classes=%d exact=%d non-exact=%d\n" b.Corpus.Layout.n
                b.Corpus.Layout.classes b.Corpus.Layout.exact b.Corpus.Layout.non_exact)
            m.Corpus.Layout.bands;
          let tot f = List.fold_left (fun acc b -> acc + f b) 0 m.Corpus.Layout.bands in
          Printf.printf "total classes=%d exact=%d non-exact=%d\n"
            (tot (fun b -> b.Corpus.Layout.classes))
            (tot (fun b -> b.Corpus.Layout.exact))
            (tot (fun b -> b.Corpus.Layout.non_exact));
          Ok ()
    in
    Cmd.v
      (Cmd.info ~exits "stats"
         ~doc:
           "Print the corpus manifest: per-band class/exact/non-exact counts and totals (works \
            on an unsealed, half-built corpus too).")
      Term.(status (const run $ dir_arg))
  in
  let verify_cmd =
    let run () dir =
      match Corpus.Snapshot.verify ~dir with
      | Ok r ->
        Printf.printf
          "corpus %s: ok (%d records: %d exact, %d non-exact; %d index entries; every \
           certificate re-proved)\n"
          dir r.Corpus.Snapshot.records r.Corpus.Snapshot.exact r.Corpus.Snapshot.non_exact
          r.Corpus.Snapshot.indexed;
        Ok ()
      | Error msg -> Error (`Msg msg)
    in
    Cmd.v
      (Cmd.info ~exits "verify"
         ~doc:
           "Re-prove a sealed corpus from its bytes: CRC and framing of every record, canonical \
            keys, certificate checks, index completeness, and manifest agreement.")
      Term.(status (const run $ jobs_term $ dir_arg))
  in
  let requests_cmd =
    let run max_area =
      let id = ref 0 in
      Polyomino.enumerate_free_iter ~max_area (fun ~area:_ tile ->
          print_endline
            (Server.Protocol.request_to_string ~id:!id (Server.Protocol.Tile_search tile));
          incr id);
      Ok ()
    in
    Cmd.v
      (Cmd.info ~exits "requests"
         ~doc:
           "Print one tile-search request line per free polyomino class, in corpus order - \
            pipe into 'tilesched serve' to replay the workload.")
      Term.(status (const run $ max_area))
  in
  Cmd.group
    (Cmd.info ~exits "corpus"
       ~doc:
         "Offline verdict corpus: a BN-filtered campaign over all small polyomino classes, \
          stored in sharded mmap-ready segments and served by 'tilesched serve --corpus' with \
          zero deserialization.")
    [ build_cmd; stats_cmd; verify_cmd; requests_cmd ]

(* ---------- lifetime ---------- *)

let lifetime_cmd =
  let tile_arg =
    Arg.(
      value
      & opt tile_conv (Prototile.tetromino `I)
      & info [ "t"; "tile" ] ~docv:"TILE" ~doc:"Interference prototile (default tet-I).")
  in
  let rotate_arg =
    Arg.(
      value & opt (int_at_least 2) 4
      & info [ "rotate" ] ~docv:"K"
          ~doc:
            "Rotate over up to K translation-inequivalent covers of the torus (at least 2; the \
             demo wants 3+).")
  in
  let deaths_arg =
    Arg.(
      value & opt (int_at_least 0) 1
      & info [ "deaths" ] ~docv:"N"
          ~doc:"Seed-derived random sensor deaths injected into the battery simulation.")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("round-robin", Lifetime.Rotation.Round_robin);
               ("least-depleted", Lifetime.Rotation.Least_depleted_first) ])
          Lifetime.Rotation.Least_depleted_first
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Rotation policy: round-robin or least-depleted.")
  in
  let battery_arg =
    Arg.(
      value & opt float 30.0
      & info [ "battery" ] ~docv:"UNITS" ~doc:"Per-node battery capacity for the simulation.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let width_arg =
    Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"W" ~doc:"Deployment torus width.")
  in
  let height_arg =
    Arg.(value & opt int 8 & info [ "h"; "height" ] ~docv:"H" ~doc:"Deployment torus height.")
  in
  let run () tile width height rotate deaths policy battery seed =
    let ( let* ) = Result.bind in
    let m = Prototile.size tile in
    let torus = Sublattice.of_rows [ Zgeom.Vec.make2 width 0; Zgeom.Vec.make2 0 height ] in
    Printf.printf "prototile (m = %d):\n%s\n" m (Render.Ascii.prototile tile);

    (* 1. Rotation: distinct covers of the deployment torus, balanced so
       leadership actually moves, composed into an epoch plan. *)
    let covers =
      Tiling.Search.distinct_torus_covers ~period:torus ~prototiles:[ tile ] ~max_classes:rotate ()
    in
    let k = List.length covers in
    let* () =
      if k >= 2 then Ok ()
      else
        Error
          (`Msg
             (Printf.sprintf
                "the %dx%d torus admits %d distinct cover class(es) of this prototile; rotation \
                 needs at least 2 (try a larger torus)"
                width height k))
    in
    let* rot =
      Result.map_error
        (fun e -> `Msg e)
        (Lifetime.Rotation.make
           ~covers:(Lifetime.Rotation.balance covers)
           ~epoch:m ~epochs:(3 * k) ~policy)
    in
    let duty = Lifetime.Rotation.duty rot in
    let static_duty = Lifetime.Rotation.static_duty rot in
    let peak a = Array.fold_left max 0.0 a in
    Printf.printf "rotation: %d distinct covers of the %dx%d torus, policy %s\n" k width height
      (Lifetime.Rotation.policy_name policy);
    Printf.printf "plan (epoch = %d slots): [%s]\n" m
      (String.concat "; "
         (Array.to_list (Array.map string_of_int (Lifetime.Rotation.plan rot))));
    Printf.printf "collision-free at every slot: %b\n" (Lifetime.Rotation.collision_free rot);
    Printf.printf "leader duty: static peak %.2f spread %.4f -> rotating peak %.2f spread %.4f\n"
      (peak static_duty)
      (Lifetime.Rotation.spread static_duty)
      (peak duty) (Lifetime.Rotation.spread duty);
    Printf.printf "rotation strictly tightens the duty spread: %b\n\n"
      (Lifetime.Rotation.spread duty < Lifetime.Rotation.spread static_duty);

    (* 2. Local repair: kill a tile leader, re-tile a wrapped window on
       the deployment torus, certify the spliced schedule. *)
    let* base = tiling_of tile in
    let period = Tiling.Single.period base in
    let deployment =
      if List.for_all (Sublattice.mem period) (Sublattice.generators torus) then torus
      else Sublattice.of_rows (List.map (Zgeom.Vec.scale 4) (Sublattice.generators period))
    in
    let dead = List.hd (Tiling.Single.offsets base) in
    let* r = Result.map_error (fun e -> `Msg ("repair infeasible: " ^ e))
               (Lifetime.Repair.repair ~deployment base ~dead) in
    let st = r.Lifetime.Repair.stats in
    Printf.printf "repair: killed the tile leader at %s on a deployment torus of %d sensors\n"
      (Zgeom.Vec.to_string dead) st.Lifetime.Repair.torus_index;
    Printf.printf "window: %d cells, %d base tiles removed, %d growth rings; %d tiles spliced in\n"
      st.Lifetime.Repair.window_cells st.Lifetime.Repair.window_tiles st.Lifetime.Repair.rings
      (List.length r.Lifetime.Repair.patch);
    Printf.printf "dead leader demoted: %b; slot assignments changed: %d\n"
      (not (Lifetime.Repair.is_leader r.Lifetime.Repair.patched dead))
      (List.length r.Lifetime.Repair.changed);
    Printf.printf "slots on window: %d (|N| = %d); window optimal: %b\n"
      (Lifetime.Repair.slots_on_window r) m (Lifetime.Repair.window_optimal r);
    Printf.printf "certificate checked: true; unchanged outside the window: %b\n\n"
      (Lifetime.Repair.local_outside r);

    (* 3. Battery simulation: static vs rotating leadership under the
       same injected faults, swept over two seeds through run_sweep so
       the per-seed results are reproducible at every -j. *)
    let* static_rot =
      Result.map_error
        (fun e -> `Msg e)
        (Lifetime.Rotation.make ~covers:[ List.hd covers ] ~epoch:m ~epochs:1
           ~policy:Lifetime.Rotation.Round_robin)
    in
    let duration = 300 in
    let config ?(random_deaths = 0) rot =
      { (Netsim.Sim.default_config ~mac:(Lifetime.Rotation.mac rot)) with
        Netsim.Sim.width; height; prototile = tile; duration;
        workload = Netsim.Workload.Periodic { interval = 40 };
        seed = Int64.of_int seed;
        faults =
          { Netsim.Faults.none with
            Netsim.Faults.battery = Some battery;
            random_deaths;
            extra_cost = Some (Lifetime.Rotation.extra_cost rot ~leader_cost:1.0) } }
    in
    let seeds = [ Int64.of_int seed; Int64.of_int (seed + 1) ] in
    let sweep cfg = Netsim.Sim.run_sweep cfg ~seeds in
    (* Battery race first, with no injected faults: every death below is
       a battery death, so first_death is the lifetime metric proper. *)
    let statics = sweep (config static_rot) and rotatings = sweep (config rot) in
    Printf.printf
      "simulation: battery %.1f, leader surcharge 1.0/slot, %d slots, 2-seed sweep\n" battery
      duration;
    List.iteri
      (fun i (s, r) ->
        let fd res = Option.value ~default:duration (Netsim.Sim.first_death res) in
        Printf.printf
          "seed %-6Ld first battery death: static slot %d vs rotating slot %d (%.2fx); dead at \
           end %d vs %d\n"
          (List.nth seeds i) (fd s) (fd r)
          (float_of_int (fd r) /. float_of_int (fd s))
          (List.length s.Netsim.Sim.deaths)
          (List.length r.Netsim.Sim.deaths))
      (List.combine statics rotatings);
    (* Then the same rotating network under injected faults. *)
    let faulty = sweep (config ~random_deaths:deaths rot) in
    List.iteri
      (fun i r ->
        Printf.printf
          "seed %-6Ld with %d injected random death(s): %d dead, %d alive at end\n"
          (List.nth seeds i) deaths
          (List.length r.Netsim.Sim.deaths)
          r.Netsim.Sim.alive_at_end)
      faulty;
    let model = (config rot).Netsim.Sim.energy_model in
    Printf.printf "packet and energy conservation hold on every run: %b\n"
      (List.for_all
         (fun res ->
           Netsim.Sim.conservation_ok res && Netsim.Sim.energy_conservation_ok model res)
         (statics @ rotatings @ faulty));
    Ok ()
  in
  Cmd.v
    (Cmd.info ~exits "lifetime"
       ~doc:
         "Lifetime demo: rotate the schedule over distinct covers of the deployment torus \
          (tighter leader-duty spread), repair a leader death by re-tiling a wrapped window \
          (certified, locally optimal), and compare static vs rotating battery lifetimes under \
          injected faults. Output is deterministic and bit-identical at every -j.")
    Term.(
      status
        (const run $ jobs_term $ tile_arg $ width_arg $ height_arg $ rotate_arg $ deaths_arg
       $ policy_arg $ battery_arg $ seed_arg))

let () =
  let doc = "Collision-free sensor scheduling by lattice tilings (Klappenecker-Lee-Welch 2008)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info ~exits "tilesched" ~version:"1.0.0" ~doc)
          [ figure_cmd; exact_cmd; schedule_cmd; color_cmd; simulate_cmd; export_cmd; sync_cmd;
            certify_cmd; serve_cmd; corpus_cmd; lifetime_cmd ]))
