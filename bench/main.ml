(* Experiment harness: regenerates every figure of the paper (the paper is
   a brief announcement - five figures, no tables) and runs the
   quantitative evaluation its introduction motivates, then Bechamel
   micro-benchmarks of the core machinery.

   Output sections are indexed in DESIGN.md and summarized in
   EXPERIMENTS.md.  Run with: dune exec bench/main.exe

   The same executable runs one benchmark suite (dune exec
   bench/main.exe -- suite SUITE [--quota S] [--json F], or
   suite --validate F) and the load generator (-- loadgen ...): see
   commands.ml. *)

open Lattice

let section id title =
  Printf.printf "\n============================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "============================================================\n%!"

(* ------------------------------------------------------------------ *)
(* EXP-F1 .. EXP-F5: the five figures                                   *)
(* ------------------------------------------------------------------ *)

let figures () =
  let figs = Render.Figures.all () in
  Render.Figures.save_all ~dir:"out" figs;
  List.iteri
    (fun i f ->
      section (Printf.sprintf "EXP-F%d" (i + 1)) ("figure " ^ f.Render.Figures.name);
      print_endline f.Render.Figures.ascii)
    figs;
  Printf.printf "\n[SVG copies saved under out/]\n"

(* ------------------------------------------------------------------ *)
(* EXP-T1: Theorem 1 across a prototile family                          *)
(* ------------------------------------------------------------------ *)

let theorem1 () =
  section "EXP-T1" "Theorem 1: optimal collision-free schedules from tilings";
  Printf.printf "%-14s %6s %8s %10s %16s %10s\n" "prototile" "|N|" "slots" "slots=|N|"
    "collision-free" "window-ok";
  List.iter
    (fun (name, p) ->
      match Tiling.Search.find_tiling p with
      | None -> Printf.printf "%-14s %6d %s\n" name (Prototile.size p) "NO TILING"
      | Some t ->
        let s = Core.Schedule.of_tiling t in
        Printf.printf "%-14s %6d %8d %10b %16b %10b\n" name (Prototile.size p)
          (Core.Schedule.num_slots s)
          (Core.Schedule.num_slots s = Prototile.size p)
          (Core.Collision.is_collision_free_theorem1 t s)
          (Tiling.Single.check_window t ~radius:6))
    [ ("cheb1", Prototile.chebyshev_ball ~dim:2 1); ("cheb2", Prototile.chebyshev_ball ~dim:2 2);
      ("cheb3", Prototile.chebyshev_ball ~dim:2 3); ("euclid1", Prototile.euclidean_ball ~dim:2 1);
      ("euclid2", Prototile.euclidean_ball ~dim:2 2);
      ("manhattan2", Prototile.manhattan_ball ~dim:2 2); ("directional", Prototile.directional);
      ("rect3x2", Prototile.rect 3 2); ("rect4x4", Prototile.rect 4 4);
      ("tet-S", Prototile.tetromino `S); ("tet-T", Prototile.tetromino `T);
      ("tet-L", Prototile.tetromino `L); ("pent-X", Prototile.pentomino `X);
      ("pent-W", Prototile.pentomino `W); ("pent-Y", Prototile.pentomino `Y) ]

(* ------------------------------------------------------------------ *)
(* EXP-T2: Theorem 2 with several prototiles                            *)
(* ------------------------------------------------------------------ *)

let theorem2 () =
  section "EXP-T2" "Theorem 2: respectable multi-prototile tilings";
  (* (a) respectable: 2x2 squares + single-cell gap fillers. *)
  let n1 = Prototile.rect 2 2 in
  let n2 = Prototile.of_cells [ Zgeom.Vec.zero 2 ] in
  let period = Sublattice.of_basis [| [| 5; 0 |]; [| 0; 2 |] |] in
  let m =
    Tiling.Multi.make_exn ~period
      [ { Tiling.Multi.tile = n1; piece_offsets = [ Zgeom.Vec.zero 2; Zgeom.Vec.make2 2 0 ] };
        { Tiling.Multi.tile = n2;
          piece_offsets = [ Zgeom.Vec.make2 4 0; Zgeom.Vec.make2 4 1 ] } ]
  in
  let s = Core.Schedule.of_multi m in
  Printf.printf "respectable pair (2x2 squares + single cells):\n";
  Printf.printf "  respectable          : %b\n" (Tiling.Multi.is_respectable m);
  Printf.printf "  slots m = |N1|       : %d (|N1| = 4)\n" (Core.Schedule.num_slots s);
  Printf.printf "  collision-free       : %b\n" (Core.Collision.is_collision_free_multi m s);
  Printf.printf "  ground-rule optimum  : %d\n" (Core.Optimality.ground_rule_minimum m);
  (* (b) three prototiles: ball r1 contains plus and single. *)
  let ball = Prototile.chebyshev_ball ~dim:2 1 in
  let plus = Prototile.euclidean_ball ~dim:2 1 in
  let corners =
    [ Zgeom.Vec.make2 (-1) (-1); Zgeom.Vec.make2 1 (-1); Zgeom.Vec.make2 (-1) 1;
      Zgeom.Vec.make2 1 1 ]
  in
  let period3 = Sublattice.of_basis [| [| 6; 0 |]; [| 0; 3 |] |] in
  let m3 =
    Tiling.Multi.make_exn ~period:period3
      [ { Tiling.Multi.tile = ball; piece_offsets = [ Zgeom.Vec.make2 1 1 ] };
        { Tiling.Multi.tile = plus; piece_offsets = [ Zgeom.Vec.make2 4 1 ] };
        { Tiling.Multi.tile = Prototile.of_cells [ Zgeom.Vec.zero 2 ];
          piece_offsets = List.map (fun c -> Zgeom.Vec.add (Zgeom.Vec.make2 4 1) c) corners } ]
  in
  let s3 = Core.Schedule.of_multi m3 in
  Printf.printf "\nthree-prototile respectable tiling (ball > plus > single):\n";
  Printf.printf "  respectable          : %b\n" (Tiling.Multi.is_respectable m3);
  Printf.printf "  slots m = |N1|       : %d (|N1| = 9)\n" (Core.Schedule.num_slots s3);
  Printf.printf "  collision-free       : %b\n" (Core.Collision.is_collision_free_multi m3 s3);
  Printf.printf "  ground-rule optimum  : %d\n" (Core.Optimality.ground_rule_minimum m3)

(* ------------------------------------------------------------------ *)
(* EXP-F5b: all S/Z tilings quantified                                  *)
(* ------------------------------------------------------------------ *)

let figure5_quantified () =
  section "EXP-F5b" "Figure 5 quantified: ground-rule optimum depends on the tiling";
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let sols = Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:500 () in
  let tally = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let mixed = List.length (Tiling.Multi.pieces m) = 2 in
      let k = Core.Optimality.ground_rule_minimum m in
      let key = (mixed, k) in
      Hashtbl.replace tally key (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
    sols;
  Printf.printf "%-24s %12s %8s\n" "tiling class" "optimum" "count";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort Stdlib.compare
  |> List.iter (fun ((mixed, k), v) ->
         Printf.printf "%-24s %12d %8d\n" (if mixed then "mixed S+Z" else "single-shape") k v);
  Printf.printf "\npaper's claim: the S/Z mixed tiling needs 6 slots, the symmetric\n";
  Printf.printf "single-shape tiling needs 4 - both classes appear above.\n"

(* ------------------------------------------------------------------ *)
(* EXP-C1: finite restriction                                           *)
(* ------------------------------------------------------------------ *)

let finite_restriction () =
  section "EXP-C1" "Conclusions: restriction to finite domains";
  let n = Prototile.euclidean_ball ~dim:2 1 in
  let t = Option.get (Tiling.Search.find_tiling n) in
  Printf.printf "%-10s %14s %15s %13s\n" "domain" "criterion-met" "finite-optimum" "tiling-slots";
  List.iter
    (fun side ->
      let dom =
        Core.Finite.box ~lo:(Zgeom.Vec.make2 0 0) ~hi:(Zgeom.Vec.make2 (side - 1) (side - 1))
      in
      let crit = Core.Finite.meets_optimality_criterion dom n in
      let opt = Core.Finite.optimal_slots ~neighborhood:(fun _ -> n) dom in
      let sched = Core.Schedule.of_tiling t in
      let module IS = Set.Make (Int) in
      let used =
        Zgeom.Vec.Set.fold (fun v acc -> IS.add (Core.Schedule.slot_at sched v) acc) dom IS.empty
        |> IS.cardinal
      in
      Printf.printf "%-10s %14b %15d %13d\n"
        (Printf.sprintf "%dx%d" side side)
        crit opt used)
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\nonce the domain contains a translate of N+N (5x5 here: criterion true),\n";
  Printf.printf "the finite optimum equals |N| = 5 and the restricted schedule achieves it;\n";
  Printf.printf "smaller domains genuinely beat the infinite-lattice bound.\n"

(* ------------------------------------------------------------------ *)
(* EXP-C2: mobile sensors                                               *)
(* ------------------------------------------------------------------ *)

let mobile () =
  section "EXP-C2" "Conclusions: mobile sensors on location slots";
  let prototile = Prototile.rect 2 2 in
  let tiling =
    Tiling.Single.make_exn ~prototile
      ~period:(Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |])
      ~offsets:[ Zgeom.Vec.zero 2 ]
  in
  Printf.printf "%8s %10s %11s %14s %11s\n" "radius" "attempts" "delivered" "eligible-frac"
    "collisions";
  List.iter
    (fun radius ->
      let r =
        Netsim.Mobile_sim.run
          { tiling; arena_width = 12.0; num_sensors = 40; radius; speed = 0.3; pause = 2;
            send_interval = 8; duration = 2500; seed = 17L }
      in
      Printf.printf "%8.2f %10d %11d %14.3f %11d\n" radius r.Netsim.Mobile_sim.attempts
        r.Netsim.Mobile_sim.deliveries r.Netsim.Mobile_sim.eligible_slot_fraction
        r.Netsim.Mobile_sim.collisions)
    [ 0.2; 0.35; 0.5; 0.7; 0.9 ];
  Printf.printf "\ncollisions are zero at every radius, as the conclusions claim;\n";
  Printf.printf "the eligible fraction is the throughput cost of mobility.\n"

(* ------------------------------------------------------------------ *)
(* EXP-S3: exactness decision (Section 3)                               *)
(* ------------------------------------------------------------------ *)

let staircase = Microbench.staircase

let exactness_catalogue () =
  section "EXP-S3" "Section 3: deciding exactness (Beauquier-Nivat)";
  Printf.printf "all tetrominoes and pentominoes (fixed orientation):\n";
  Printf.printf "%-8s %10s %9s %14s\n" "shape" "perimeter" "exact" "factor-type";
  let describe name p =
    let w = Polyomino.boundary_word p in
    let fact = Boundary_word.find_factorization w in
    let kind =
      match fact with
      | None -> "-"
      | Some f -> if f.Boundary_word.len3 = 0 then "pseudo-square" else "pseudo-hexagon"
    in
    Printf.printf "%-8s %10d %9b %14s\n" name (String.length w) (fact <> None) kind
  in
  List.iter
    (fun (n, p) -> describe n p)
    [ ("tet-I", Prototile.tetromino `I); ("tet-O", Prototile.tetromino `O);
      ("tet-T", Prototile.tetromino `T); ("tet-S", Prototile.tetromino `S);
      ("tet-Z", Prototile.tetromino `Z); ("tet-L", Prototile.tetromino `L);
      ("tet-J", Prototile.tetromino `J); ("pent-F", Prototile.pentomino `F);
      ("pent-I", Prototile.pentomino `I); ("pent-L", Prototile.pentomino `L);
      ("pent-N", Prototile.pentomino `N); ("pent-P", Prototile.pentomino `P);
      ("pent-T", Prototile.pentomino `T); ("pent-U", Prototile.pentomino `U);
      ("pent-V", Prototile.pentomino `V); ("pent-W", Prototile.pentomino `W);
      ("pent-X", Prototile.pentomino `X); ("pent-Y", Prototile.pentomino `Y);
      ("pent-Z", Prototile.pentomino `Z) ];
  Printf.printf "\npolynomial scaling of the BN decision (staircase polyominoes):\n";
  Printf.printf "%12s %12s %14s\n" "boundary n" "time (ms)" "per n^2 (ns)";
  List.iter
    (fun k ->
      let p = staircase k in
      let w = Polyomino.boundary_word p in
      let n = String.length w in
      let reps = max 1 (2_000_000 / (n * n)) in
      let t0 = Sys.time () in
      for _ = 1 to reps do
        ignore (Boundary_word.find_factorization w)
      done;
      let dt = (Sys.time () -. t0) /. float_of_int reps in
      Printf.printf "%12d %12.3f %14.1f\n" n (dt *. 1e3) (dt *. 1e9 /. float_of_int (n * n)))
    [ 5; 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* EXP-S3b: perfect Lee codes / Golomb-Welch                            *)
(* ------------------------------------------------------------------ *)

let golomb_welch () =
  section "EXP-S3b" "extension: tilings as perfect Lee codes (Golomb-Welch)";
  Printf.printf
    "a tiling by the Manhattan ball of radius r is exactly a perfect r-error-\n\
     correcting Lee code (Stein-Szabo, the paper's ref [10]).  Lee spheres\n\
     tile Z^2 for every r and Z^d for r = 1; Golomb-Welch conjecture: never\n\
     for d >= 3, r >= 2.  Our searches agree on the smallest open-ish case:\n\n";
  Printf.printf "%4s %4s %6s %18s %12s\n" "d" "r" "|N|" "lattice-tilings" "verdict";
  List.iter
    (fun (d, r) ->
      let p = Prototile.manhattan_ball ~dim:d r in
      let lats = List.length (Tiling.Search.lattice_tilings p) in
      let verdict =
        if lats > 0 then "tiles (perfect code)"
        else begin
          (* Bounded torus search: periods of index 2|N| and 3|N|. *)
          let found = ref false in
          List.iter
            (fun f ->
              if not !found then
                List.iter
                  (fun lam ->
                    if (not !found)
                       && Tiling.Search.cover_torus ~period:lam ~prototiles:[ p ]
                            ~max_solutions:1 ()
                          <> []
                    then found := true)
                  (Sublattice.all_of_index ~dim:d (f * Prototile.size p)))
            [ 2; 3 ];
          if !found then "tiles (non-lattice)" else "no tiling up to index 3|N|"
        end
      in
      Printf.printf "%4d %4d %6d %18d %12s\n" d r (Prototile.size p) lats verdict)
    [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2) ];
  Printf.printf
    "\nd=3, r=2: no lattice tiling and no periodic tiling with fundamental\n\
     domain up to 75 cells - consistent with Golomb-Welch (proved for d=3).\n\
     scheduling reading: radius-2 Manhattan radios in 3-D space cannot be\n\
     scheduled at the |N| = 25 lower bound by any tiling schedule.\n"

(* ------------------------------------------------------------------ *)
(* EXP-Q1: slot counts vs baselines                                     *)
(* ------------------------------------------------------------------ *)

let slot_comparison () =
  section "EXP-Q1" "slots: lattice schedule vs TDMA and distance-2 heuristics";
  Printf.printf "%-8s %-8s %6s %8s %8s %8s %8s %8s %8s %8s\n" "radius" "field" "|N|" "tdma"
    "greedy" "WP" "dsatur" "anneal" "tabu" "tiling";
  let rng = Prng.Xoshiro.create 3L in
  List.iter
    (fun r ->
      let n = Prototile.chebyshev_ball ~dim:2 r in
      List.iter
        (fun side ->
          let g, _ = Coloring.Graph.lattice_window ~prototile:n ~width:side ~height:side in
          Printf.printf "%-8d %-8s %6d %8d %8d %8d %8d %8d %8d %8d\n" r
            (Printf.sprintf "%dx%d" side side)
            (Prototile.size n) (Coloring.Baseline.tdma_slots g)
            (Coloring.Greedy.colors_used g `Natural)
            (Coloring.Greedy.colors_used g `LargestFirst)
            (Coloring.Dsatur.colors_used g)
            (Coloring.Annealing.min_colors rng g)
            (Coloring.Tabucol.min_colors rng g)
            (Coloring.Baseline.tiling_slot_count n))
        [ 6; 10; 14 ])
    [ 1; 2 ];
  Printf.printf "\nTDMA grows with the field (does not scale); heuristics are >= |N|;\n";
  Printf.printf "the tiling schedule is exactly |N| at any field size.\n"

(* ------------------------------------------------------------------ *)
(* EXP-Q2: protocols under rising load                                  *)
(* ------------------------------------------------------------------ *)

let protocol_comparison () =
  section "EXP-Q2" "simulator: collisions / delivery / energy under rising load";
  let prototile = Prototile.chebyshev_ball ~dim:2 1 in
  let tiling = Option.get (Tiling.Search.find_tiling prototile) in
  let schedule = Core.Schedule.of_tiling tiling in
  let width = 12 and height = 12 in
  let duration = 3000 in
  Printf.printf "%-10s %-14s %9s %10s %9s %10s %11s\n" "interval" "protocol" "attempts"
    "collisions" "delivery" "lat(mean)" "energy/del";
  List.iter
    (fun interval ->
      List.iter
        (fun mac ->
          let r =
            Netsim.Sim.run
              { (Netsim.Sim.default_config ~mac) with width; height; prototile; duration;
                workload = Netsim.Workload.Periodic { interval }; seed = 7L }
          in
          assert (Netsim.Sim.conservation_ok r);
          let s = r.Netsim.Sim.stats in
          Printf.printf "%-10d %-14s %9d %10d %8.1f%% %10.1f %11.2f\n" interval
            r.Netsim.Sim.mac_name s.Netsim.Stats.attempts s.Netsim.Stats.collisions
            (100.0 *. s.Netsim.Stats.delivery_ratio)
            s.Netsim.Stats.mean_latency s.Netsim.Stats.energy_per_delivery)
        [ Netsim.Mac.lattice_tdma schedule; Netsim.Mac.full_tdma ~num_nodes:(width * height);
          Netsim.Mac.slotted_aloha ~p:0.15 ~max_backoff_exp:6; Netsim.Mac.p_csma ~p:0.2 ])
    [ 200; 100; 50; 25 ];
  Printf.printf "\nlattice TDMA: zero collisions at every load (Theorem 1);\n";
  Printf.printf "contention protocols collide increasingly; full TDMA is lossless but slow.\n"

(* ------------------------------------------------------------------ *)
(* EXP-Q3: scalability with field size                                  *)
(* ------------------------------------------------------------------ *)

let scalability () =
  section "EXP-Q3" "scalability: period stays m as the field grows";
  let prototile = Prototile.chebyshev_ball ~dim:2 1 in
  let tiling = Option.get (Tiling.Search.find_tiling prototile) in
  let schedule = Core.Schedule.of_tiling tiling in
  Printf.printf "%-8s %8s %16s %16s %18s %18s\n" "field" "nodes" "lattice-period"
    "full-tdma-period" "lattice-lat" "full-tdma-lat";
  let lat_series = ref [] and full_series = ref [] in
  List.iter
    (fun side ->
      let nodes = side * side in
      let run mac =
        Netsim.Sim.run
          { (Netsim.Sim.default_config ~mac) with width = side; height = side; prototile;
            duration = 8 * nodes; workload = Netsim.Workload.Periodic { interval = 4 * nodes };
            seed = 13L }
      in
      let rl = run (Netsim.Mac.lattice_tdma schedule) in
      let rf = run (Netsim.Mac.full_tdma ~num_nodes:nodes) in
      lat_series :=
        (float_of_int nodes, rl.Netsim.Sim.stats.Netsim.Stats.mean_latency) :: !lat_series;
      full_series :=
        (float_of_int nodes, rf.Netsim.Sim.stats.Netsim.Stats.mean_latency) :: !full_series;
      Printf.printf "%-8s %8d %16d %16d %18.1f %18.1f\n"
        (Printf.sprintf "%dx%d" side side)
        nodes
        (Core.Schedule.num_slots schedule)
        nodes rl.Netsim.Sim.stats.Netsim.Stats.mean_latency
        rf.Netsim.Sim.stats.Netsim.Stats.mean_latency)
    [ 8; 12; 16; 24; 32 ];
  print_newline ();
  print_string
    (Render.Plot.line ~width:56 ~height:12 ~x_label:"nodes" ~y_label:"mean latency (slots)"
       [ { Render.Plot.label = "lattice TDMA"; points = List.rev !lat_series };
         { Render.Plot.label = "full TDMA"; points = List.rev !full_series } ]);
  Printf.printf "\nthe lattice schedule's period (and so its latency) is constant in the\n";
  Printf.printf "field size; full TDMA's period - hence latency - grows linearly.\n"

(* ------------------------------------------------------------------ *)
(* EXP-A1: time synchronization (the clock assumption, made real)       *)
(* ------------------------------------------------------------------ *)

let timesync_ablation () =
  section "EXP-A1" "ablation: where the shared clock comes from (beacon flooding)";
  let prototile = Prototile.chebyshev_ball ~dim:2 1 in
  let tiling = Option.get (Tiling.Search.find_tiling prototile) in
  let schedule = Core.Schedule.of_tiling tiling in
  let base resync =
    { Netsim.Timesync.width = 12; height = 12; prototile; schedule;
      root = Zgeom.Vec.make2 6 6; resync_period = resync; drift_ppm = 500.0;
      hop_jitter = 0.02; duration = 20_000; seed = 9L }
  in
  Printf.printf "drift +-500 ppm, hop jitter +-0.02 slots, 20000 slots, 12x12 grid\n\n";
  Printf.printf "%-14s %12s %12s %14s %12s\n" "resync-period" "max-err" "mean-err" "violations"
    "beacons";
  List.iter
    (fun resync ->
      let r = Netsim.Timesync.run (base resync) in
      let err v = if resync = 0 then "n/a" else Printf.sprintf "%.3f" v in
      Printf.printf "%-14s %12s %12s %14d %12d\n"
        (if resync = 0 then "never" else string_of_int resync)
        (err r.Netsim.Timesync.max_clock_error)
        (err r.Netsim.Timesync.mean_clock_error)
        r.Netsim.Timesync.tdma_violations r.Netsim.Timesync.beacons_sent)
    [ 500; 1000; 2000; 4000; 0 ];
  print_newline ();
  let bars =
    List.map
      (fun resync ->
        let r = Netsim.Timesync.run (base resync) in
        ( (if resync = 0 then "never" else string_of_int resync),
          float_of_int r.Netsim.Timesync.tdma_violations ))
      [ 500; 1000; 2000; 4000; 0 ]
  in
  Printf.printf "violations by resync period:\n%s" (Render.Plot.bar ~width:44 bars);
  Printf.printf
    "\nthe schedule stays collision-free as long as resynchronization keeps the\n\
     worst clock error under half a slot; the paper's time assumption costs a\n\
     trickle of beacons (themselves staggered collision-free by the schedule).\n"

(* ------------------------------------------------------------------ *)
(* EXP-A2: BN algorithm ablation                                        *)
(* ------------------------------------------------------------------ *)

(* Non-exact family with growing boundary: wide U shapes (the U-pentomino
   generalized) never admit a BN factorization, so both algorithms must
   exhaust their search spaces - the worst case. *)
let u_shape w =
  assert (w >= 3);
  let cells =
    List.init w (fun x -> Zgeom.Vec.make2 x 0)
    @ [ Zgeom.Vec.make2 0 1; Zgeom.Vec.make2 0 2; Zgeom.Vec.make2 (w - 1) 1;
        Zgeom.Vec.make2 (w - 1) 2 ]
  in
  Prototile.of_cells cells

let bn_ablation () =
  section "EXP-A2" "ablation: BN factorization, run-table O(n^3) vs naive O(n^4)";
  let time w f =
    let n = String.length w in
    let reps = max 1 (500_000 / (n * n)) in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      ignore (f w)
    done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let row label p =
    let w = Polyomino.boundary_word p in
    let n = String.length w in
    let exact = Boundary_word.find_factorization w <> None in
    assert (exact = (Boundary_word.find_factorization_naive w <> None));
    let fast = time w Boundary_word.find_factorization in
    let naive = time w Boundary_word.find_factorization_naive in
    Printf.printf "%-16s %8d %8b %14.3f %14.3f %9.1fx\n" label n exact (fast *. 1e3)
      (naive *. 1e3) (naive /. fast)
  in
  Printf.printf "%-16s %8s %8s %14s %14s %10s\n" "shape" "n" "exact" "table (ms)" "naive (ms)"
    "speedup";
  List.iter (fun k -> row (Printf.sprintf "staircase-%d" k) (staircase k)) [ 10; 40 ];
  let table_pts = ref [] and naive_pts = ref [] in
  List.iter
    (fun w ->
      let p = u_shape w in
      let word = Polyomino.boundary_word p in
      let n = String.length word in
      table_pts := (float_of_int n, 1e3 *. time word Boundary_word.find_factorization) :: !table_pts;
      naive_pts :=
        (float_of_int n, 1e3 *. time word Boundary_word.find_factorization_naive) :: !naive_pts;
      row (Printf.sprintf "U-shape-%d" w) p)
    [ 10; 20; 40; 80 ];
  print_newline ();
  print_string
    (Render.Plot.line ~width:50 ~height:10 ~x_label:"boundary length n" ~y_label:"ms"
       ~log_y:true
       [ { Render.Plot.label = "run-table"; points = List.rev !table_pts };
         { Render.Plot.label = "naive"; points = List.rev !naive_pts } ]);
  Printf.printf
    "\non exact shapes a factorization is found early and the naive scan's lack\n\
     of table setup wins; on non-exact shapes the search is exhaustive and the\n\
     run-table algorithm pulls ahead, increasingly with n - the regime the\n\
     Gambini-Vuillon O(n^2) result targets.\n"

(* ------------------------------------------------------------------ *)
(* EXP-A3: channel-model ablation                                       *)
(* ------------------------------------------------------------------ *)

let channel_ablation () =
  section "EXP-A3" "ablation: capture effect and channel loss";
  let prototile = Prototile.chebyshev_ball ~dim:2 2 in
  let tiling = Option.get (Tiling.Search.find_tiling prototile) in
  let schedule = Core.Schedule.of_tiling tiling in
  let run mac capture loss_prob =
    Netsim.Sim.run
      { (Netsim.Sim.default_config ~mac) with width = 10; height = 10; prototile;
        duration = 3000; capture; loss_prob;
        workload = Netsim.Workload.Periodic { interval = 40 }; seed = 21L }
  in
  Printf.printf "%-14s %-18s %10s %8s %8s %9s\n" "protocol" "channel" "collisions" "fades"
    "rx-loss" "delivery";
  List.iter
    (fun (mac_name, mac) ->
      List.iter
        (fun (chan_name, capture, loss) ->
          let r = run mac capture loss in
          let s = r.Netsim.Sim.stats in
          Printf.printf "%-14s %-18s %10d %8d %8d %8.1f%%\n" mac_name chan_name
            s.Netsim.Stats.collisions s.Netsim.Stats.fades s.Netsim.Stats.receiver_losses
            (100.0 *. s.Netsim.Stats.delivery_ratio))
        [ ("binary", false, 0.0); ("capture", true, 0.0); ("loss 2%", false, 0.02) ])
    [ ("lattice-tdma", Netsim.Mac.lattice_tdma schedule);
      ("slotted-aloha", Netsim.Mac.slotted_aloha ~p:0.2 ~max_backoff_exp:6) ];
  Printf.printf
    "\nthe schedule's zero-collision guarantee is invariant to the channel model\n\
     (capture changes nothing; loss causes fades, never collisions), while the\n\
     contention baseline's losses move with the physics.\n"

(* ------------------------------------------------------------------ *)
(* EXP-A4: tuning the contention baseline                               *)
(* ------------------------------------------------------------------ *)

let aloha_tuning () =
  section "EXP-A4" "ablation: slotted-ALOHA transmit probability (fair baseline tuning)";
  let prototile = Prototile.chebyshev_ball ~dim:2 1 in
  Printf.printf "%8s %10s %12s %10s %12s\n" "p" "attempts" "collisions" "delivery" "energy/del";
  List.iter
    (fun p_tx ->
      let r =
        Netsim.Sim.run
          { (Netsim.Sim.default_config ~mac:(Netsim.Mac.slotted_aloha ~p:p_tx ~max_backoff_exp:6)) with
            width = 12; height = 12; prototile; duration = 3000;
            workload = Netsim.Workload.Periodic { interval = 40 }; seed = 5L }
      in
      let s = r.Netsim.Sim.stats in
      Printf.printf "%8.2f %10d %12d %9.1f%% %12.2f\n" p_tx s.Netsim.Stats.attempts
        s.Netsim.Stats.collisions
        (100.0 *. s.Netsim.Stats.delivery_ratio)
        s.Netsim.Stats.energy_per_delivery)
    [ 0.02; 0.05; 0.1; 0.2; 0.4 ];
  Printf.printf
    "\neven at its best operating point the contention baseline pays collisions\n\
     and energy the deterministic schedule never does (compare EXP-Q2).\n"

(* ------------------------------------------------------------------ *)
(* EXP-P1: parallel engine, speedup and determinism                     *)
(* ------------------------------------------------------------------ *)

let parallel_speedup () =
  section "EXP-P1" "parallel engine: speedup vs jobs, with output identity checked";
  Printf.printf "host reports %d core(s) available to this process\n\n"
    (Domain.recommended_domain_count ());
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* Each workload is a closure over a pool; the jobs=1 run is the
     reference both for the timing baseline and for the identity check
     (the determinism contract says every pool size returns the same
     value, so equality here is a hard assertion, not a statistic). *)
  let report name runs =
    Printf.printf "%s\n" name;
    Printf.printf "  %6s %12s %10s %10s\n" "jobs" "time (s)" "speedup" "identical";
    let baseline = ref None in
    List.iter
      (fun jobs ->
        Parallel.with_pool ~jobs (fun pool ->
            let v, dt = wall (fun () -> runs pool) in
            let same, base_dt =
              match !baseline with
              | None ->
                baseline := Some (v, dt);
                (true, dt)
              | Some (v0, dt0) -> (v = v0, dt0)
            in
            assert same;
            Printf.printf "  %6d %12.3f %9.2fx %10b\n" jobs dt (base_dt /. dt) same))
      [ 1; 2; 4 ];
    print_newline ()
  in
  let s_tet = Prototile.tetromino `S and z_tet = Prototile.tetromino `Z in
  let sz_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  report "torus exact cover, S+Z on 4x8, bitmask, all solutions" (fun pool ->
      Tiling.Search.cover_torus ~period:sz_period ~prototiles:[ s_tet; z_tet ]
        ~max_solutions:max_int ~pool ());
  report "lattice tilings, Chebyshev ball r=3 (|N| = 49)" (fun pool ->
      Tiling.Search.lattice_tilings ~pool (Prototile.chebyshev_ball ~dim:2 3));
  let cheb1 = Prototile.chebyshev_ball ~dim:2 1 in
  let sched = Core.Schedule.of_tiling (Option.get (Tiling.Search.find_tiling cheb1)) in
  let sweep_cfg =
    { (Netsim.Sim.default_config ~mac:(Netsim.Mac.lattice_tdma sched)) with
      width = 16; height = 16; prototile = cheb1; duration = 4000 }
  in
  report "netsim sweep, 8 seeds x 4000 slots, 16x16 lattice TDMA" (fun pool ->
      Netsim.Sim.run_sweep ~pool sweep_cfg ~seeds:(List.init 8 Int64.of_int));
  Printf.printf
    "speedup tracks the core count (a 1-core host shows ~1.00x everywhere:\n\
     the pool adds domains but the OS interleaves them); the identity column\n\
     is the determinism contract, asserted, not sampled.\n"

(* ------------------------------------------------------------------ *)
(* EXP-SRV: schedule server under load                                  *)
(* ------------------------------------------------------------------ *)

let server_loadgen () =
  section "EXP-SRV" "schedule server: canonicalizing cache, backpressure, -j identity";
  let run ~jobs ~clients ~queue_bound config =
    Parallel.with_pool ~jobs (fun pool ->
        let engine = Server.create ~cache_capacity:64 ~queue_bound ~pool () in
        Server.Loadgen.run engine { config with Server.Loadgen.clients })
  in
  let config = { Server.Loadgen.default with Server.Loadgen.seed = 11L } in
  (* The acceptance workload: 10k completions, Zipf-skewed over a
     catalogue whose congruent pairs (S/Z, L/J, 2x3/3x2, O/2x2) the
     canonical cache key must merge. *)
  let r1 = run ~jobs:1 ~clients:8 ~queue_bound:64 config in
  Format.printf "clients=8 queue_bound=64 jobs=1@.%a@.(%a)@.@." Server.Loadgen.pp_report r1
    Server.Loadgen.pp_timing r1;
  assert (r1.Server.Loadgen.completed = 10_000);
  assert (r1.Server.Loadgen.hit_rate > 0.9);
  assert (r1.Server.Loadgen.overloaded_replies = 0);
  (* Identity across pool sizes: the deterministic report, checksum
     included, is asserted equal - the determinism contract again. *)
  let summary r = Format.asprintf "%a" Server.Loadgen.pp_report r in
  let r4 = run ~jobs:4 ~clients:8 ~queue_bound:64 config in
  assert (summary r4 = summary r1);
  Printf.printf "jobs=4 deterministic report identical: %b\n\n" (summary r4 = summary r1);
  (* Overload: 3x more clients than admission slots. Every round sheds
     load explicitly; nothing is dropped or queued unboundedly. *)
  let ro = run ~jobs:2 ~clients:96 ~queue_bound:32 config in
  Format.printf "clients=96 queue_bound=32 jobs=2 (forced overload)@.%a@.(%a)@.@."
    Server.Loadgen.pp_report ro Server.Loadgen.pp_timing ro;
  assert (ro.Server.Loadgen.completed = 10_000);
  assert (ro.Server.Loadgen.overloaded_replies > 0);
  Printf.printf
    "every refusal above is an explicit overloaded reply followed by a client\n\
     retry - the bounded queue never drops silently and never grows past the\n\
     admission bound.\n"

(* ------------------------------------------------------------------ *)
(* EXP-STORE: persistent certificate store, cold vs warm start          *)
(* ------------------------------------------------------------------ *)

let store_warm_start () =
  section "EXP-STORE" "certificate store: cold start vs warm restart (area <= 5)";
  let path = Filename.temp_file "tilesched-bench-store" ".log" in
  let tiles = List.concat_map Polyomino.enumerate_free [ 1; 2; 3; 4; 5 ] in
  (* One pass over every canonical class of area <= 5, per-request
     latency into the same estimator the simulator uses. *)
  let drive engine =
    let stats = Netsim.Stats.create () in
    List.iter
      (fun tile ->
        let t0 = Unix.gettimeofday () in
        ignore (Server.handle engine (Server.Protocol.Tile_search tile));
        Netsim.Stats.record_arrival stats;
        Netsim.Stats.record_delivery stats
          ~latency:(int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
      tiles;
    Netsim.Stats.snapshot stats
  in
  let run () =
    let store = Store.open_ path in
    let engine = Server.create ~store () in
    let latency = drive engine in
    let stats = Server.stats engine in
    Store.close store;
    (latency, stats)
  in
  let cold, cold_stats = run () in
  let warm, warm_stats = run () in
  Sys.remove path;
  (* The store contract: the first run pays one search per class, the
     restarted engine pays none. *)
  assert (cold_stats.Server.Protocol.searches = List.length tiles);
  assert (warm_stats.Server.Protocol.searches = 0);
  assert (warm_stats.Server.Protocol.store_hits = List.length tiles);
  let pr name (s : Netsim.Stats.snapshot) (es : Server.Protocol.server_stats) =
    Printf.printf "  %-12s p50=%8.0fus  p95=%8.0fus  max=%8dus  searches=%d store_hits=%d\n"
      name s.Netsim.Stats.p50_latency s.Netsim.Stats.p95_latency
      s.Netsim.Stats.max_latency es.Server.Protocol.searches
      es.Server.Protocol.store_hits
  in
  Printf.printf "%d canonical classes (areas 1..5), one tile-search each\n" (List.length tiles);
  pr "cold" cold cold_stats;
  pr "warm" warm warm_stats;
  Printf.printf
    "cold->warm p95 speedup: %.0fx\n\
     the warm run answers every query from the recovered log - zero searches,\n\
     asserted - so restart cost is bounded by log replay, not by re-search.\n"
    (cold.Netsim.Stats.p95_latency /. Float.max 1.0 warm.Netsim.Stats.p95_latency)

(* ------------------------------------------------------------------ *)
(* EXP-P2: engine shootout on the acceptance workload                    *)
(* ------------------------------------------------------------------ *)

let engine_shootout () =
  section "EXP-P2" "exact-cover engine shootout: backtracking vs DLX vs bitmask";
  let s_tet = Prototile.tetromino `S and z_tet = Prototile.tetromino `Z in
  let sz_period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  let wall f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let prototiles = [ s_tet; z_tet ] in
  let run engine pool =
    match engine with
    | `Bitmask ->
      Tiling.Search.cover_torus ~period:sz_period ~prototiles ~max_solutions:max_int ?pool ()
    | (`Backtracking | `Dlx) as engine ->
      Oracle.Torus.covers ~engine ~period:sz_period ~prototiles ~max_solutions:max_int ()
  in
  (* Sequential, all solutions: the workload the bitmask kernel was built
     for.  The identity of the full ordered solution lists is asserted,
     so the speedup is for byte-identical output. *)
  Printf.printf "S+Z on 4x8, all solutions, jobs=1:\n";
  Printf.printf "  %-14s %12s %10s\n" "engine" "time (s)" "speedup";
  let reference, bt_dt = wall (fun () -> run `Backtracking None) in
  Printf.printf "  %-14s %12.3f %9.2fx\n" "backtracking" bt_dt 1.0;
  List.iter
    (fun (engine, name) ->
      let v, dt = wall (fun () -> run engine None) in
      assert (v = reference);
      Printf.printf "  %-14s %12.3f %9.2fx\n" name dt (bt_dt /. dt))
    [ (`Dlx, "dlx"); (`Bitmask, "bitmask") ];
  Printf.printf "  (%d solutions; ordered lists asserted identical)\n" (List.length reference);
  (* The bitmask engine under the parallel split: still the same list. *)
  Parallel.with_pool ~jobs:4 (fun pool ->
      let v, dt = wall (fun () -> run `Bitmask (Some pool)) in
      assert (v = reference);
      Printf.printf "  %-14s %12.3f %9.2fx  (identical: true)\n" "bitmask -j4" dt (bt_dt /. dt));
  (* Pure enumeration: the same tree without materializing solutions.
     End-to-end, every engine shares the Multi construction and the
     retention of 1024 result values - an Amdahl floor that caps the
     ratio above; counting removes it and exposes the kernels. *)
  let count engine pool =
    match engine with
    | `Bitmask -> Tiling.Search.count_torus_covers ~period:sz_period ~prototiles ?pool ()
    | (`Backtracking | `Dlx) as engine ->
      Oracle.Torus.count ~engine ~period:sz_period ~prototiles
  in
  Printf.printf "\nsame workload, enumeration only (count_torus_covers), jobs=1:\n";
  Printf.printf "  %-14s %12s %10s\n" "engine" "time (s)" "speedup";
  let n_ref, cnt_bt = wall (fun () -> count `Backtracking None) in
  assert (n_ref = List.length reference);
  Printf.printf "  %-14s %12.3f %9.2fx\n" "backtracking" cnt_bt 1.0;
  List.iter
    (fun (engine, name) ->
      let n, dt = wall (fun () -> count engine None) in
      assert (n = n_ref);
      Printf.printf "  %-14s %12.3f %9.2fx\n" name dt (cnt_bt /. dt))
    [ (`Dlx, "dlx"); (`Bitmask, "bitmask") ];
  Parallel.with_pool ~jobs:4 (fun pool ->
      let n = count `Bitmask (Some pool) in
      assert (n = n_ref);
      Printf.printf "  (count %d = solution-list length at every engine and pool size)\n" n);
  Printf.printf
    "\nthe bitmask engine replaces the backtracker's per-node list scans with\n\
     static conflict lists, an undo stack and incrementally maintained candidate\n\
     counts; DESIGN.md section 11 explains why the enumeration order is preserved\n\
     and EXPERIMENTS.md EXP-P2 breaks down the materialization floor.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "BENCH" "Bechamel micro-benchmarks (the core suite; artifact: main.exe suite --json)";
  let core = Option.get (Microbench.find_suite "core") in
  List.iter
    (fun (r : Microbench.row) ->
      Printf.printf "%-42s %16.1f %s\n" r.name r.value (Microbench.unit_to_string r.unit))
    (core.run ~quota:0.5)

let experiments () =
  print_endline "tilesched experiment harness - reproduces every figure of";
  print_endline "\"Scheduling Sensors by Tiling Lattices\" (Klappenecker, Lee, Welch 2008)";
  print_endline "plus the quantitative evaluation its introduction motivates.";
  figures ();
  theorem1 ();
  theorem2 ();
  figure5_quantified ();
  finite_restriction ();
  mobile ();
  exactness_catalogue ();
  golomb_welch ();
  slot_comparison ();
  protocol_comparison ();
  scalability ();
  timesync_ablation ();
  bn_ablation ();
  channel_ablation ();
  aloha_tuning ();
  parallel_speedup ();
  engine_shootout ();
  server_loadgen ();
  store_warm_start ();
  micro_benchmarks ();
  print_endline "\nall experiments complete.";
  Cmdliner.Cmd.Exit.ok

let () =
  let open Cmdliner in
  exit
    (Cmd.eval'
       (Cmd.group
          ~default:Term.(const experiments $ const ())
          (Cmd.info "bench"
             ~doc:
               "The tilesched experiment harness: with no command, every EXP-* section; \
                $(b,suite) runs one benchmark suite or validates its artifact; $(b,loadgen) \
                drives the schedule server.")
          [ Commands.suite; Commands.loadgen ]))
