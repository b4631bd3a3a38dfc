(* Tests for the domain pool and for the determinism contract of every
   parallel entry point: at jobs = 1, 2, 4 and 8 the search engines and
   the simulation sweep must return values structurally identical to the
   sequential run - not just equal solution sets, the same lists in the
   same order.  The steal-schedule fuzzer additionally randomizes victim
   selection to exercise schedules round-robin stealing never takes. *)

open Lattice

(* ---------- pool primitives ---------- *)

let test_map_matches_list_map () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let f x = (x * x) + 1 in
      Alcotest.(check (list int)) "map = List.map" (List.map f xs) (Parallel.map pool f xs);
      Alcotest.(check (list int)) "empty" [] (Parallel.map pool f []))

let test_map_array_indexing () =
  Parallel.with_pool ~jobs:3 (fun pool ->
      let xs = Array.init 257 string_of_int in
      let ys = Parallel.map_array pool (fun s -> s ^ "!") xs in
      Array.iteri
        (fun i y -> Alcotest.(check string) "slot i holds f xs.(i)" (xs.(i) ^ "!") y)
        ys)

let test_filter_concat_map () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 50 Fun.id in
      let f x = if x mod 3 = 0 then Some (-x) else None in
      Alcotest.(check (list int)) "filter_map order kept" (List.filter_map f xs)
        (Parallel.filter_map pool f xs);
      let g x = List.init (x mod 4) (fun i -> (10 * x) + i) in
      Alcotest.(check (list int)) "concat_map order kept" (List.concat_map g xs)
        (Parallel.concat_map pool g xs))

let test_jobs_one_inline () =
  Parallel.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Parallel.jobs pool);
      let witness = Atomic.make [] in
      Parallel.parallel_for pool ~n:5 (fun i -> Atomic.set witness (i :: Atomic.get witness));
      (* jobs = 1 runs inline on this domain, so the order is the loop's. *)
      Alcotest.(check (list int)) "inline order" [ 4; 3; 2; 1; 0 ] (Atomic.get witness))

exception Boom of int

let test_exception_propagates_pool_survives () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      (match Parallel.map pool (fun x -> if x = 13 then raise (Boom x) else x) (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 13 -> ());
      (* The batch drained; the pool must still work. *)
      Alcotest.(check (list int)) "pool usable after exception" [ 0; 2; 4 ]
        (Parallel.map pool (fun x -> 2 * x) [ 0; 1; 2 ]))

let test_reentrant_nesting () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      (* An inner batch on the same pool must fall back to inline
         execution instead of deadlocking on the busy workers. *)
      let got =
        Parallel.map pool
          (fun x -> List.fold_left ( + ) 0 (Parallel.map pool (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested map" [ 6; 12; 18; 24 ] got)

let test_shutdown_idempotent_then_inline () =
  let pool = Parallel.create ~jobs:3 in
  Alcotest.(check (list int)) "before shutdown" [ 1; 2; 3 ]
    (Parallel.map pool (fun x -> x + 1) [ 0; 1; 2 ]);
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  Alcotest.(check (list int)) "after shutdown runs inline" [ 1; 2; 3 ]
    (Parallel.map pool (fun x -> x + 1) [ 0; 1; 2 ])

let test_set_default_jobs () =
  Parallel.set_default_jobs 2;
  Alcotest.(check int) "resized" 2 (Parallel.jobs (Parallel.default ()));
  Parallel.set_default_jobs 1;
  Alcotest.(check int) "back to sequential" 1 (Parallel.jobs (Parallel.default ()))

(* ---------- determinism: searches and sweeps ---------- *)

(* Run [f] at jobs = 1, 2, 4 and require structural identity with the
   sequential result. *)
let check_jobs_invariant name f =
  let reference = Parallel.with_pool ~jobs:1 f in
  List.iter
    (fun jobs ->
      let v = Parallel.with_pool ~jobs f in
      Alcotest.(check bool)
        (Printf.sprintf "%s identical at jobs=%d" name jobs)
        true (v = reference))
    [ 2; 4 ]

let test_lattice_tilings_deterministic () =
  List.iter
    (fun (name, p) ->
      check_jobs_invariant
        ("lattice_tilings " ^ name)
        (fun pool -> Tiling.Search.lattice_tilings ~pool p))
    [ ("cheb1", Prototile.chebyshev_ball ~dim:2 1); ("cheb2", Prototile.chebyshev_ball ~dim:2 2);
      ("manhattan2", Prototile.manhattan_ball ~dim:2 2); ("tet-S", Prototile.tetromino `S) ]

let sz_period = lazy (Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |])

let engines : (Tiling.Search.engine * string) list =
  [ (`Backtracking, "bt"); (`Dlx, "dlx"); (`Bitmask, "bitmask") ]

let test_cover_torus_deterministic () =
  let period = Lazy.force sz_period in
  let prototiles = [ Prototile.tetromino `S; Prototile.tetromino `Z ] in
  List.iter
    (fun (engine, ename) ->
      (* Both the truncated list (budget bites mid-merge) and the full
         enumeration must be reproduced. *)
      List.iter
        (fun max_solutions ->
          check_jobs_invariant
            (Printf.sprintf "cover_torus %s max=%d" ename max_solutions)
            (fun pool ->
              Tiling.Search.cover_torus ~period ~prototiles ~max_solutions ~engine ~pool ()))
        [ 7; 50; 1000 ])
    engines

let test_cover_torus_multi_prototile_deterministic () =
  (* A heterogeneous instance: 2x2 squares plus single-cell fillers on a
     non-square quotient, where root placements use different tiles. *)
  let period = Sublattice.of_basis [| [| 5; 0 |]; [| 0; 2 |] |] in
  let prototiles = [ Prototile.rect 2 2; Prototile.of_cells [ Zgeom.Vec.zero 2 ] ] in
  List.iter
    (fun (engine, _) ->
      check_jobs_invariant "cover_torus squares+singles" (fun pool ->
          Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:200 ~engine ~pool ()))
    engines

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let test_three_way_engine_oracle () =
  (* The strongest form of the engine contract: over a randomized corpus
     of torus instances, all three engines return the same ORDERED
     solution list, the bitmask engine at every pool size, and
     truncation to any [max_solutions] is a prefix of that list.  The
     two oracles run sequentially whatever the pool, so they are checked
     at jobs = 1 only.  Instance generation mirrors test_tiling's
     differential corpus (one Splitmix64 stream, so a failure replays
     from the loop index).  Pools are created once per size: the matrix
     is engine x jobs x prefix, and per-solve domain spawning would
     dominate it. *)
  let sm = Prng.Splitmix64.create 2027L in
  let draw bound =
    Int64.to_int (Int64.unsigned_rem (Prng.Splitmix64.next sm) (Int64.of_int bound))
  in
  let pools = List.map (fun jobs -> (jobs, Parallel.create ~jobs)) [ 1; 2; 4; 8 ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, pool) -> Parallel.shutdown pool) pools)
    (fun () ->
      for instance = 1 to 12 do
        let a = 1 + draw 3 in
        let b = 1 + draw 3 in
        let b = if a * b < 2 then 2 else b in
        let c = draw a in
        let period = Sublattice.of_basis [| [| a; 0 |]; [| c; b |] |] in
        let rng = Prng.Xoshiro.create (Prng.Splitmix64.next sm) in
        let poly () = Randomtile.polyomino rng ~cells:(2 + draw 3) in
        (* A single-cell filler keeps every instance satisfiable. *)
        let prototiles =
          (poly () :: (if draw 2 = 0 then [ poly () ] else []))
          @ [ Prototile.of_cells [ Zgeom.Vec.zero 2 ] ]
        in
        let solve ~engine ~pool ~max_solutions =
          Tiling.Search.cover_torus ~period ~prototiles ~max_solutions ~engine ~pool ()
        in
        let reference = solve ~engine:`Bitmask ~pool:(List.assoc 1 pools) ~max_solutions:100_000 in
        let len = List.length reference in
        (* Every short prefix, then a sparse ladder up to and past the
           full enumeration - the budget must bite correctly at every
           boundary without the matrix exploding. *)
        let prefixes =
          List.sort_uniq Stdlib.compare
            (List.filter (fun m -> m >= 1) [ 1; 2; 3; 5; 8; 13; len - 1; len; len + 7 ])
        in
        List.iter
          (fun (engine, ename) ->
            let engine_pools = if engine = `Bitmask then pools else [ List.hd pools ] in
            List.iter
              (fun (jobs, pool) ->
                let full = solve ~engine ~pool ~max_solutions:100_000 in
                Alcotest.(check bool)
                  (Printf.sprintf "instance %d: %s jobs=%d = reference" instance ename jobs)
                  true (full = reference);
                List.iter
                  (fun m ->
                    let truncated = solve ~engine ~pool ~max_solutions:m in
                    Alcotest.(check bool)
                      (Printf.sprintf "instance %d: %s jobs=%d max=%d is a prefix" instance
                         ename jobs m)
                      true
                      (truncated = take m reference))
                  prefixes)
              engine_pools)
          engines
      done)

let test_count_matches_enumeration () =
  (* [count_torus_covers] = length of the full [cover_torus] enumeration,
     for every engine and pool size (the counting path skips all
     materialization, so it exercises different code). *)
  let check label ~period ~prototiles =
    let expected =
      List.length (Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:max_int ())
    in
    List.iter
      (fun (engine, ename) ->
        List.iter
          (fun jobs ->
            let n =
              Parallel.with_pool ~jobs (fun pool ->
                  Tiling.Search.count_torus_covers ~period ~prototiles ~engine ~pool ())
            in
            Alcotest.(check int) (Printf.sprintf "%s: %s jobs=%d" label ename jobs) expected n)
          [ 1; 2; 4 ])
      engines
  in
  check "S/Z 4x4" ~period:(Lazy.force sz_period)
    ~prototiles:[ Prototile.tetromino `S; Prototile.tetromino `Z ];
  check "squares+singles 5x2"
    ~period:(Sublattice.of_basis [| [| 5; 0 |]; [| 0; 2 |] |])
    ~prototiles:[ Prototile.rect 2 2; Prototile.of_cells [ Zgeom.Vec.zero 2 ] ];
  (* Unsatisfiable instance: a domino can't cover an odd quotient. *)
  check "domino 3x1"
    ~period:(Sublattice.of_basis [| [| 3; 0 |]; [| 0; 1 |] |])
    ~prototiles:[ Prototile.rect 2 1 ]

(* ---------- steal-schedule fuzzer ---------- *)

(* A self-splitting range task: enumerate [lo, hi), and whenever a thief
   is starving give away the upper half as a fresh task.  Chunks and
   spawned tasks are keyed by their start index, so key order is numeric
   order and the merged output must be the plain 0..n-1 enumeration no
   matter how the range was carved up.  This is the same
   key-the-continuation discipline the bitmask engine uses, in the
   smallest form that still exercises it. *)
let rec range_body ~leaf ~lo ~hi ctx =
  let hi = ref hi in
  let i = ref lo in
  let acc = ref [] in
  while !i < !hi do
    if Parallel.Steal.should_split ctx && !hi - !i > 2 then begin
      let mid = (!i + !hi + 1) / 2 in
      let top = !hi in
      Parallel.Steal.spawn ctx ~key:[ mid ] (range_body ~leaf ~lo:mid ~hi:top);
      hi := mid
    end;
    acc := leaf !i :: !acc;
    incr i
  done;
  [ ([ lo ], List.rev !acc) ]

let test_steal_schedule_fuzzer () =
  (* ~100 seeded runs with victim selection driven off a Xoshiro stream
     (mutex-protected: the hook runs concurrently on worker domains).
     Whatever steal schedule the stream induces, the merged output must
     be bit-identical to the sequential enumeration.  Task sizes are
     deliberately lopsided so thieves starve and force lazy splits. *)
  let n = 1000 in
  (* Leaves burn a couple of microseconds each so the fat task lives
     long enough for thieves to starve against it even on one core -
     with trivial leaves the lazy-split path almost never fires. *)
  let leaf i =
    let h = ref i in
    for _ = 1 to 2000 do
      h := (!h * 1103515245) + 12345
    done;
    !h lxor i
  in
  let expected = List.init n leaf in
  let pools = List.map (fun jobs -> (jobs, Parallel.create ~jobs)) [ 2; 4; 8 ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, pool) -> Parallel.shutdown pool) pools)
    (fun () ->
      for seed = 1 to 100 do
        let jobs, pool = List.nth pools (seed mod 3) in
        let rng = Prng.Xoshiro.create (Int64.of_int (0x5eed + seed)) in
        let mu = Mutex.create () in
        let victim ~thief:_ ~round:_ ~victims =
          Mutex.lock mu;
          let v = Prng.Xoshiro.int rng victims in
          Mutex.unlock mu;
          v
        in
        (* One fat task and two slivers: the fat one must be stolen from
           and re-split for the others to ever eat. *)
        let cuts = [ (0, n - 100); (n - 100, n - 50); (n - 50, n) ] in
        let tasks =
          Array.of_list
            (List.map (fun (lo, hi) -> ([ lo ], range_body ~leaf ~lo ~hi)) cuts)
        in
        let weights = Array.of_list (List.map (fun (lo, hi) -> float (hi - lo)) cuts) in
        let chunks = Parallel.Steal.run pool ~victim ~weights tasks in
        let got = List.concat_map snd chunks in
        Alcotest.(check (list int))
          (Printf.sprintf "seed %d jobs=%d merged output" seed jobs)
          expected got
      done)

(* ---------- adversarial skewed instance (EXP-P3) ---------- *)

let test_skew_instance () =
  (* The benchmark's skewed instance really is skewed - one root branch
     owns at least 90% of the covers - and the parallel runs agree with
     the sequential count and enumeration on it. *)
  let n = 20 in
  let share = Microbench.skew_root_share ~n in
  Alcotest.(check bool)
    (Printf.sprintf "fat root branch share %.3f >= 0.9" share)
    true (share >= 0.9);
  let period, prototiles = Microbench.skew_instance ~n in
  let expected = 1 + (n * n) in
  let reference =
    Parallel.with_pool ~jobs:1 (fun pool ->
        Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:max_int ~pool ())
  in
  Alcotest.(check int) "cover count is 1 + n^2" expected (List.length reference);
  List.iter
    (fun jobs ->
      Parallel.with_pool ~jobs (fun pool ->
          Alcotest.(check int)
            (Printf.sprintf "count jobs=%d" jobs)
            expected
            (Tiling.Search.count_torus_covers ~period ~prototiles ~pool ());
          Alcotest.(check bool)
            (Printf.sprintf "enumeration jobs=%d identical" jobs)
            true
            (Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:max_int ~pool ()
            = reference)))
    [ 2; 4 ]

let test_chromatic_number_deterministic () =
  (* Random graphs of varying density; the parallel k-colorability
     decision must agree with the sequential branch and bound. *)
  let rng = Prng.Xoshiro.create 2026L in
  for n = 4 to 12 do
    let adj = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Prng.Xoshiro.bernoulli rng 0.4 then begin
          adj.(i).(j) <- true;
          adj.(j).(i) <- true
        end
      done
    done;
    check_jobs_invariant
      (Printf.sprintf "chromatic_number n=%d" n)
      (fun pool -> Core.Optimality.chromatic_number ~pool adj)
  done

let test_ground_rule_minimum_deterministic () =
  let period = Lazy.force sz_period in
  let prototiles = [ Prototile.tetromino `S; Prototile.tetromino `Z ] in
  let sols = Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:3 () in
  List.iter
    (fun m ->
      check_jobs_invariant "ground_rule_minimum" (fun pool ->
          Core.Optimality.ground_rule_minimum ~pool m))
    sols

let test_run_sweep_deterministic () =
  let prototile = Prototile.chebyshev_ball ~dim:2 1 in
  let tiling = Option.get (Tiling.Search.find_tiling prototile) in
  let mac = Netsim.Mac.lattice_tdma (Core.Schedule.of_tiling tiling) in
  let cfg =
    { (Netsim.Sim.default_config ~mac) with width = 8; height = 8; prototile; duration = 500 }
  in
  let seeds = List.init 5 (fun i -> Int64.of_int (100 + i)) in
  (* The sweep must equal mapping the sequential runner over the seeds... *)
  let reference = List.map (fun seed -> Netsim.Sim.run { cfg with seed }) seeds in
  Alcotest.(check bool) "sweep = sequential map" true
    (Parallel.with_pool ~jobs:1 (fun pool -> Netsim.Sim.run_sweep ~pool cfg ~seeds) = reference);
  (* ...at every pool size. *)
  check_jobs_invariant "run_sweep" (fun pool -> Netsim.Sim.run_sweep ~pool cfg ~seeds);
  (* And a contention MAC, whose per-node state is driven by the per-run
     RNG streams - the harder case for cross-run isolation. *)
  let aloha_cfg =
    { (Netsim.Sim.default_config ~mac:(Netsim.Mac.slotted_aloha ~p:0.2 ~max_backoff_exp:5)) with
      width = 8; height = 8; prototile; duration = 500 }
  in
  check_jobs_invariant "run_sweep aloha" (fun pool ->
      Netsim.Sim.run_sweep ~pool aloha_cfg ~seeds)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "map_array indexing" `Quick test_map_array_indexing;
          Alcotest.test_case "filter/concat map" `Quick test_filter_concat_map;
          Alcotest.test_case "jobs=1 inline" `Quick test_jobs_one_inline;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates_pool_survives;
          Alcotest.test_case "re-entrant nesting" `Quick test_reentrant_nesting;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_then_inline;
          Alcotest.test_case "default pool resize" `Quick test_set_default_jobs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "lattice tilings" `Quick test_lattice_tilings_deterministic;
          Alcotest.test_case "cover_torus S/Z" `Quick test_cover_torus_deterministic;
          Alcotest.test_case "cover_torus multi" `Quick test_cover_torus_multi_prototile_deterministic;
          Alcotest.test_case "three-way engine oracle" `Quick test_three_way_engine_oracle;
          Alcotest.test_case "count = enumeration length" `Quick test_count_matches_enumeration;
          Alcotest.test_case "steal-schedule fuzzer" `Quick test_steal_schedule_fuzzer;
          Alcotest.test_case "skewed instance" `Quick test_skew_instance;
          Alcotest.test_case "chromatic number" `Quick test_chromatic_number_deterministic;
          Alcotest.test_case "ground-rule minimum" `Quick test_ground_rule_minimum_deterministic;
          Alcotest.test_case "netsim sweep" `Quick test_run_sweep_deterministic;
        ] );
    ]
