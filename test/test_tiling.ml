(* Tests for tiling representation, verification and search. *)
open Zgeom
open Lattice

let vec = Alcotest.testable Vec.pp Vec.equal

(* --- Single --- *)

let rect22_tiling () =
  Tiling.Single.make_exn ~prototile:(Prototile.rect 2 2)
    ~period:(Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |])
    ~offsets:[ Vec.zero 2 ]

let test_make_valid () =
  let t = rect22_tiling () in
  Alcotest.(check int) "slots" 4 (Tiling.Single.slots t);
  Alcotest.(check bool) "window check" true (Tiling.Single.check_window t ~radius:5)

let test_make_rejects_overlap () =
  (* 2x2 square with period index 4 but cells congruent: e.g. period
     generated by (1,0),(0,4) has index 4 yet (0,0) = (1,0) mod. *)
  match
    Tiling.Single.make ~prototile:(Prototile.rect 2 2)
      ~period:(Sublattice.of_basis [| [| 1; 0 |]; [| 0; 4 |] |])
      ~offsets:[ Vec.zero 2 ]
  with
  | Ok _ -> Alcotest.fail "overlapping tiling accepted"
  | Error _ -> ()

let test_make_rejects_count_mismatch () =
  match
    Tiling.Single.make ~prototile:(Prototile.rect 2 2)
      ~period:(Sublattice.of_basis [| [| 3; 0 |]; [| 0; 2 |] |])
      ~offsets:[ Vec.zero 2 ]
  with
  | Ok _ -> Alcotest.fail "count mismatch accepted"
  | Error msg -> Alcotest.(check bool) "mentions mismatch" true (String.length msg > 0)

let test_make_rejects_dim_mismatch () =
  match
    Tiling.Single.make
      ~prototile:(Prototile.of_cells [ Vec.of_list [ 0 ]; Vec.of_list [ 1 ] ])
      ~period:(Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |])
      ~offsets:[ Vec.zero 2 ]
  with
  | Ok _ -> Alcotest.fail "dimension mismatch accepted"
  | Error _ -> ()

let test_tile_of_roundtrip () =
  let t = rect22_tiling () in
  for x = -4 to 4 do
    for y = -4 to 4 do
      let v = Vec.make2 x y in
      let s, n = Tiling.Single.tile_of t v in
      Alcotest.check vec "s + n = v" v (Vec.add s n);
      Alcotest.(check bool) "s in T" true (Tiling.Single.in_translation_set t s);
      Alcotest.(check bool) "n a cell" true
        (Prototile.mem (Tiling.Single.prototile t) n)
    done
  done

let test_offsets_tiling () =
  (* Non-lattice tiling: dominoes in brick pattern - period (2,0),(1,2)
     would be a lattice; instead use period (2,0),(0,4)? Offsets {0,(1,2)}
     with horizontal dominoes: rows shifted by 1 every other row. *)
  let domino = Prototile.rect 2 1 in
  let t =
    Tiling.Single.make_exn ~prototile:domino
      ~period:(Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |])
      ~offsets:[ Vec.zero 2; Vec.make2 1 1 ]
  in
  Alcotest.(check int) "two offsets" 2 (List.length (Tiling.Single.offsets t));
  Alcotest.(check bool) "window" true (Tiling.Single.check_window t ~radius:5)

let test_translations_in_window () =
  let t = rect22_tiling () in
  let ts = Tiling.Single.translations_in_window t ~radius:3 in
  Alcotest.(check bool) "anchors cover window" true (List.length ts >= 9);
  List.iter
    (fun s -> Alcotest.(check bool) "anchor in T" true (Tiling.Single.in_translation_set t s))
    ts

(* 1-D: the {0,2} prototile needs two offsets (no lattice tiling). *)
let test_1d_gapped_prototile () =
  let p = Prototile.of_cells [ Vec.of_list [ 0 ]; Vec.of_list [ 2 ] ] in
  Alcotest.(check bool) "no 1-D lattice tiling" true (Tiling.Search.lattice_tilings p = []);
  let t =
    Tiling.Single.make_exn ~prototile:p
      ~period:(Sublattice.of_basis [| [| 4 |] |])
      ~offsets:[ Vec.of_list [ 0 ]; Vec.of_list [ 1 ] ]
  in
  Alcotest.(check bool) "valid with offsets {0,1} mod 4" true
    (Tiling.Single.check_window t ~radius:8)

(* --- Multi --- *)

let sz_tilings () =
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:200 ()

let test_multi_make_valid () =
  let sols = sz_tilings () in
  Alcotest.(check bool) "solutions exist" true (sols <> []);
  List.iter
    (fun m -> Alcotest.(check bool) "window verifies" true (Tiling.Multi.check_window m ~radius:5))
    (List.filteri (fun i _ -> i < 3) sols)

let test_multi_mixed_exists () =
  let mixed = List.filter (fun m -> List.length (Tiling.Multi.pieces m) = 2) (sz_tilings ()) in
  Alcotest.(check bool) "mixed S/Z tilings exist" true (mixed <> [])

let test_multi_respectable_detection () =
  (* Chebyshev ball + its single-cell subset: a respectable pair. *)
  let big = Prototile.chebyshev_ball ~dim:2 1 in
  (* A 3x3 ball tiling of period 3Z x 3Z, all of one piece: trivially
     respectable (one prototile). *)
  let t =
    Tiling.Single.make_exn ~prototile:big
      ~period:(Sublattice.of_basis [| [| 3; 0 |]; [| 0; 3 |] |])
      ~offsets:[ Vec.make2 1 1 ]
  in
  let m = Tiling.Multi.of_single t in
  Alcotest.(check bool) "single-prototile tiling respectable" true (Tiling.Multi.is_respectable m);
  let mixed = List.filter (fun m -> List.length (Tiling.Multi.pieces m) = 2) (sz_tilings ()) in
  List.iter
    (fun m ->
      Alcotest.(check bool) "S/Z mix non-respectable" false (Tiling.Multi.is_respectable m))
    (List.filteri (fun i _ -> i < 3) mixed)

let test_multi_union_cells () =
  match List.filter (fun m -> List.length (Tiling.Multi.pieces m) = 2) (sz_tilings ()) with
  | [] -> Alcotest.fail "no mixed tiling"
  | m :: _ ->
    Alcotest.(check int) "S u Z has 6 cells" 6 (List.length (Tiling.Multi.union_cells m))

let test_multi_tile_of () =
  match sz_tilings () with
  | [] -> Alcotest.fail "no tiling"
  | m :: _ ->
    for x = -3 to 3 do
      for y = -3 to 3 do
        let v = Vec.make2 x y in
        let k, s, n = Tiling.Multi.tile_of m v in
        Alcotest.check vec "s + n = v" v (Vec.add s n);
        let piece = List.nth (Tiling.Multi.pieces m) k in
        Alcotest.(check bool) "n cell of piece" true (Prototile.mem piece.Tiling.Multi.tile n)
      done
    done

let test_multi_rejects_empty_piece () =
  let s = Prototile.tetromino `S in
  match
    Tiling.Multi.make
      ~period:(Sublattice.of_basis [| [| 4; 0 |]; [| 0; 1 |] |])
      [ { Tiling.Multi.tile = s; piece_offsets = [ Vec.zero 2 ] };
        { Tiling.Multi.tile = s; piece_offsets = [] } ]
  with
  | Ok _ -> Alcotest.fail "empty piece accepted"
  | Error _ -> ()

(* --- Oracles --- *)

let qcheck_dlx_vs_bruteforce =
  (* Tiny random exact-cover instances: DLX agrees with enumerating all
     2^k subset selections. *)
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun universe ->
      int_range 1 8 >>= fun num_subsets ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      let subsets =
        List.init num_subsets (fun _ ->
            List.filter (fun _ -> Prng.Xoshiro.bool rng) (List.init universe Fun.id))
        |> List.filter (fun s -> s <> [])
      in
      (universe, subsets))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"dlx agrees with brute force on random instances" ~count:150 arb
    (fun (universe, subsets) ->
      let k = List.length subsets in
      let arr = Array.of_list subsets in
      let brute = ref [] in
      for mask = 0 to (1 lsl k) - 1 do
        let count = Array.make universe 0 in
        for i = 0 to k - 1 do
          if mask land (1 lsl i) <> 0 then List.iter (fun e -> count.(e) <- count.(e) + 1) arr.(i)
        done;
        if Array.for_all (fun c -> c = 1) count then begin
          let sel = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init k Fun.id) in
          brute := sel :: !brute
        end
      done;
      let dlx = Oracle.Dlx.solve (Oracle.Dlx.create ~universe subsets) in
      List.sort Stdlib.compare !brute = List.sort Stdlib.compare dlx)

let test_engines_agree () =
  (* All three solvers share one branching rule, so they enumerate the
     same tilings in the same ORDER - structural list equality, not just
     set equality. *)
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  List.iter
    (fun period ->
      let prototiles = [ s; z ] in
      let solve engine = Oracle.Torus.covers ~engine ~period ~prototiles ~max_solutions:1000 () in
      let bt = solve `Backtracking and dlx = solve `Dlx in
      let bm = Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:1000 () in
      Alcotest.(check int) "bt/dlx count" (List.length bt) (List.length dlx);
      Alcotest.(check int) "bt/bitmask count" (List.length bt) (List.length bm);
      Alcotest.(check bool) "bt = dlx (ordered)" true (bt = dlx);
      Alcotest.(check bool) "bt = bitmask (ordered)" true (bt = bm))
    [ Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |];
      Sublattice.of_basis [| [| 4; 0 |]; [| 2; 4 |] |];
      Sublattice.of_basis [| [| 8; 0 |]; [| 0; 2 |] |] ]

let qcheck_engines_differential =
  (* Differential corpus: random small torus quotients x random prototile
     sets, all three engines enumerated to exhaustion and compared as
     ordered lists.  All instance choices derive from one Splitmix64
     stream keyed by the QCheck-drawn integer, so a failure replays from
     a single seed. *)
  let gen = QCheck.Gen.int_bound 1_000_000 in
  let arb = QCheck.make ~print:string_of_int gen in
  QCheck.Test.make ~name:"engines agree on random tori" ~count:60 arb (fun seed ->
      let sm = Prng.Splitmix64.create (Int64.of_int seed) in
      let draw bound =
        Int64.to_int (Int64.unsigned_rem (Prng.Splitmix64.next sm) (Int64.of_int bound))
      in
      (* Random 2-D HNF period [[a,0],[c,b]] with index a*b in 2..10. *)
      let a = 1 + draw 3 in
      let b = 1 + draw 3 in
      let b = if a * b < 2 then 2 else b in
      let c = draw a in
      let period = Sublattice.of_basis [| [| a; 0 |]; [| c; b |] |] in
      let rng = Prng.Xoshiro.create (Prng.Splitmix64.next sm) in
      let poly () = Randomtile.polyomino rng ~cells:(2 + draw 3) in
      (* A single-cell filler keeps every instance satisfiable, so the
         test exercises the enumeration, not just empty agreement. *)
      let prototiles =
        (poly () :: (if draw 2 = 0 then [ poly () ] else []))
        @ [ Prototile.of_cells [ Vec.zero 2 ] ]
      in
      let solve engine =
        Oracle.Torus.covers ~engine ~period ~prototiles ~max_solutions:100_000 ()
      in
      let bt = solve `Backtracking and dlx = solve `Dlx in
      let bm = Tiling.Search.cover_torus ~period ~prototiles ~max_solutions:100_000 () in
      (* Ordered equality: the shared branching rule makes the three
         enumerations structurally identical, not just equal as sets. *)
      bt = dlx && bt = bm)

(* --- Search --- *)

let test_lattice_tilings_counts () =
  (* 2x2 square: lattice tilings = sublattices of index 4 with distinct
     residues. *)
  let p = Prototile.rect 2 2 in
  let ls = Tiling.Search.lattice_tilings p in
  Alcotest.(check bool) "several lattice tilings" true (List.length ls >= 1);
  List.iter
    (fun lam ->
      match Tiling.Single.lattice_tiling p lam with
      | Ok t -> Alcotest.(check bool) "verifies" true (Tiling.Single.check_window t ~radius:4)
      | Error e -> Alcotest.fail e)
    ls

let test_find_tiling_balls () =
  List.iter
    (fun r ->
      let p = Prototile.chebyshev_ball ~dim:2 r in
      match Tiling.Search.find_tiling p with
      | Some t ->
        Alcotest.(check int) "index = size" (Prototile.size p)
          (Sublattice.index (Tiling.Single.period t) / List.length (Tiling.Single.offsets t));
        Alcotest.(check bool) "window" true (Tiling.Single.check_window t ~radius:(2 * r))
      | None -> Alcotest.fail "chebyshev balls tile")
    [ 1; 2; 3 ]

let test_euclidean_ball_tiles () =
  (* The 5-cell plus (Euclidean ball r=1) tiles by the index-5 diagonal
     lattice (classic). *)
  match Tiling.Search.find_lattice_tiling (Prototile.euclidean_ball ~dim:2 1) with
  | Some t -> Alcotest.(check bool) "window" true (Tiling.Single.check_window t ~radius:5)
  | None -> Alcotest.fail "plus pentomino tiles"

let test_exactness_decisions () =
  let check name expected p =
    let verdict = Tiling.Search.exactness p in
    let show = function `Exact -> "exact" | `NotExact -> "not-exact" | `Unknown -> "unknown" in
    Alcotest.(check string) name (show expected) (show verdict)
  in
  check "S exact" `Exact (Prototile.tetromino `S);
  check "U5 not exact" `NotExact (Prototile.pentomino `U);
  check "F5 not exact" `NotExact (Prototile.pentomino `F);
  check "{0,2} 1-D exact (torus search)" `Exact
    (Prototile.of_cells [ Vec.of_list [ 0 ]; Vec.of_list [ 2 ] ]);
  check "diagonal pair exact" `Exact
    (Prototile.of_cells [ Vec.make2 0 0; Vec.make2 1 1 ]);
  check "holey heptomino not exact" `NotExact
    (Prototile.of_cells
       (List.map (fun (x, y) -> Vec.make2 x y)
          [ (0, 0); (1, 0); (2, 0); (0, 1); (2, 1); (0, 2); (1, 2) ]))

let test_3d_box_tiles () =
  let p =
    Prototile.of_cells
      (List.concat_map
         (fun x -> List.concat_map (fun y -> List.init 2 (fun z -> Vec.of_list [ x; y; z ])) [ 0; 1 ])
         [ 0; 1 ])
  in
  match Tiling.Search.find_lattice_tiling p with
  | Some t -> Alcotest.(check bool) "2x2x2 box tiles Z^3" true (Tiling.Single.check_window t ~radius:3)
  | None -> Alcotest.fail "box must tile"

let test_cover_torus_counts () =
  (* Dominoes on a 2x2 torus: a horizontal domino covers a full row (any
     of 2 anchors per row), a vertical one a full column, and mixing
     orientations always overlaps: 2*2 horizontal + 2*2 vertical = 8. *)
  let domino_h = Prototile.rect 2 1 in
  let domino_v = Prototile.rect 1 2 in
  let period = Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |] in
  let sols = Tiling.Search.cover_torus ~period ~prototiles:[ domino_h; domino_v ] () in
  Alcotest.(check int) "8 domino tilings of the 2x2 torus" 8 (List.length sols)

let test_cover_torus_respects_max () =
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let sols = Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:5 () in
  Alcotest.(check int) "capped" 5 (List.length sols)

let test_find_respectable () =
  (* 2x2 square containing the single cell: respectable pairs exist. *)
  let n1 = Prototile.rect 2 2 in
  let n2 = Prototile.of_cells [ Vec.zero 2 ] in
  let sols = Tiling.Search.find_respectable [ n1; n2 ] ~max_solutions:4 () in
  Alcotest.(check bool) "found respectable two-piece tilings" true (sols <> []);
  List.iter
    (fun m ->
      Alcotest.(check bool) "respectable" true (Tiling.Multi.is_respectable m);
      Alcotest.(check int) "uses both pieces" 2 (List.length (Tiling.Multi.pieces m));
      Alcotest.(check bool) "verifies" true (Tiling.Multi.check_window m ~radius:5))
    sols

let test_cover_torus_keep_filters_during_search () =
  (* [keep] = filter-then-truncate semantics: the filtered search equals
     List.filter over the unfiltered enumeration, cut to the budget -
     and the budget counts only kept solutions. *)
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  let mixed m = List.length (Tiling.Multi.pieces m) = 2 in
  let all =
    Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:max_int ()
  in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl
  in
  List.iter
    (fun solve ->
      List.iter
        (fun budget ->
          let kept = solve budget in
          Alcotest.(check bool) "filter-then-truncate" true
            (kept = take budget (List.filter mixed all));
          Alcotest.(check bool) "all kept are mixed" true (List.for_all mixed kept))
        [ 1; 3; max_int ])
    [ (fun max_solutions ->
        Oracle.Torus.covers ~engine:`Backtracking ~period ~prototiles:[ s; z ] ~max_solutions
          ~keep:mixed ());
      (fun max_solutions ->
        Oracle.Torus.covers ~engine:`Dlx ~period ~prototiles:[ s; z ] ~max_solutions
          ~keep:mixed ());
      (fun max_solutions ->
        Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions ~keep:mixed ()) ]

let test_find_respectable_early_stop_is_prefix () =
  (* The early-stopping rewrite must change nothing observable: a
     smaller budget returns a prefix of a larger budget's list. *)
  let n1 = Prototile.rect 2 2 in
  let n2 = Prototile.of_cells [ Vec.zero 2 ] in
  let four = Tiling.Search.find_respectable [ n1; n2 ] ~max_solutions:4 () in
  let two = Tiling.Search.find_respectable [ n1; n2 ] ~max_solutions:2 () in
  Alcotest.(check int) "budget reached" 4 (List.length four);
  Alcotest.(check bool) "smaller budget is a prefix" true
    (two = [ List.nth four 0; List.nth four 1 ])

let test_find_respectable_rejects_bad_order () =
  let n1 = Prototile.of_cells [ Vec.zero 2 ] in
  let n2 = Prototile.rect 2 2 in
  match Tiling.Search.find_respectable [ n1; n2 ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject non-containing first prototile"

let test_lee_spheres_golomb_welch () =
  (* Perfect Lee codes: diamonds tile Z^2 at every radius; the radius-1
     cross tiles Z^d; Golomb-Welch (proved for d=3): the d=3, r=2 Lee
     sphere does not tile. *)
  Alcotest.(check bool) "2-D r=2 diamond tiles" true
    (Tiling.Search.lattice_tilings (Prototile.manhattan_ball ~dim:2 2) <> []);
  Alcotest.(check bool) "3-D r=1 cross tiles" true
    (Tiling.Search.lattice_tilings (Prototile.manhattan_ball ~dim:3 1) <> []);
  Alcotest.(check bool) "3-D r=2 sphere: no lattice tiling" true
    (Tiling.Search.lattice_tilings (Prototile.manhattan_ball ~dim:3 2) = [])

(* --- distinct torus covers: brute-force congruence oracle --- *)

(* Independent of the implementation's lex-min canonical key: serialize a
   cover translated by [u], and call two covers congruent when some
   quotient translation matches them.  Greedy clustering over the full
   enumeration is then an oracle for the class count. *)
let serialize_cover period u m =
  Tiling.Multi.pieces m
  |> List.map (fun pc ->
         ( Prototile.cells pc.Tiling.Multi.tile,
           List.sort Vec.compare
             (List.map
                (fun o -> Sublattice.reduce period (Vec.add o u))
                pc.Tiling.Multi.piece_offsets) ))
  |> List.sort compare

let congruent_covers period a b =
  let sb = serialize_cover period (Vec.zero (Sublattice.dim period)) b in
  List.exists (fun u -> serialize_cover period u a = sb) (Sublattice.cosets period)

let test_distinct_covers_oracle () =
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  let all =
    Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:max_int ()
  in
  let classes =
    List.fold_left
      (fun reps m -> if List.exists (congruent_covers period m) reps then reps else m :: reps)
      [] all
  in
  let distinct = Tiling.Search.distinct_torus_covers ~period ~prototiles:[ s; z ] () in
  Alcotest.(check int) "oracle class count" 58 (List.length classes);
  Alcotest.(check int) "distinct_torus_covers matches oracle" (List.length classes)
    (List.length distinct);
  (* The returned representatives are pairwise non-congruent and valid. *)
  let rec pairwise_ok = function
    | [] -> true
    | m :: tl ->
      List.for_all (fun m' -> not (congruent_covers period m m')) tl && pairwise_ok tl
  in
  Alcotest.(check bool) "representatives pairwise non-congruent" true (pairwise_ok distinct);
  List.iter
    (fun m ->
      Alcotest.(check bool) "representative verifies" true
        (Tiling.Multi.check_window m ~radius:5))
    distinct

let test_distinct_covers_max_classes () =
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 8 |] |] in
  let all = Tiling.Search.distinct_torus_covers ~period ~prototiles:[ s; z ] () in
  let three =
    Tiling.Search.distinct_torus_covers ~period ~prototiles:[ s; z ] ~max_classes:3 ()
  in
  Alcotest.(check int) "capped" 3 (List.length three);
  Alcotest.(check bool) "cap returns a prefix" true
    (three = [ List.nth all 0; List.nth all 1; List.nth all 2 ])

(* --- cover_region: plane rigidity and torus wrap freedom --- *)

let test_cover_region_plane_unique () =
  (* Exact covers of finite plane regions by one prototile are unique
     (lex-least-cell forcing); the solver must find exactly the base
     tiling's own cover back. *)
  List.iter
    (fun tile ->
      match Tiling.Search.find_tiling tile with
      | None -> Alcotest.fail "prototile must tile"
      | Some base ->
        let tiles =
          List.concat_map
            (fun x -> List.map (fun y -> fst (Tiling.Single.tile_of base (Vec.make2 x y))) (List.init 5 (fun i -> i - 2)))
            (List.init 5 (fun i -> i - 2))
          |> List.sort_uniq Vec.compare
        in
        let region =
          List.concat_map
            (fun s -> Vec.Set.elements (Prototile.translate s tile))
            tiles
        in
        let covers =
          Tiling.Search.cover_region ~region ~prototile:tile ~max_solutions:10 ()
        in
        Alcotest.(check int) "unique plane cover" 1 (List.length covers);
        Alcotest.(check bool) "the cover is the base tiling's" true
          (List.hd covers = List.sort Vec.compare tiles))
    [ Prototile.tetromino `S; Prototile.rect 1 2; Prototile.euclidean_ball ~dim:2 1 ]

let test_cover_region_torus_row () =
  (* One full wrapped row of the 8x8 torus, horizontal I-tetromino: the
     row slides freely - 4 covers, 3 of them avoiding a given anchor.
     This wrap freedom is exactly what Lifetime.Repair uses. *)
  let torus = Sublattice.of_basis [| [| 8; 0 |]; [| 0; 8 |] |] in
  let row = List.init 8 (fun x -> Vec.make2 x 2) in
  let i = Prototile.tetromino `I in
  let covers = Tiling.Search.cover_region ~region:row ~prototile:i ~torus () in
  Alcotest.(check int) "wrapped row slides" 4 (List.length covers);
  let keep ts = not (List.exists (Vec.equal (Vec.make2 0 2)) ts) in
  let avoiding = Tiling.Search.cover_region ~region:row ~prototile:i ~torus ~keep () in
  Alcotest.(check int) "anchor-avoiding covers" 3 (List.length avoiding);
  (* Same region without the torus: the plane row is rigid. *)
  let plane = Tiling.Search.cover_region ~region:row ~prototile:i () in
  Alcotest.(check int) "plane row is rigid" 1 (List.length plane)

let test_cover_region_rejects () =
  let torus = Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |] in
  (match
     Tiling.Search.cover_region
       ~region:[ Vec.make2 0 0; Vec.make2 2 0 ]
       ~prototile:(Prototile.rect 1 2) ~torus ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "congruent region cells must be rejected");
  match Tiling.Search.cover_region ~region:[] ~prototile:(Prototile.rect 1 2) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty region must be rejected"

let qcheck_random_polyomino_tiling_verifies =
  let grow_gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun steps ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Randomtile.polyomino rng ~cells:(steps + 1))
  in
  let arb = QCheck.make ~print:Prototile.to_string grow_gen in
  QCheck.Test.make ~name:"found tilings verify on a window" ~count:40 arb (fun p ->
      match Tiling.Search.find_lattice_tiling p with
      | None -> QCheck.assume_fail ()
      | Some t -> Tiling.Single.check_window t ~radius:6)

let qcheck_sparse_exactness_robust =
  (* Disconnected prototiles: exactness never crashes, and when a tiling
     is found it verifies. *)
  let gen =
    QCheck.Gen.(
      int_range 2 4 >>= fun cells ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Randomtile.sparse rng ~cells ~spread:2)
  in
  let arb = QCheck.make ~print:Prototile.to_string gen in
  QCheck.Test.make ~name:"sparse prototiles: search robust, tilings verify" ~count:30 arb
    (fun p ->
      match Tiling.Search.find_tiling ~torus_factors:[ 1; 2 ] p with
      | None -> true
      | Some t -> Tiling.Single.check_window t ~radius:5)

(* [find_tiling] stops at the first stage that answers.  The eager
   reference runs every stage - all lattice tilings, then the first
   single-prototile cover of every torus of index [f * |N|] - and takes
   the head of the whole list. *)
let eager_find_tiling p =
  let lattice =
    List.filter_map
      (fun lam -> Result.to_option (Tiling.Single.lattice_tiling p lam))
      (Tiling.Search.lattice_tilings p)
  in
  let torus_first lam =
    List.filter_map
      (fun mt ->
        match Tiling.Multi.pieces mt with
        | [ pc ] ->
          Result.to_option
            (Tiling.Single.make ~prototile:p ~period:lam ~offsets:pc.Tiling.Multi.piece_offsets)
        | _ -> None)
      (Tiling.Search.cover_torus ~period:lam ~prototiles:[ p ] ~max_solutions:1 ())
  in
  let torus =
    List.concat_map
      (fun f ->
        List.concat_map torus_first
          (Sublattice.all_of_index ~dim:(Prototile.dim p) (f * Prototile.size p)))
      [ 1; 2; 3; 4 ]
  in
  match lattice @ torus with [] -> None | t :: _ -> Some t

(* [decide] answers with [find_tiling]'s tiling on every input, and
   refutes the holey polyominoes by their hole. *)
let test_find_tiling_is_head_of_enumeration () =
  let rng = Prng.Xoshiro.create 2028L in
  let polys = List.init 28 (fun i -> Randomtile.polyomino rng ~cells:(1 + (i mod 7))) in
  let sparse = List.init 12 (fun i -> Randomtile.sparse rng ~cells:(2 + (i mod 3)) ~spread:2) in
  let cells l = Prototile.of_cells (List.map (fun (x, y) -> Vec.make2 x y) l) in
  let fixed =
    [ cells [ (0, 0); (2, 0) ];
      cells [ (0, 0); (2, 0); (0, 2); (2, 2) ];
      cells [ (0, 0); (1, 0); (-1, 1); (0, 1); (0, 2) ] ]
  in
  let holey =
    [ cells [ (0, 0); (1, 0); (2, 0); (0, 1); (2, 1); (0, 2); (1, 2) ];
      cells [ (0, 0); (1, 0); (2, 0); (0, 1); (2, 1); (0, 2); (1, 2); (2, 2) ] ]
  in
  let key =
    Option.map (fun t ->
        (Sublattice.generators (Tiling.Single.period t), Tiling.Single.offsets t))
  in
  List.iter
    (fun p ->
      let found = Tiling.Search.find_tiling p in
      Alcotest.(check bool)
        (Prototile.to_string p ^ ": find_tiling = head of the eager enumeration")
        true
        (key found = key (eager_find_tiling p));
      let decided =
        match Tiling.Search.decide p with Tiling.Search.Exact t -> Some t | _ -> None
      in
      Alcotest.(check bool)
        (Prototile.to_string p ^ ": decide = find_tiling")
        true
        (key decided = key found))
    (fixed @ holey @ polys @ sparse);
  List.iter
    (fun p ->
      match Tiling.Search.decide p with
      | Tiling.Search.Non_exact `Hole -> ()
      | _ -> Alcotest.failf "%s: not refuted by its hole" (Prototile.to_string p))
    holey

(* First hits that come from a torus stage: none of these tiles has a
   lattice tiling, so [find_tiling]'s answer is the first cover of the
   first torus whose search succeeds.  Which cover that is depends on
   the stage order, the placement order and the anchor order, so the
   period basis and offsets are pinned as strings (rows and offsets in
   [Core.Codec.vecs_to_string] form). *)
let torus_first_hits =
  [ ("0,0;2,0", "1,1;0,4", "0,0;0,1");
    ("0,0;1,0;4,0;5,0", "1,1;0,8", "0,0;0,2");
    ("0,0;0,2;2,0;2,2", "1,2;0,8", "0,0;0,1");
    ("-3,-1;-1,1;-1,3;0,0;2,2;3,1", "1,4;0,12", "0,0;0,3");
    ("-2,2;0,0;0,2;3,3", "1,3;0,16", "0,0;0,1;0,4;0,5");
    ("-3,1;0,0;3,-2", "9,0;0,1", "0,0;1,0;2,0") ]

let test_torus_first_hits_golden () =
  List.iter
    (fun (cells, basis, offsets) ->
      let tile =
        match Core.Codec.vecs_of_string cells with
        | Ok cs -> Prototile.of_cells cs
        | Error e -> Alcotest.failf "bad fixture %s: %s" cells e
      in
      Alcotest.(check bool) (cells ^ ": no lattice tiling") true
        (Tiling.Search.find_lattice_tiling tile = None);
      match Tiling.Search.find_tiling tile with
      | None -> Alcotest.failf "%s: no tiling found" cells
      | Some t ->
        Alcotest.(check string) (cells ^ ": period") basis
          (Core.Codec.vecs_to_string (Sublattice.generators (Tiling.Single.period t)));
        Alcotest.(check string) (cells ^ ": offsets") offsets
          (Core.Codec.vecs_to_string (Tiling.Single.offsets t)))
    torus_first_hits

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "tiling"
    [
      ( "single",
        [
          Alcotest.test_case "valid construction" `Quick test_make_valid;
          Alcotest.test_case "rejects overlap" `Quick test_make_rejects_overlap;
          Alcotest.test_case "rejects count mismatch" `Quick test_make_rejects_count_mismatch;
          Alcotest.test_case "rejects dim mismatch" `Quick test_make_rejects_dim_mismatch;
          Alcotest.test_case "tile_of roundtrip" `Quick test_tile_of_roundtrip;
          Alcotest.test_case "offset (brick) tiling" `Quick test_offsets_tiling;
          Alcotest.test_case "translations in window" `Quick test_translations_in_window;
          Alcotest.test_case "1-D gapped prototile" `Quick test_1d_gapped_prototile;
        ] );
      ( "multi",
        [
          Alcotest.test_case "valid construction" `Quick test_multi_make_valid;
          Alcotest.test_case "mixed S/Z exists" `Quick test_multi_mixed_exists;
          Alcotest.test_case "respectability" `Quick test_multi_respectable_detection;
          Alcotest.test_case "union cells" `Quick test_multi_union_cells;
          Alcotest.test_case "tile_of" `Quick test_multi_tile_of;
          Alcotest.test_case "rejects empty piece" `Quick test_multi_rejects_empty_piece;
        ] );
      ( "dlx",
        [
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          qc qcheck_dlx_vs_bruteforce;
          qc qcheck_engines_differential;
        ] );
      ( "search",
        [
          Alcotest.test_case "lattice tilings verify" `Quick test_lattice_tilings_counts;
          Alcotest.test_case "chebyshev balls tile" `Quick test_find_tiling_balls;
          Alcotest.test_case "euclidean ball tiles" `Quick test_euclidean_ball_tiles;
          Alcotest.test_case "exactness decisions" `Quick test_exactness_decisions;
          Alcotest.test_case "find_tiling = head of enumeration" `Quick
            test_find_tiling_is_head_of_enumeration;
          Alcotest.test_case "torus first hits (golden)" `Quick test_torus_first_hits_golden;
          Alcotest.test_case "3-D box tiles" `Quick test_3d_box_tiles;
          Alcotest.test_case "torus cover counts" `Quick test_cover_torus_counts;
          Alcotest.test_case "torus cover max" `Quick test_cover_torus_respects_max;
          Alcotest.test_case "find respectable" `Slow test_find_respectable;
          Alcotest.test_case "keep filters during search" `Quick
            test_cover_torus_keep_filters_during_search;
          Alcotest.test_case "respectable early stop" `Quick
            test_find_respectable_early_stop_is_prefix;
          Alcotest.test_case "respectable order check" `Quick test_find_respectable_rejects_bad_order;
          Alcotest.test_case "Lee spheres (Golomb-Welch)" `Quick test_lee_spheres_golomb_welch;
          Alcotest.test_case "distinct covers vs oracle" `Slow test_distinct_covers_oracle;
          Alcotest.test_case "distinct covers cap" `Quick test_distinct_covers_max_classes;
          Alcotest.test_case "region covers: plane unique" `Quick test_cover_region_plane_unique;
          Alcotest.test_case "region covers: torus wrap" `Quick test_cover_region_torus_row;
          Alcotest.test_case "region covers: rejects" `Quick test_cover_region_rejects;
          qc qcheck_random_polyomino_tiling_verifies;
          qc qcheck_sparse_exactness_robust;
        ] );
    ]
