(* Tests for sublattices, prototiles, polyominoes, BN exactness, Voronoi. *)
open Zgeom
open Lattice

let vec = Alcotest.testable Vec.pp Vec.equal

(* --- Sublattice --- *)

let test_index_and_cosets () =
  let lam = Sublattice.of_basis [| [| 2; 1 |]; [| 0; 3 |] |] in
  Alcotest.(check int) "index = |det|" 6 (Sublattice.index lam);
  let cosets = Sublattice.cosets lam in
  Alcotest.(check int) "coset count" 6 (List.length cosets);
  (* Canonical representatives are all distinct and self-reduced. *)
  List.iter
    (fun c -> Alcotest.check vec "rep reduces to itself" c (Sublattice.reduce lam c))
    cosets;
  Alcotest.(check int) "distinct ids" 6
    (List.sort_uniq Stdlib.compare (List.map (Sublattice.coset_id lam) cosets) |> List.length)

let test_membership () =
  let lam = Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |] in
  Alcotest.(check bool) "(2,0) in 2Z^2" true (Sublattice.mem lam (Vec.make2 2 0));
  Alcotest.(check bool) "(1,0) not in" false (Sublattice.mem lam (Vec.make2 1 0));
  Alcotest.(check bool) "(-4,6) in" true (Sublattice.mem lam (Vec.make2 (-4) 6));
  Alcotest.(check bool) "generators are members" true
    (List.for_all (Sublattice.mem lam) (Sublattice.generators lam))

let test_reduce_congruence () =
  let lam = Sublattice.of_basis [| [| 3; 1 |]; [| 1; 2 |] |] in
  let v = Vec.make2 (-17) 23 in
  Alcotest.(check bool) "v = reduce v (mod)" true (Sublattice.congruent lam v (Sublattice.reduce lam v));
  Alcotest.(check bool) "shift by generator keeps coset" true
    (Sublattice.congruent lam v (Vec.add v (List.hd (Sublattice.generators lam))))

let test_full_and_scaled () =
  let f = Sublattice.full 3 in
  Alcotest.(check int) "Z^3 has index 1" 1 (Sublattice.index f);
  let s = Sublattice.scaled 2 5 in
  Alcotest.(check int) "5Z^2 index 25" 25 (Sublattice.index s)

let test_snf_divisors () =
  let lam = Sublattice.of_basis [| [| 2; 0 |]; [| 0; 4 |] |] in
  Alcotest.(check (list int)) "Z^2/(2Zx4Z) = Z_2 x Z_4" [ 2; 4 ] (Sublattice.snf_divisors lam);
  let hex = Sublattice.of_basis [| [| 1; 2 |]; [| -2; 1 |] |] in
  Alcotest.(check (list int)) "index-5 cyclic quotient" [ 1; 5 ] (Sublattice.snf_divisors hex)

let test_all_of_index_2d () =
  (* The number of sublattices of Z^2 of index n is sigma(n). *)
  List.iter
    (fun (n, sigma) ->
      Alcotest.(check int)
        (Printf.sprintf "sigma(%d)" n)
        sigma
        (List.length (Sublattice.all_of_index ~dim:2 n)))
    [ (1, 1); (2, 3); (3, 4); (4, 7); (6, 12); (8, 15) ];
  (* All distinct, all of the right index. *)
  let all = Sublattice.all_of_index ~dim:2 6 in
  Alcotest.(check int) "pairwise distinct" (List.length all)
    (List.length (List.sort_uniq Sublattice.compare all));
  List.iter (fun l -> Alcotest.(check int) "index 6" 6 (Sublattice.index l)) all

let test_all_of_index_3d () =
  (* Sublattices of Z^3 of index 2: 1 + 2 + 4 = 7. *)
  Alcotest.(check int) "dim 3, index 2" 7 (List.length (Sublattice.all_of_index ~dim:3 2))

let sublattice_gen =
  QCheck.Gen.(
    let entry = int_range (-6) 6 in
    map
      (fun (a, b, c, d) ->
        let det = (a * d) - (b * c) in
        if det = 0 then Sublattice.of_basis [| [| 1; 0 |]; [| 0; 1 |] |]
        else Sublattice.of_basis [| [| a; b |]; [| c; d |] |])
      (quad entry entry entry entry))

let sublattice_arb = QCheck.make ~print:Sublattice.to_string sublattice_gen

let vec2_gen =
  QCheck.Gen.(map (fun (a, b) -> Vec.make2 a b) (pair (int_range (-40) 40) (int_range (-40) 40)))

let vec2_arb = QCheck.make ~print:Vec.to_string vec2_gen

let qcheck_snf_product_is_index =
  QCheck.Test.make ~name:"product of invariant factors = index" ~count:200 sublattice_arb
    (fun lam ->
      List.fold_left ( * ) 1 (Sublattice.snf_divisors lam) = Sublattice.index lam)

let qcheck_reduce_idempotent =
  QCheck.Test.make ~name:"reduce is idempotent and congruent" ~count:300
    (QCheck.pair sublattice_arb vec2_arb) (fun (lam, v) ->
      let r = Sublattice.reduce lam v in
      Vec.equal r (Sublattice.reduce lam r) && Sublattice.mem lam (Vec.sub v r))

let qcheck_coset_id_consistent =
  QCheck.Test.make ~name:"coset_id constant on cosets, injective on reps" ~count:300
    (QCheck.pair sublattice_arb vec2_arb) (fun (lam, v) ->
      let g = List.hd (Sublattice.generators lam) in
      Sublattice.coset_id lam v = Sublattice.coset_id lam (Vec.add v g)
      && Sublattice.coset_id lam v < Sublattice.index lam
      && Sublattice.coset_id lam v >= 0)

(* --- Prototile --- *)

let test_prototile_sizes () =
  Alcotest.(check int) "chebyshev r=1 in 2D" 9 (Prototile.size (Prototile.chebyshev_ball ~dim:2 1));
  Alcotest.(check int) "chebyshev r=2 in 2D" 25 (Prototile.size (Prototile.chebyshev_ball ~dim:2 2));
  Alcotest.(check int) "chebyshev r=1 in 3D" 27 (Prototile.size (Prototile.chebyshev_ball ~dim:3 1));
  Alcotest.(check int) "euclidean r=1" 5 (Prototile.size (Prototile.euclidean_ball ~dim:2 1));
  Alcotest.(check int) "euclidean r=2" 13 (Prototile.size (Prototile.euclidean_ball ~dim:2 2));
  Alcotest.(check int) "euclidean r2=2" 9 (Prototile.size (Prototile.euclidean_ball_sq ~dim:2 2));
  Alcotest.(check int) "manhattan r=1" 5 (Prototile.size (Prototile.manhattan_ball ~dim:2 1));
  Alcotest.(check int) "manhattan r=2" 13 (Prototile.size (Prototile.manhattan_ball ~dim:2 2));
  Alcotest.(check int) "directional" 8 (Prototile.size Prototile.directional);
  Alcotest.(check int) "rect 3x2" 6 (Prototile.size (Prototile.rect 3 2))

let test_prototile_contains_origin () =
  List.iter
    (fun p -> Alcotest.(check bool) "origin in N" true (Prototile.mem p (Vec.zero 2)))
    [ Prototile.chebyshev_ball ~dim:2 2; Prototile.directional; Prototile.tetromino `S;
      Prototile.pentomino `X; Prototile.of_cells_anchored [ Vec.make2 5 7; Vec.make2 6 7 ] ]

let test_difference_set () =
  let p = Prototile.of_cells [ Vec.make2 0 0; Vec.make2 1 0 ] in
  let d = Prototile.difference_set p in
  Alcotest.(check int) "size" 3 (Vec.Set.cardinal d);
  Alcotest.(check bool) "symmetric" true
    (Vec.Set.for_all (fun v -> Vec.Set.mem (Vec.neg v) d) d);
  Alcotest.(check bool) "contains 0" true (Vec.Set.mem (Vec.zero 2) d)

let test_minkowski_sum () =
  let p = Prototile.rect 2 1 in
  let s = Prototile.minkowski_sum p p in
  Alcotest.(check int) "rect2x1 + rect2x1 = rect3x1" 3 (Vec.Set.cardinal s)

let test_subset_respectability () =
  let big = Prototile.chebyshev_ball ~dim:2 1 in
  let small = Prototile.euclidean_ball ~dim:2 1 in
  Alcotest.(check bool) "euclidean r1 inside chebyshev r1" true (Prototile.subset small big);
  Alcotest.(check bool) "not conversely" false (Prototile.subset big small)

let test_rotations () =
  let s = Prototile.tetromino `S in
  (* Rotation is about the origin (the sensor), so even the 180-degree
     rotation of S differs as a subset of Z^2 (it is a translate). *)
  Alcotest.(check int) "S has 4 distinct rotations" 4 (List.length (Prototile.rotations s));
  let o = Prototile.tetromino `O in
  (* O anchored at a corner is not rotation invariant as a subset of Z^2
     (rotation about the origin moves it), but the 2x2 ball is. *)
  ignore o;
  let c = Prototile.chebyshev_ball ~dim:2 1 in
  Alcotest.(check int) "ball rotation invariant" 1 (List.length (Prototile.rotations c));
  let z = Prototile.tetromino `Z in
  Alcotest.(check bool) "Z is reflected S (up to translation)" true
    (let refl = Prototile.reflect s in
     let re_anchored = Prototile.of_cells_anchored (Prototile.cells refl) in
     Prototile.equal re_anchored (Prototile.of_cells_anchored (Prototile.cells z)))

let test_of_ascii () =
  let s = Prototile.of_ascii ".##\nO#." in
  Alcotest.(check bool) "equals S tetromino" true (Prototile.equal s (Prototile.tetromino `S));
  let dirp = Prototile.of_ascii "##\n##\n##\nO#" in
  Alcotest.(check bool) "equals directional" true (Prototile.equal dirp Prototile.directional);
  (* Origin need not be the lexicographic minimum. *)
  let shifted = Prototile.of_ascii "#O\n##" in
  Alcotest.(check bool) "origin respected" true (Prototile.mem shifted (Vec.make2 (-1) (-1)));
  (* pp/of_ascii roundtrip. *)
  let w = Prototile.pentomino `W in
  Alcotest.(check bool) "pp roundtrip" true
    (Prototile.equal w (Prototile.of_ascii (Prototile.to_string w)))

let test_of_ascii_rejects () =
  let bad s = match Prototile.of_ascii s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "no origin" true (bad "##\n##");
  Alcotest.(check bool) "two origins" true (bad "OO");
  Alcotest.(check bool) "bad char" true (bad "#X\nO#");
  Alcotest.(check bool) "empty" true (bad "")

(* The command-line tile names: every name of the load generator's
   catalogue reads back as its tile, and malformed names are errors. *)
let test_of_name () =
  List.iter
    (fun (name, tile) ->
      match Prototile.of_name name with
      | Ok t -> Alcotest.(check bool) name true (Prototile.equal t tile)
      | Error e -> Alcotest.failf "%s: %s" name e)
    (("dir", Prototile.directional) :: ("euclid1", Prototile.euclidean_ball ~dim:2 1)
     :: ("manhattan2", Prototile.manhattan_ball ~dim:2 2)
     :: ("cells:0,0;2,2", Prototile.of_cells [ Vec.make2 0 0; Vec.make2 2 2 ])
     :: Server.Loadgen.default_tiles);
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Result.is_error (Prototile.of_name name)))
    [ "tet-Q"; "pent-"; "rectx"; "cheb"; "cells:1,1"; "cells:0,0;2"; "bogus"; "" ]

let test_euclidean_ball_sq_counts () =
  (* r^2 = 5 admits the 21-point disk; r^2 = 2 the 3x3 block. *)
  Alcotest.(check int) "r2=5" 21 (Prototile.size (Prototile.euclidean_ball_sq ~dim:2 5));
  Alcotest.(check int) "r2=2" 9 (Prototile.size (Prototile.euclidean_ball_sq ~dim:2 2));
  Alcotest.(check int) "r2=0 just the origin" 1
    (Prototile.size (Prototile.euclidean_ball_sq ~dim:2 0))

let test_bounding_box () =
  let p = Prototile.tetromino `S in
  let lo, hi = Prototile.bounding_box p in
  Alcotest.check vec "lo" (Vec.make2 0 0) lo;
  Alcotest.check vec "hi" (Vec.make2 2 1) hi

(* --- Symmetry --- *)

let test_symmetry_orders () =
  Alcotest.(check int) "ball has full D4" 8 (Symmetry.order (Prototile.chebyshev_ball ~dim:2 1));
  Alcotest.(check int) "plus has full D4" 8 (Symmetry.order (Prototile.euclidean_ball ~dim:2 1));
  (* S has the 180-degree rotation and two glide-ish... as subsets up to
     translation: rotation by 2 fixes S; reflections map S to Z. *)
  Alcotest.(check int) "S tetromino order 2" 2 (Symmetry.order (Prototile.tetromino `S));
  Alcotest.(check int) "L tetromino order 1" 1 (Symmetry.order (Prototile.tetromino `L));
  Alcotest.(check int) "T tetromino order 2" 2 (Symmetry.order (Prototile.tetromino `T))

let test_symmetry_orientations () =
  Alcotest.(check int) "ball 1 orientation" 1
    (Symmetry.distinct_orientations (Prototile.chebyshev_ball ~dim:2 1));
  Alcotest.(check int) "S: 2 orientations" 2
    (Symmetry.distinct_orientations (Prototile.tetromino `S));
  Alcotest.(check int) "L: 4 orientations" 4
    (Symmetry.distinct_orientations (Prototile.tetromino `L));
  Alcotest.(check bool) "ball rotation-symmetric" true
    (Symmetry.is_symmetric_under_rotation (Prototile.chebyshev_ball ~dim:2 2));
  Alcotest.(check bool) "L not" false
    (Symmetry.is_symmetric_under_rotation (Prototile.tetromino `L))

let test_symmetry_group_is_group () =
  (* Identity present; closed under composition (checked by size dividing 8
     and by applying each element twice staying in the group's orbit). *)
  List.iter
    (fun p ->
      let g = Symmetry.group p in
      Alcotest.(check bool) "identity present" true
        (List.exists (fun e -> e.Symmetry.rotation = 0 && not e.Symmetry.reflected) g);
      Alcotest.(check int) "order divides 8" 0 (8 mod List.length g))
    [ Prototile.tetromino `S; Prototile.tetromino `O; Prototile.pentomino `X;
      Prototile.directional ]

(* --- Canonical form --- *)

let random_tile_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun steps ->
    int_bound 1_000_000 >|= fun seed ->
    let rng = Prng.Xoshiro.create (Int64.of_int seed) in
    Randomtile.polyomino rng ~cells:(steps + 1))

let random_tile_arb = QCheck.make ~print:Prototile.to_string random_tile_gen

let test_canonical_merges_congruent () =
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) name true
        (Prototile.equal (Symmetry.canonical a) (Symmetry.canonical b)))
    [ ("S ~ Z", Prototile.tetromino `S, Prototile.tetromino `Z);
      ("L ~ J", Prototile.tetromino `L, Prototile.tetromino `J);
      ("rect2x3 ~ rect3x2", Prototile.rect 2 3, Prototile.rect 3 2);
      ("O ~ rect2x2", Prototile.tetromino `O, Prototile.rect 2 2) ];
  (* ... and non-congruent tiles stay apart. *)
  Alcotest.(check bool) "S /~ L" false
    (Prototile.equal
       (Symmetry.canonical (Prototile.tetromino `S))
       (Symmetry.canonical (Prototile.tetromino `L)))

let qcheck_canonical_idempotent =
  QCheck.Test.make ~name:"canonical is idempotent and size-preserving" ~count:200
    random_tile_arb (fun p ->
      let c = Symmetry.canonical p in
      Prototile.size c = Prototile.size p && Prototile.equal (Symmetry.canonical c) c)

let qcheck_canonical_invariant =
  QCheck.Test.make ~name:"canonical invariant under D4 and translation" ~count:100
    random_tile_arb (fun p ->
      let c = Symmetry.canonical p in
      List.for_all
        (fun e ->
          let image =
            Prototile.of_cells_anchored (List.map (Symmetry.apply e) (Prototile.cells p))
          in
          Prototile.equal (Symmetry.canonical image) c)
        Symmetry.elements)

let qcheck_canonicalize_witness =
  QCheck.Test.make ~name:"canonicalize witness maps p onto its canonical form" ~count:200
    random_tile_arb (fun p ->
      let c, g = Symmetry.canonicalize p in
      Prototile.equal c
        (Prototile.of_cells_anchored (List.map (Symmetry.apply g) (Prototile.cells p))))

(* Differential: the integer kernel against the set-based oracle, on the
   same canonical tile and the same witness. *)
let agrees_with_oracle p =
  let c, g = Symmetry.canonicalize p and c', g' = Oracle.Canon.canonicalize p in
  Prototile.equal c c' && g = g'

let print_cells p =
  String.concat ";" (List.map Vec.to_string (Prototile.cells p))

let oracle_gen =
  let open QCheck.Gen in
  let of_coords coords = Prototile.of_cells_anchored (List.map Vec.of_list coords) in
  let far = 1 lsl 40 in
  let polyomino =
    (* A random polyomino in a random orientation, its origin on a random cell. *)
    triple random_tile_gen (oneofl Symmetry.elements) nat >|= fun (p, e, k) ->
    let cells = List.map (Symmetry.apply e) (Prototile.cells p) in
    let o = List.nth cells (k mod List.length cells) in
    Prototile.of_cells (List.map (fun v -> Vec.sub v o) cells)
  in
  let sparse =
    (* spread >= 2 leaves 25 >= 12 candidate points. *)
    triple (int_range 1 12) (int_range 2 30) (int_bound 1_000_000) >|= fun (cells, spread, seed) ->
    Randomtile.sparse (Prng.Xoshiro.create (Int64.of_int seed)) ~cells ~spread
  in
  let near_far =
    (* Coordinates near +-2^40: anchored differences reach 2^41. *)
    list_size (int_range 1 10)
      (pair (oneofl [ far; -far ]) (pair (int_range (-3) 3) (int_range (-3) 3)))
    >|= List.map (fun (base, (dx, dy)) -> [ base + dx; base - dy ])
    >|= of_coords
  in
  let any_int =
    (* Whole 63-bit coordinates: negation and anchoring wrap. *)
    list_size (int_range 1 8) (pair int int) >|= List.map (fun (x, y) -> [ x; y ]) >|= of_coords
  in
  let symmetric =
    (* Tied images: every D4 element (or a subgroup) maps the tile to itself. *)
    oneofl
      [ Prototile.chebyshev_ball ~dim:2 1; Prototile.euclidean_ball ~dim:2 2;
        Prototile.manhattan_ball ~dim:2 2; Prototile.rect 3 3; Prototile.rect 2 5;
        Prototile.tetromino `O; Prototile.tetromino `S; Prototile.pentomino `X;
        Prototile.of_cells [ Vec.make2 0 0 ] ]
  in
  let other_dims =
    int_range 1 3 >>= fun d ->
    list_size (int_range 1 10) (list_repeat d (int_range (-5) 5)) >|= of_coords
  in
  frequency
    [ (4, polyomino); (2, sparse); (1, near_far); (1, any_int); (1, symmetric); (1, other_dims) ]

let qcheck_canonicalize_oracle =
  QCheck.Test.make ~name:"canonicalize = set-based oracle (tile and witness)" ~count:2000
    (QCheck.make ~print:print_cells oracle_gen) agrees_with_oracle

let test_canonicalize_cases () =
  List.iter
    (fun (name, p) -> Alcotest.(check bool) name true (agrees_with_oracle p))
    [ ("1 x 40 bar, heap sort", Prototile.rect 1 40); ("40 x 1 bar", Prototile.rect 40 1);
      ("cheb3 (49 cells, 8-way tie)", Prototile.chebyshev_ball ~dim:2 3);
      ("min_int corner", Prototile.of_cells [ Vec.make2 0 0; Vec.make2 min_int max_int ]);
      ("d = 1", Prototile.of_cells [ Vec.of_list [ 0 ]; Vec.of_list [ -3 ]; Vec.of_list [ 2 ] ]);
      ("d = 3", Prototile.chebyshev_ball ~dim:3 1) ]

let qcheck_inverse_law =
  QCheck.Test.make ~name:"apply (inverse e) undoes apply e" ~count:200
    (QCheck.pair (QCheck.make vec2_gen) (QCheck.make (QCheck.Gen.oneofl Symmetry.elements)))
    (fun (v, e) ->
      Vec.equal (Symmetry.apply (Symmetry.inverse e) (Symmetry.apply e v)) v
      && Vec.equal (Symmetry.apply e (Symmetry.apply (Symmetry.inverse e) v)) v)

(* --- Polyomino --- *)

let test_connectivity () =
  Alcotest.(check bool) "S connected" true (Polyomino.is_connected (Prototile.tetromino `S));
  let disconnected = Prototile.of_cells [ Vec.make2 0 0; Vec.make2 2 0 ] in
  Alcotest.(check bool) "gap disconnected" false (Polyomino.is_connected disconnected);
  let diagonal = Prototile.of_cells [ Vec.make2 0 0; Vec.make2 1 1 ] in
  Alcotest.(check bool) "diagonal not 4-connected" false (Polyomino.is_connected diagonal)

let test_holes () =
  let ring =
    Prototile.of_cells
      (List.filter_map
         (fun (x, y) -> if (x, y) = (1, 1) then None else Some (Vec.make2 x y))
         (List.concat_map (fun x -> List.init 3 (fun y -> (x, y))) (List.init 3 Fun.id)))
  in
  Alcotest.(check bool) "ring has a hole" true (Polyomino.has_holes ring);
  Alcotest.(check bool) "ring not a polyomino" false (Polyomino.is_polyomino ring);
  Alcotest.(check bool) "ball has no hole" false (Polyomino.has_holes (Prototile.chebyshev_ball ~dim:2 1))

let test_boundary_words () =
  Alcotest.(check string) "unit square" "ruld"
    (Polyomino.boundary_word (Prototile.of_cells [ Vec.make2 0 0 ]));
  Alcotest.(check string) "2x2 square" "rruulldd" (Polyomino.boundary_word (Prototile.rect 2 2));
  let w = Polyomino.boundary_word (Prototile.tetromino `S) in
  Alcotest.(check int) "S perimeter" 10 (String.length w);
  Alcotest.(check int) "perimeter function agrees" (Polyomino.perimeter (Prototile.tetromino `S))
    (String.length w)

let test_boundary_word_closed () =
  List.iter
    (fun p ->
      let w = Polyomino.boundary_word p in
      Alcotest.check vec "closed path" (Vec.zero 2) (Boundary_word.displacement w))
    [ Prototile.tetromino `T; Prototile.pentomino `W; Prototile.chebyshev_ball ~dim:2 2;
      Prototile.directional ]

(* --- Boundary_word / BN --- *)

let test_hat () =
  Alcotest.(check string) "hat of ru" "dl" (Boundary_word.hat "ru");
  Alcotest.(check string) "hat involutive" "rrul" (Boundary_word.hat (Boundary_word.hat "rrul"))

let test_bn_known_exact () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " exact") true (Boundary_word.is_exact_polyomino p))
    [ ("I4", Prototile.tetromino `I); ("O4", Prototile.tetromino `O); ("T4", Prototile.tetromino `T);
      ("S4", Prototile.tetromino `S); ("Z4", Prototile.tetromino `Z); ("L4", Prototile.tetromino `L);
      ("J4", Prototile.tetromino `J); ("X5", Prototile.pentomino `X); ("P5", Prototile.pentomino `P);
      ("W5", Prototile.pentomino `W); ("V5", Prototile.pentomino `V);
      ("cheb1", Prototile.chebyshev_ball ~dim:2 1);
      ("euclid1", Prototile.euclidean_ball ~dim:2 1); ("dir", Prototile.directional) ]

let test_bn_known_not_exact () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " not exact") false (Boundary_word.is_exact_polyomino p))
    [ ("U5", Prototile.pentomino `U); ("F5", Prototile.pentomino `F);
      ("T5", Prototile.pentomino `T) ]

let test_square_is_pseudo_square () =
  let w = Polyomino.boundary_word (Prototile.of_cells [ Vec.make2 0 0 ]) in
  Alcotest.(check bool) "pseudo-square" true (Boundary_word.is_pseudo_square w)

let test_translation_vectors_tile () =
  (* The BN factorization's displacement vectors generate a sublattice
     that actually tiles - cross-validation of the certificate. *)
  List.iter
    (fun p ->
      let w = Polyomino.boundary_word p in
      match Boundary_word.find_factorization w with
      | None -> Alcotest.fail "expected factorization"
      | Some f ->
        let v1, v2 = Boundary_word.translation_vectors w f in
        let det = (Vec.x v1 * Vec.y v2) - (Vec.y v1 * Vec.x v2) in
        Alcotest.(check int) "determinant = +-area" (Polyomino.area p) (abs det);
        let lam = Sublattice.of_rows [ v1; v2 ] in
        let ids = List.map (Sublattice.coset_id lam) (Prototile.cells p) in
        Alcotest.(check int) "cells form complete residues"
          (Prototile.size p)
          (List.length (List.sort_uniq Stdlib.compare ids)))
    [ Prototile.tetromino `S; Prototile.tetromino `L; Prototile.pentomino `X;
      Prototile.chebyshev_ball ~dim:2 1; Prototile.directional ]

let qcheck_bn_agrees_with_lattice_search =
  (* Random small polyominoes: BN exactness implies a lattice tiling
     exists and vice versa (Beauquier-Nivat + Wijshoff-van Leeuwen). *)
  let grow_gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun steps ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Randomtile.polyomino rng ~cells:(steps + 1))
  in
  let arb = QCheck.make ~print:Prototile.to_string grow_gen in
  QCheck.Test.make ~name:"BN = lattice-tiling existence on random polyominoes" ~count:60 arb
    (fun p ->
      QCheck.assume (Polyomino.is_polyomino p);
      let bn = Boundary_word.is_exact_polyomino p in
      let lattice = Tiling.Search.lattice_tilings p <> [] in
      bn = lattice)

(* --- Embedding --- *)

let test_embedding_square () =
  let e = Embedding.square in
  Alcotest.(check bool) "covolume 1" true (Float.abs (Embedding.covolume e -. 1.0) < 1e-12);
  let x, y = Embedding.position e (Vec.make2 3 (-2)) in
  Alcotest.(check bool) "identity embedding" true (x = 3.0 && y = -2.0)

let test_embedding_hex_ball_sizes () =
  let hex = Embedding.hexagonal in
  Alcotest.(check bool) "covolume sqrt3/2" true
    (Float.abs (Embedding.covolume hex -. (sqrt 3.0 /. 2.0)) < 1e-12);
  (* Hex balls have 3r^2+3r+1 points: 7, 19, 37. *)
  Alcotest.(check int) "r=1 ball" 7 (Prototile.size (Embedding.geometric_ball hex ~radius:1.01));
  Alcotest.(check int) "r=2 ball" 19 (Prototile.size (Embedding.geometric_ball hex ~radius:2.01));
  Alcotest.(check int) "r=3 ball" 37 (Prototile.size (Embedding.geometric_ball hex ~radius:3.01))

let test_embedding_coords_inverse () =
  let e = Embedding.of_basis (2.0, 0.5) (-0.3, 1.7) in
  List.iter
    (fun (a, b) ->
      let w = Embedding.position e (Vec.make2 a b) in
      let a', b' = Embedding.coords e w in
      Alcotest.(check bool) "inverse" true
        (Float.abs (a' -. float_of_int a) < 1e-9 && Float.abs (b' -. float_of_int b) < 1e-9))
    [ (0, 0); (5, -3); (-7, 11) ]

let test_embedding_nearest () =
  let hex = Embedding.hexagonal in
  (* Exactly at a lattice point. *)
  let w = Embedding.position hex (Vec.make2 2 3) in
  Alcotest.check vec "nearest at point" (Vec.make2 2 3) (Embedding.nearest hex w);
  (* Slightly perturbed. *)
  let x, y = w in
  Alcotest.check vec "nearest perturbed" (Vec.make2 2 3)
    (Embedding.nearest hex (x +. 0.1, y -. 0.2))

let qcheck_embedding_nearest_optimal =
  let gen =
    QCheck.Gen.(pair (float_bound_inclusive 10.0) (float_bound_inclusive 10.0))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"nearest beats all points in a window" ~count:200 arb (fun (x, y) ->
      let hex = Embedding.hexagonal in
      let best = Embedding.nearest hex (x, y) in
      let d v =
        let px, py = Embedding.position hex v in
        Float.hypot (px -. x) (py -. y)
      in
      let ok = ref true in
      for a = -2 to 14 do
        for b = -2 to 14 do
          if d (Vec.make2 a b) +. 1e-9 < d best then ok := false
        done
      done;
      !ok)

let qcheck_bn_naive_agrees =
  let grow_gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun steps ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Randomtile.polyomino rng ~cells:(steps + 1))
  in
  let arb = QCheck.make ~print:Prototile.to_string grow_gen in
  QCheck.Test.make ~name:"fast BN agrees with naive reference" ~count:80 arb (fun p ->
      QCheck.assume (Polyomino.is_polyomino p);
      let w = Polyomino.boundary_word p in
      (Boundary_word.find_factorization w <> None)
      = (Boundary_word.find_factorization_naive w <> None))

(* --- Voronoi --- *)

let test_square_cell_corners () =
  let corners = Voronoi.square_cell_corners (Vec.make2 2 3) in
  Alcotest.(check int) "four corners" 4 (List.length corners);
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "corner at distance 1/2 in each axis" true
        (Rat.equal (Rat.abs (Rat.sub x (Rat.of_int 2))) Rat.half
        && Rat.equal (Rat.abs (Rat.sub y (Rat.of_int 3))) Rat.half))
    corners

let test_hex_cell_geometry () =
  let corners = Voronoi.hex_cell_corners (Vec.make2 0 0) in
  Alcotest.(check int) "six corners" 6 (List.length corners);
  (* Shoelace area should equal sqrt(3)/2. *)
  let area =
    let arr = Array.of_list corners in
    let n = Array.length arr in
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      s := !s +. ((a.Voronoi.px *. b.Voronoi.py) -. (b.Voronoi.px *. a.Voronoi.py))
    done;
    Float.abs !s /. 2.0
  in
  Alcotest.(check bool) "area sqrt3/2" true (Float.abs (area -. Voronoi.hex_cell_area) < 1e-9)

let test_hex_embedding_distances () =
  (* All six hexagonal nearest neighbours lie at distance 1. *)
  let origin = Voronoi.embed_hex (Vec.make2 0 0) in
  List.iter
    (fun (a, b) ->
      let p = Voronoi.embed_hex (Vec.make2 a b) in
      let d = Float.hypot (p.Voronoi.px -. origin.Voronoi.px) (p.Voronoi.py -. origin.Voronoi.py) in
      Alcotest.(check bool) "unit distance" true (Float.abs (d -. 1.0) < 1e-9))
    [ (1, 0); (-1, 0); (0, 1); (0, -1); (1, -1); (-1, 1) ]

let test_open_cell_of () =
  Alcotest.(check (option vec)) "interior point" (Some (Vec.make2 1 2))
    (Voronoi.open_cell_of { Voronoi.px = 1.2; py = 1.8 });
  Alcotest.(check (option vec)) "boundary point" None
    (Voronoi.open_cell_of { Voronoi.px = 0.5; py = 0.0 })

let test_region_boundary_and_fit () =
  let cells = Vec.Set.of_list [ Vec.make2 0 0; Vec.make2 1 0 ] in
  let edges = Voronoi.region_boundary_edges cells in
  Alcotest.(check int) "2x1 region: 6 boundary edges" 6 (List.length edges);
  Alcotest.(check bool) "center fits small disk" true
    (Voronoi.disk_fits_in_region cells ~center:{ Voronoi.px = 0.5; py = 0.0 } ~radius:0.4);
  Alcotest.(check bool) "center cannot fit large disk" false
    (Voronoi.disk_fits_in_region cells ~center:{ Voronoi.px = 0.5; py = 0.0 } ~radius:0.6);
  Alcotest.(check bool) "outside point never fits" false
    (Voronoi.disk_fits_in_region cells ~center:{ Voronoi.px = 3.0; py = 3.0 } ~radius:0.1)

(* Coset-id arithmetic against the vector route, in dimensions 1-3:
   [coset_of_id] walks [cosets] in order, and every entry of a
   [translate_ids] table is the id of the translated representative. *)
let qcheck_translate_ids =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun dim ->
      int_range 1 12 >>= fun index ->
      let lams = Sublattice.all_of_index ~dim index in
      int_bound (List.length lams - 1) >>= fun k ->
      list_repeat dim (int_range (-30) 30) >|= fun d -> (List.nth lams k, Vec.of_list d))
  in
  let print (lam, d) = Sublattice.to_string lam ^ " d=" ^ Vec.to_string d in
  QCheck.Test.make ~name:"coset_of_id and translate_ids agree with coset_id" ~count:400
    (QCheck.make ~print gen) (fun (lam, d) ->
      let table = Sublattice.translate_ids lam d in
      Array.length table = Sublattice.index lam
      && List.for_all2
           (fun k c ->
             Vec.equal (Sublattice.coset_of_id lam k) c
             && Sublattice.coset_id lam c = k
             && table.(k) = Sublattice.coset_id lam (Vec.add c d))
           (List.init (Sublattice.index lam) Fun.id)
           (Sublattice.cosets lam))

(* The coset order the torus search builds its placements on: anchor
   [k] of a stage is the [k]-th element of [cosets], and its cells are
   read from [translate_ids] tables at index [k], so the two must agree.
   Bases are random non-singular matrices, not HNF enumerations. *)
let random_basis_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun dim ->
    list_repeat (dim * dim) (int_range (-4) 4) >|= fun entries ->
    let b = Array.init dim (fun i -> Array.init dim (fun j -> List.nth entries ((i * dim) + j))) in
    if Zgeom.Zmat.det b = 0 then Sublattice.scaled dim 2 else Sublattice.of_basis b)

let qcheck_cosets_in_id_order =
  QCheck.Test.make ~name:"k-th coset has coset_id k" ~count:300
    (QCheck.make ~print:Sublattice.to_string random_basis_gen) (fun lam ->
      let reps = Sublattice.cosets lam in
      List.length reps = Sublattice.index lam
      && List.for_all2 (fun k c -> Sublattice.coset_id lam c = k)
           (List.init (Sublattice.index lam) Fun.id) reps)

(* The window walk of the certificate re-proof against the vector
   route: window [k] holds the ids of [coset_of_id k + c] for the cells
   [c] in order, windows come in id order, and the walk stops at the
   first window the predicate refuses. *)
let qcheck_for_all_windows =
  let gen =
    QCheck.Gen.(
      random_basis_gen >>= fun lam ->
      let cell = list_repeat (Sublattice.dim lam) (int_range (-30) 30) >|= Vec.of_list in
      pair (list_size (int_range 1 6) cell) (int_bound (Sublattice.index lam)) >|= fun (cells, stop) ->
      (lam, cells, stop))
  in
  let print (lam, cells, stop) =
    Printf.sprintf "%s cells=%s stop=%d" (Sublattice.to_string lam)
      (String.concat ";" (List.map Vec.to_string cells)) stop
  in
  QCheck.Test.make ~name:"for_all_windows = coset_id of each window's cells" ~count:400
    (QCheck.make ~print gen) (fun (lam, cells, stop) ->
      let seen = ref [] in
      let all =
        Sublattice.for_all_windows lam cells (fun ids ->
            seen := Array.copy ids :: !seen;
            List.length !seen <> stop + 1)
      in
      let windows = List.length !seen in
      let expected k =
        Array.of_list
          (List.map (fun c -> Sublattice.coset_id lam (Vec.add (Sublattice.coset_of_id lam k) c)) cells)
      in
      all = (stop = Sublattice.index lam)
      && windows = min (stop + 1) (Sublattice.index lam)
      && List.for_all2 (fun k ids -> ids = expected k) (List.init windows Fun.id) (List.rev !seen))

(* [Randomtile.sparse] draws distinct points from its box, so it can fill
   the box but not more: the bound itself returns a tile, one more cell
   is refused instead of looping forever. *)
let test_sparse_box_bound () =
  let rng = Prng.Xoshiro.create 5L in
  List.iter
    (fun spread ->
      let side = (2 * spread) + 1 in
      let p = Randomtile.sparse rng ~cells:(side * side) ~spread in
      Alcotest.(check int) "the whole box" (side * side) (Prototile.size p);
      Alcotest.check_raises "one cell more is refused"
        (Invalid_argument
           (Printf.sprintf "Randomtile.sparse: %d cells do not fit in a %d x %d box"
              ((side * side) + 1) side side))
        (fun () -> ignore (Randomtile.sparse rng ~cells:((side * side) + 1) ~spread)))
    [ 0; 1; 2 ]

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "lattice"
    [
      ( "sublattice",
        [
          Alcotest.test_case "index and cosets" `Quick test_index_and_cosets;
          Alcotest.test_case "membership" `Quick test_membership;
          Alcotest.test_case "reduce congruence" `Quick test_reduce_congruence;
          Alcotest.test_case "full and scaled" `Quick test_full_and_scaled;
          Alcotest.test_case "snf divisors" `Quick test_snf_divisors;
          Alcotest.test_case "all_of_index 2D = sigma" `Quick test_all_of_index_2d;
          Alcotest.test_case "all_of_index 3D" `Quick test_all_of_index_3d;
          qc qcheck_snf_product_is_index;
          qc qcheck_reduce_idempotent;
          qc qcheck_coset_id_consistent;
          qc qcheck_translate_ids;
          qc qcheck_cosets_in_id_order;
          qc qcheck_for_all_windows;
        ] );
      ( "prototile",
        [
          Alcotest.test_case "ball sizes" `Quick test_prototile_sizes;
          Alcotest.test_case "contains origin" `Quick test_prototile_contains_origin;
          Alcotest.test_case "difference set" `Quick test_difference_set;
          Alcotest.test_case "minkowski sum" `Quick test_minkowski_sum;
          Alcotest.test_case "subset" `Quick test_subset_respectability;
          Alcotest.test_case "rotations" `Quick test_rotations;
          Alcotest.test_case "euclidean_ball_sq" `Quick test_euclidean_ball_sq_counts;
          Alcotest.test_case "of_ascii" `Quick test_of_ascii;
          Alcotest.test_case "of_ascii rejects" `Quick test_of_ascii_rejects;
          Alcotest.test_case "of_name" `Quick test_of_name;
          Alcotest.test_case "bounding box" `Quick test_bounding_box;
          Alcotest.test_case "sparse fills its box, refuses more" `Quick test_sparse_box_bound;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "orders" `Quick test_symmetry_orders;
          Alcotest.test_case "orientations" `Quick test_symmetry_orientations;
          Alcotest.test_case "group laws" `Quick test_symmetry_group_is_group;
          Alcotest.test_case "canonical merges congruent tiles" `Quick
            test_canonical_merges_congruent;
          qc qcheck_canonical_idempotent;
          qc qcheck_canonical_invariant;
          qc qcheck_canonicalize_witness;
          qc qcheck_inverse_law;
          qc qcheck_canonicalize_oracle;
          Alcotest.test_case "canonicalize = oracle on edge cases" `Quick test_canonicalize_cases;
        ] );
      ( "polyomino",
        [
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "holes" `Quick test_holes;
          Alcotest.test_case "boundary words" `Quick test_boundary_words;
          Alcotest.test_case "boundary closed" `Quick test_boundary_word_closed;
        ] );
      ( "beauquier-nivat",
        [
          Alcotest.test_case "hat" `Quick test_hat;
          Alcotest.test_case "known exact" `Quick test_bn_known_exact;
          Alcotest.test_case "known non-exact" `Quick test_bn_known_not_exact;
          Alcotest.test_case "square pseudo-square" `Quick test_square_is_pseudo_square;
          Alcotest.test_case "translation vectors tile" `Quick test_translation_vectors_tile;
          qc qcheck_bn_agrees_with_lattice_search;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "square" `Quick test_embedding_square;
          Alcotest.test_case "hex ball sizes" `Quick test_embedding_hex_ball_sizes;
          Alcotest.test_case "coords inverse" `Quick test_embedding_coords_inverse;
          Alcotest.test_case "nearest" `Quick test_embedding_nearest;
          qc qcheck_embedding_nearest_optimal;
          qc qcheck_bn_naive_agrees;
        ] );
      ( "voronoi",
        [
          Alcotest.test_case "square corners" `Quick test_square_cell_corners;
          Alcotest.test_case "hex geometry" `Quick test_hex_cell_geometry;
          Alcotest.test_case "hex distances" `Quick test_hex_embedding_distances;
          Alcotest.test_case "open cell" `Quick test_open_cell_of;
          Alcotest.test_case "region fit" `Quick test_region_boundary_and_fit;
        ] );
    ]
