(* Tests for the scheduling core: Theorems 1 and 2, optimality, finite
   restriction, mobile sensors. *)
open Zgeom
open Lattice

let find_tiling_exn p =
  match Tiling.Search.find_tiling p with
  | Some t -> t
  | None -> Alcotest.fail "prototile should tile"

(* --- Schedule / Theorem 1 --- *)

let theorem1_prototiles =
  [ ("cheb1", Prototile.chebyshev_ball ~dim:2 1); ("cheb2", Prototile.chebyshev_ball ~dim:2 2);
    ("euclid1", Prototile.euclidean_ball ~dim:2 1); ("euclid2", Prototile.euclidean_ball ~dim:2 2);
    ("manhattan2", Prototile.manhattan_ball ~dim:2 2); ("directional", Prototile.directional);
    ("rect3x2", Prototile.rect 3 2); ("S", Prototile.tetromino `S); ("L", Prototile.tetromino `L);
    ("T", Prototile.tetromino `T); ("X5", Prototile.pentomino `X); ("W5", Prototile.pentomino `W) ]

let test_theorem1_slot_count () =
  List.iter
    (fun (name, p) ->
      let t = find_tiling_exn p in
      let s = Core.Schedule.of_tiling t in
      Alcotest.(check int) (name ^ ": m = |N|") (Prototile.size p) (Core.Schedule.num_slots s);
      Alcotest.(check int)
        (name ^ ": all slots used")
        (Prototile.size p)
        (List.length (Core.Schedule.slots_used s)))
    theorem1_prototiles

let test_theorem1_collision_free () =
  List.iter
    (fun (name, p) ->
      let t = find_tiling_exn p in
      let s = Core.Schedule.of_tiling t in
      Alcotest.(check bool) (name ^ " collision-free") true
        (Core.Collision.is_collision_free_theorem1 t s))
    theorem1_prototiles

let test_theorem1_matches_cell_index () =
  let p = Prototile.directional in
  let t = find_tiling_exn p in
  let s = Core.Schedule.of_tiling t in
  for x = -5 to 5 do
    for y = -5 to 5 do
      let v = Vec.make2 x y in
      Alcotest.(check int) "slot = covering cell index" (Tiling.Single.cell_index t v)
        (Core.Schedule.slot_at s v)
    done
  done

let test_theorem1_3d () =
  let p = Prototile.chebyshev_ball ~dim:3 1 in
  (* 3x3x3 cube tiles Z^3 with period 3Z^3. *)
  let t =
    Tiling.Single.make_exn ~prototile:p
      ~period:(Sublattice.scaled 3 3)
      ~offsets:[ Vec.of_list [ 1; 1; 1 ] ]
  in
  let s = Core.Schedule.of_tiling t in
  Alcotest.(check int) "27 slots" 27 (Core.Schedule.num_slots s);
  Alcotest.(check bool) "collision-free in 3-D" true
    (Core.Collision.is_collision_free_theorem1 t s)

let test_may_send_periodicity () =
  let t = find_tiling_exn (Prototile.tetromino `S) in
  let s = Core.Schedule.of_tiling t in
  let v = Vec.make2 3 1 in
  let m = Core.Schedule.num_slots s in
  let slot = Core.Schedule.slot_at s v in
  Alcotest.(check bool) "sends at its slot" true (Core.Schedule.may_send s v ~time:slot);
  Alcotest.(check bool) "sends one period later" true
    (Core.Schedule.may_send s v ~time:(slot + m));
  Alcotest.(check bool) "sends at negative congruent time" true
    (Core.Schedule.may_send s v ~time:(slot - m));
  Alcotest.(check bool) "silent otherwise" false
    (Core.Schedule.may_send s v ~time:(slot + 1))

let test_bad_schedule_detected () =
  (* All sensors in slot 0: plenty of violations. *)
  let p = Prototile.chebyshev_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let period = Tiling.Single.period t in
  let table = Array.make (Sublattice.index period) 0 in
  let s = Core.Schedule.of_table ~period ~num_slots:(Prototile.size p) table in
  let v = Core.Collision.violations_theorem1 t s in
  Alcotest.(check bool) "violations found" true (v <> []);
  (* Each violation's witness really lies in both ranges. *)
  List.iter
    (fun viol ->
      let open Core.Collision in
      let ra = Prototile.translate viol.sender_a p in
      let rb = Prototile.translate viol.sender_b p in
      Alcotest.(check bool) "witness in range a" true (Vec.Set.mem viol.witness ra);
      Alcotest.(check bool) "witness in range b" true (Vec.Set.mem viol.witness rb))
    v

let test_fewer_slots_always_collide () =
  (* Optimality, checked mechanically: any periodic schedule on the
     tiling's quotient with m-1 slots has a violation. We test all
     "cyclic relabeling" schedules and random tables. *)
  let p = Prototile.euclidean_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let period = Tiling.Single.period t in
  let idx = Sublattice.index period in
  let m = Prototile.size p - 1 in
  let rng = Prng.Xoshiro.create 7L in
  for _ = 1 to 200 do
    let table = Array.init idx (fun _ -> Prng.Xoshiro.int rng m) in
    let s = Core.Schedule.of_table ~period ~num_slots:m table in
    Alcotest.(check bool) "m-1 slots collide" true
      (Core.Collision.violations_theorem1 t s <> [])
  done

let test_drift_injection () =
  let p = Prototile.chebyshev_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let s = Core.Schedule.of_tiling t in
  let zero_drift _ = 0 in
  Alcotest.(check int) "no drift, no violations" 0
    (List.length (Core.Collision.drift_violations t s ~drift_at:zero_drift ~horizon:9));
  let skew v = if Vec.x v mod 3 = 0 then 1 else 0 in
  Alcotest.(check bool) "skew causes violations" true
    (Core.Collision.drift_violations t s ~drift_at:skew ~horizon:9 <> [])

let test_relabel_preserves_collision_freedom () =
  let p = Prototile.euclidean_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let s = Core.Schedule.of_tiling t in
  let m = Core.Schedule.num_slots s in
  let rng = Prng.Xoshiro.create 53L in
  for _ = 1 to 20 do
    let perm = Array.init m Fun.id in
    Prng.Xoshiro.shuffle rng perm;
    let s' = Core.Schedule.relabel s perm in
    Alcotest.(check bool) "relabeled stays collision-free" true
      (Core.Collision.is_collision_free_theorem1 t s');
    Alcotest.(check int) "same slot count" m (Core.Schedule.num_slots s')
  done;
  (* Identity relabel is a no-op. *)
  let id = Core.Schedule.relabel s (Array.init m Fun.id) in
  Alcotest.(check int) "identity keeps slots" (Core.Schedule.slot_at s (Vec.make2 2 3))
    (Core.Schedule.slot_at id (Vec.make2 2 3))

let test_relabel_rejects_non_permutation () =
  let t = find_tiling_exn (Prototile.tetromino `S) in
  let s = Core.Schedule.of_tiling t in
  match Core.Schedule.relabel s [| 0; 0; 1; 2 |] with
  | exception Assert_failure _ -> ()
  | _ -> Alcotest.fail "non-permutation accepted"

(* --- Theorem 2 --- *)

let respectable_two_piece () =
  (* N1 = 2x2 square, N2 = single cell (subset of N1): tile a 5-index
     quotient: period (5,0),(0,1)? Build: squares at x=0 mod 5, singles
     at x=4 mod 5, row-periodic.  Use period (5,0),(0,2): cells: square
     covers (0..1)x(0..1); offsets singles (4,0),(4,1). *)
  let n1 = Prototile.rect 2 2 in
  let n2 = Prototile.of_cells [ Vec.zero 2 ] in
  let period = Sublattice.of_basis [| [| 5; 0 |]; [| 0; 2 |] |] in
  Tiling.Multi.make_exn ~period
    [ { Tiling.Multi.tile = n1; piece_offsets = [ Vec.zero 2; Vec.make2 2 0 ] };
      { Tiling.Multi.tile = n2; piece_offsets = [ Vec.make2 4 0; Vec.make2 4 1 ] } ]

let test_theorem2_respectable () =
  let m = respectable_two_piece () in
  Alcotest.(check bool) "respectable" true (Tiling.Multi.is_respectable m);
  let s = Core.Schedule.of_multi m in
  Alcotest.(check int) "m = |N1|" 4 (Core.Schedule.num_slots s);
  Alcotest.(check bool) "collision-free" true (Core.Collision.is_collision_free_multi m s);
  Alcotest.(check int) "ground-rule optimum = |N1|" 4 (Core.Optimality.ground_rule_minimum m)

let sz_mixed () =
  let s = Prototile.tetromino `S and z = Prototile.tetromino `Z in
  let period = Sublattice.of_basis [| [| 4; 0 |]; [| 0; 4 |] |] in
  Tiling.Search.cover_torus ~period ~prototiles:[ s; z ] ~max_solutions:200 ()
  |> List.filter (fun m -> List.length (Tiling.Multi.pieces m) = 2)

let test_theorem2_nonrespectable_collision_free () =
  (* The construction stays collision-free even without respectability. *)
  List.iteri
    (fun i m ->
      if i < 5 then begin
        let s = Core.Schedule.of_multi m in
        Alcotest.(check int) "6 slots (|S u Z|)" 6 (Core.Schedule.num_slots s);
        Alcotest.(check bool) "collision-free" true (Core.Collision.is_collision_free_multi m s)
      end)
    (sz_mixed ())

let test_figure5_six_vs_four () =
  let mixed = sz_mixed () in
  Alcotest.(check bool) "mixed tilings exist" true (mixed <> []);
  let optima = List.map Core.Optimality.ground_rule_minimum mixed in
  Alcotest.(check bool) "some mixed tiling needs 6 slots" true (List.mem 6 optima);
  List.iter
    (fun o -> Alcotest.(check bool) "optimum within [4, 6]" true (o >= 4 && o <= 6))
    optima;
  (* The symmetric pure-S tiling achieves 4. *)
  match Tiling.Search.find_lattice_tiling (Prototile.tetromino `S) with
  | None -> Alcotest.fail "S tiles"
  | Some t ->
    let m = Tiling.Multi.of_single t in
    Alcotest.(check int) "pure S needs only 4" 4 (Core.Optimality.ground_rule_minimum m)

let test_ground_rule_assignment_witness () =
  let m = List.hd (sz_mixed ()) in
  let k = Core.Optimality.ground_rule_minimum m in
  (match Core.Optimality.ground_rule_assignment m k with
  | None -> Alcotest.fail "assignment at the optimum must exist"
  | Some roles ->
    (* Within each piece, slots are pairwise distinct. *)
    let by_piece = Hashtbl.create 4 in
    List.iter
      (fun (r, c) ->
        let open Core.Optimality in
        let existing = Option.value ~default:[] (Hashtbl.find_opt by_piece r.piece) in
        Alcotest.(check bool) "injective per piece" false (List.mem c existing);
        Hashtbl.replace by_piece r.piece (c :: existing))
      roles);
  Alcotest.(check bool) "below optimum impossible" true
    (Core.Optimality.ground_rule_assignment m (k - 1) = None)

(* --- Optimality helpers --- *)

let test_lower_bound_and_clique () =
  List.iter
    (fun (_, p) ->
      Alcotest.(check int) "lower bound = size" (Prototile.size p) (Core.Optimality.lower_bound p);
      Alcotest.(check bool) "tile is a clique" true (Core.Optimality.tile_is_clique p))
    theorem1_prototiles

let test_chromatic_number_small_graphs () =
  let path3 = [| [| false; true; false |]; [| true; false; true |]; [| false; true; false |] |] in
  Alcotest.(check int) "path P3" 2 (Core.Optimality.chromatic_number path3);
  let k4 = Array.init 4 (fun i -> Array.init 4 (fun j -> i <> j)) in
  Alcotest.(check int) "K4" 4 (Core.Optimality.chromatic_number k4);
  let c5 =
    Array.init 5 (fun i -> Array.init 5 (fun j -> (j = (i + 1) mod 5) || (i = (j + 1) mod 5)))
  in
  Alcotest.(check int) "odd cycle C5" 3 (Core.Optimality.chromatic_number c5);
  let empty = Array.make_matrix 6 6 false in
  Alcotest.(check int) "empty graph" 1 (Core.Optimality.chromatic_number empty);
  Alcotest.(check int) "no vertices" 0 (Core.Optimality.chromatic_number [||])

let qcheck_coloring_proper =
  let gen =
    QCheck.Gen.(
      int_range 2 9 >>= fun n ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      let adj = Array.make_matrix n n false in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Prng.Xoshiro.bernoulli rng 0.4 then begin
            adj.(i).(j) <- true;
            adj.(j).(i) <- true
          end
        done
      done;
      adj)
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"chromatic number is achieved and tight" ~count:60 arb (fun adj ->
      let k = Core.Optimality.chromatic_number adj in
      match Core.Optimality.color_with ~adj k with
      | None -> false
      | Some colors ->
        let proper = ref true in
        Array.iteri
          (fun i row ->
            Array.iteri (fun j e -> if e && colors.(i) = colors.(j) then proper := false) row)
          adj;
        !proper && (k = 0 || Core.Optimality.color_with ~adj (k - 1) = None))

(* --- Finite restriction --- *)

let test_contains_translate () =
  let dom = Core.Finite.box ~lo:(Vec.make2 0 0) ~hi:(Vec.make2 5 5) in
  let n = Prototile.chebyshev_ball ~dim:2 1 in
  Alcotest.(check bool) "box contains N+N" true
    (Core.Finite.meets_optimality_criterion dom n);
  let tiny = Core.Finite.box ~lo:(Vec.make2 0 0) ~hi:(Vec.make2 2 2) in
  Alcotest.(check bool) "3x3 box too small for N+N (5x5)" false
    (Core.Finite.meets_optimality_criterion tiny n)

let test_finite_optimum_large_domain () =
  (* Criterion met: finite optimum equals |N|. *)
  let n = Prototile.euclidean_ball ~dim:2 1 in
  let dom = Core.Finite.box ~lo:(Vec.make2 0 0) ~hi:(Vec.make2 4 4) in
  Alcotest.(check bool) "criterion met" true (Core.Finite.meets_optimality_criterion dom n);
  Alcotest.(check int) "optimum = 5" 5
    (Core.Finite.optimal_slots ~neighborhood:(fun _ -> n) dom)

let test_finite_optimum_small_domain () =
  (* A single sensor needs one slot, beating m = |N|. *)
  let n = Prototile.chebyshev_ball ~dim:2 1 in
  let dom = Vec.Set.singleton (Vec.zero 2) in
  Alcotest.(check int) "lone sensor: 1 slot" 1
    (Core.Finite.optimal_slots ~neighborhood:(fun _ -> n) dom);
  (* Two far-apart sensors share a slot. *)
  let dom2 = Vec.Set.of_list [ Vec.zero 2; Vec.make2 10 10 ] in
  Alcotest.(check int) "far pair: 1 slot" 1
    (Core.Finite.optimal_slots ~neighborhood:(fun _ -> n) dom2)

let test_witnessed_vs_unwitnessed () =
  (* Two sensors whose ranges overlap only at a point where no sensor
     sits: no witnessed conflict, so they may share a slot. *)
  let n = Prototile.chebyshev_ball ~dim:2 1 in
  let a = Vec.make2 0 0 and b = Vec.make2 2 0 in
  let dom = Vec.Set.of_list [ a; b ] in
  Alcotest.(check int) "witnessed: 1 slot" 1
    (Core.Finite.optimal_slots ~witnessed:true ~neighborhood:(fun _ -> n) dom);
  Alcotest.(check int) "unwitnessed: 2 slots" 2
    (Core.Finite.optimal_slots ~witnessed:false ~neighborhood:(fun _ -> n) dom)

let test_restriction_optimal () =
  let p = Prototile.euclidean_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let dom = Core.Finite.box ~lo:(Vec.make2 0 0) ~hi:(Vec.make2 4 4) in
  Alcotest.(check bool) "restriction optimal on large domain" true
    (Core.Finite.restriction_is_optimal t dom)

(* --- Mobile --- *)

let mobile_system () =
  let p = Prototile.rect 2 2 in
  let t =
    Tiling.Single.make_exn ~prototile:p
      ~period:(Sublattice.of_basis [| [| 2; 0 |]; [| 0; 2 |] |])
      ~offsets:[ Vec.zero 2 ]
  in
  Core.Mobile.make t

let test_mobile_eligibility () =
  let m = mobile_system () in
  (* Near the center of the 2x2 tile region [-0.5, 1.5]^2, inside the open
     cell of (0,0): boundary distance 0.95, so radius 0.9 fits. *)
  let pos = { Voronoi.px = 0.45; py = 0.45 } in
  (match Core.Mobile.eligible_slot m ~pos ~radius:0.9 with
  | Some _ -> ()
  | None -> Alcotest.fail "interior position with small disk should be eligible");
  Alcotest.(check bool) "too-large disk rejected" true
    (Core.Mobile.eligible_slot m ~pos ~radius:1.3 = None);
  (* The exact tile center is a corner of four Voronoi cells: never
     eligible (open-cell rule), however small the disk. *)
  Alcotest.(check bool) "cell corner ineligible" true
    (Core.Mobile.eligible_slot m ~pos:{ Voronoi.px = 0.5; py = 0.5 } ~radius:0.1 = None);
  (* Cell-boundary position is never eligible. *)
  Alcotest.(check bool) "boundary ineligible" true
    (Core.Mobile.eligible_slot m ~pos:{ Voronoi.px = 0.5; py = 0.0 } ~radius:0.1 = None)

let test_mobile_time_gating () =
  let m = mobile_system () in
  let pos = { Voronoi.px = 0.1; py = 0.1 } in
  let radius = 0.2 in
  match Core.Mobile.eligible_slot m ~pos ~radius with
  | None -> Alcotest.fail "should be eligible in some slot"
  | Some slot ->
    Alcotest.(check bool) "sends at its slot" true (Core.Mobile.eligible m ~pos ~radius ~time:slot);
    Alcotest.(check bool) "silent at other slots" false
      (Core.Mobile.eligible m ~pos ~radius ~time:(slot + 1))

let test_mobile_pairwise_disjoint () =
  let m = mobile_system () in
  let rng = Prng.Xoshiro.create 99L in
  (* The paper assumes at most one sensor per Voronoi cell: place each
     sensor jittered inside its own cell. *)
  let sensors =
    List.init 60 (fun i ->
        let cx = float_of_int (i mod 10) and cy = float_of_int (i / 10) in
        ( { Voronoi.px = cx +. Prng.Xoshiro.float rng 0.8 -. 0.4;
            py = cy +. Prng.Xoshiro.float rng 0.8 -. 0.4 },
          0.3 +. Prng.Xoshiro.float rng 0.8 ))
  in
  for time = 0 to 3 do
    Alcotest.(check bool) "eligible senders pairwise disjoint" true
      (Core.Mobile.eligible_pairs_disjoint m sensors ~time)
  done

(* --- Certificate --- *)

let test_certificate_valid () =
  List.iter
    (fun (_, p) ->
      let t = find_tiling_exn p in
      let cert = Core.Certificate.build t in
      match Core.Certificate.check cert with
      | Ok () -> ()
      | Error f -> Alcotest.failf "certificate rejected: %a" Core.Certificate.pp_failure f)
    theorem1_prototiles

let test_certificate_detects_corruption () =
  let t = find_tiling_exn (Prototile.euclidean_ball ~dim:2 1) in
  let cert = Core.Certificate.build t in
  (* Break the clique: drop a member. *)
  let short = { cert with Core.Certificate.clique = List.tl cert.Core.Certificate.clique } in
  (match Core.Certificate.check short with
  | Error (Core.Certificate.Wrong_clique_size _) -> ()
  | _ -> Alcotest.fail "short clique accepted");
  (* Break the clique: far-apart positions do not interfere. *)
  let fake =
    { cert with
      Core.Certificate.clique =
        List.mapi (fun i _ -> Vec.make2 (100 * i) 0) cert.Core.Certificate.clique }
  in
  (match Core.Certificate.check fake with
  | Error (Core.Certificate.Not_a_clique _) -> ()
  | _ -> Alcotest.fail "fake clique accepted");
  (* Break the schedule: all slot 0. *)
  let period = Core.Schedule.period cert.Core.Certificate.schedule in
  let bad_schedule =
    Core.Schedule.of_table ~period
      ~num_slots:(Core.Schedule.num_slots cert.Core.Certificate.schedule)
      (Array.make (Sublattice.index period) 0)
  in
  match Core.Certificate.check { cert with Core.Certificate.schedule = bad_schedule } with
  | Error (Core.Certificate.Not_collision_free _) -> ()
  | _ -> Alcotest.fail "colliding schedule accepted"

(* A certificate whose schedule lives in another dimension than its
   prototile is judged exactly as the scan judges it.  With one cell the
   scan has no difference to try and accepts; the Theorem-1 test must
   step aside rather than reduce a 2-D cell modulo a 1-D period. *)
let test_certificate_dimension_mismatch () =
  let cert =
    { Core.Certificate.prototile = Prototile.of_cells [ Vec.make2 0 0 ];
      schedule = Core.Schedule.of_table ~period:(Sublattice.full 1) ~num_slots:1 [| 0 |];
      clique = [ Vec.make2 0 0 ] }
  in
  Alcotest.(check bool) "same verdict as the set-based reference" true
    (Core.Certificate.check cert = Oracle.Reference.check cert);
  Alcotest.(check bool) "accepted, as by the scan" true (Core.Certificate.check cert = Ok ())

(* --- Differential check of the periodic collision checker --- *)

let naive_window_violations prototile schedule ~radius =
  (* Brute force on a window: every same-slot pair with intersecting
     ranges, both senders inside the window. *)
  let out = ref [] in
  for x1 = -radius to radius do
    for y1 = -radius to radius do
      for x2 = -radius to radius do
        for y2 = -radius to radius do
          let u = Vec.make2 x1 y1 and v = Vec.make2 x2 y2 in
          if Vec.compare u v < 0 && Core.Schedule.slot_at schedule u = Core.Schedule.slot_at schedule v
          then begin
            let ru = Prototile.translate u prototile and rv = Prototile.translate v prototile in
            if not (Vec.Set.is_empty (Vec.Set.inter ru rv)) then out := (u, v) :: !out
          end
        done
      done
    done
  done;
  !out

let test_collision_checker_differential () =
  (* The periodic checker and the naive window scan must agree on
     emptiness, for both valid and broken schedules. *)
  let p = Prototile.euclidean_ball ~dim:2 1 in
  let t = find_tiling_exn p in
  let period = Tiling.Single.period t in
  let idx = Sublattice.index period in
  let rng = Prng.Xoshiro.create 41L in
  for _ = 1 to 40 do
    let m = 1 + Prng.Xoshiro.int rng 6 in
    let table = Array.init idx (fun _ -> Prng.Xoshiro.int rng m) in
    let s = Core.Schedule.of_table ~period ~num_slots:m table in
    let periodic_empty =
      Core.Collision.violations
        ~neighborhoods:(fun _ -> p)
        ~diff_bound:(Prototile.difference_set p)
        s
      = []
    in
    let naive_empty = naive_window_violations p s ~radius:5 = [] in
    Alcotest.(check bool) "checkers agree on emptiness" periodic_empty naive_empty
  done

(* --- Codec --- *)

let test_codec_schedule_roundtrip () =
  List.iter
    (fun p ->
      let t = find_tiling_exn p in
      let sched = Core.Schedule.of_tiling t in
      let encoded = Core.Codec.schedule_to_string sched in
      match Core.Codec.schedule_of_string encoded with
      | Error e -> Alcotest.fail e
      | Ok sched' ->
        Alcotest.(check int) "slots preserved" (Core.Schedule.num_slots sched)
          (Core.Schedule.num_slots sched');
        for x = -6 to 6 do
          for y = -6 to 6 do
            let v = Vec.make2 x y in
            Alcotest.(check int) "slot preserved" (Core.Schedule.slot_at sched v)
              (Core.Schedule.slot_at sched' v)
          done
        done)
    [ Prototile.chebyshev_ball ~dim:2 1; Prototile.euclidean_ball ~dim:2 1;
      Prototile.directional; Prototile.tetromino `S ]

let test_codec_tiling_roundtrip () =
  let t = find_tiling_exn Prototile.directional in
  let encoded = Core.Codec.tiling_to_string t in
  match Core.Codec.tiling_of_string encoded with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check bool) "same prototile" true
      (Prototile.equal (Tiling.Single.prototile t) (Tiling.Single.prototile t'));
    Alcotest.(check bool) "same period" true
      (Sublattice.equal (Tiling.Single.period t) (Tiling.Single.period t'));
    Alcotest.(check bool) "still verifies" true (Tiling.Single.check_window t' ~radius:5)

let test_codec_prototile_roundtrip () =
  List.iter
    (fun p ->
      match Core.Codec.prototile_of_string (Core.Codec.prototile_to_string p) with
      | Ok p' -> Alcotest.(check bool) "prototile roundtrip" true (Prototile.equal p p')
      | Error e -> Alcotest.fail e)
    [ Prototile.pentomino `X; Prototile.chebyshev_ball ~dim:2 2;
      Prototile.of_cells [ Vec.of_list [ 0; 0; 0 ]; Vec.of_list [ 1; 1; 1 ] ] ]

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "not a record" true
    (Result.is_error (Core.Codec.schedule_of_string "hello"));
  Alcotest.(check bool) "wrong kind" true
    (Result.is_error
       (Core.Codec.schedule_of_string
          (Core.Codec.prototile_to_string (Prototile.tetromino `S))));
  (* Corrupt a valid record's table length. *)
  let t = find_tiling_exn (Prototile.euclidean_ball ~dim:2 1) in
  let good = Core.Codec.schedule_to_string (Core.Schedule.of_tiling t) in
  let bad = good ^ ",0" in
  Alcotest.(check bool) "corrupted table rejected" true
    (Result.is_error (Core.Codec.schedule_of_string bad))

let test_codec_csv () =
  let t = find_tiling_exn (Prototile.tetromino `S) in
  let sched = Core.Schedule.of_tiling t in
  let dom = [ Vec.make2 0 0; Vec.make2 1 0; Vec.make2 5 7 ] in
  let csv = Core.Codec.csv_assignment sched ~domain:dom in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "one line per sensor" 3 (List.length lines);
  List.iter2
    (fun line v ->
      let expected =
        Printf.sprintf "%d,%d,%d" (Vec.x v) (Vec.y v) (Core.Schedule.slot_at sched v)
      in
      Alcotest.(check string) "csv line" expected line)
    lines dom

(* --- Re-proof kernel against the set-based reference (test/oracle/reference.ml) --- *)

(* The re-proof must return exactly the reference's value, failure and
   violation record included, on honest certificates and on the ways a
   certificate can lie.  Swapping two cosets' slots of a lattice tiling
   only renames slots (each slot holds one coset), so [Copy_slot] also
   gives one coset another's slot; [Foreign] keeps the slot count but
   reads the slot table over another tiling's period.  [Reflect_clique]
   replaces the clique [N] by [s - N]: still a clique, but not a
   translate of [N] (unless [N] is centrally symmetric, and even then
   listed in another order), so the re-proof takes its exact scan rather
   than its Theorem-1 acceptance test. *)
type mutant =
  | Honest
  | Drop_member
  | Push_apart of int * Vec.t
  | Swap_slots of int * int
  | Copy_slot of int * int
  | Foreign of int
  | Reflect_clique of Vec.t

let pp_mutant = function
  | Honest -> "honest"
  | Drop_member -> "drop a clique member"
  | Push_apart (i, d) -> Printf.sprintf "push clique member %d by %s" i (Vec.to_string d)
  | Swap_slots (i, j) -> Printf.sprintf "swap the slots of cosets %d and %d" i j
  | Copy_slot (i, j) -> Printf.sprintf "coset %d takes the slot of coset %d" i j
  | Foreign seed -> Printf.sprintf "slot table over the period of tile seed %d" seed
  | Reflect_clique s -> Printf.sprintf "clique %s - N" (Vec.to_string s)

let random_tile ~sparse ~cells seed =
  let rng = Prng.Xoshiro.create (Int64.of_int seed) in
  if sparse then Randomtile.sparse rng ~cells ~spread:2 else Randomtile.polyomino rng ~cells

let mutate (cert : Core.Certificate.t) mutant =
  match mutant with
  | Honest -> cert
  | Drop_member -> { cert with clique = List.tl cert.clique }
  | Push_apart (i, d) ->
    let i = i mod List.length cert.clique in
    { cert with clique = List.mapi (fun k v -> if k = i then Vec.add v d else v) cert.clique }
  | Swap_slots (i, j) | Copy_slot (i, j) ->
    let period = Core.Schedule.period cert.schedule in
    let n = Sublattice.index period in
    let table = Array.init n (Core.Schedule.slot_of_id cert.schedule) in
    let i = i mod n and j = j mod n in
    let t = table.(i) in
    table.(i) <- table.(j);
    (match mutant with Swap_slots _ -> table.(j) <- t | _ -> ());
    let num_slots = Core.Schedule.num_slots cert.schedule in
    { cert with schedule = Core.Schedule.of_table ~period ~num_slots table }
  | Foreign seed -> (
    let m = Core.Schedule.num_slots cert.schedule in
    match Tiling.Search.find_tiling (random_tile ~sparse:false ~cells:(2 + (seed mod 6)) seed) with
    | None -> cert
    | Some other ->
      let s = Core.Schedule.of_tiling other in
      let period = Core.Schedule.period s in
      let table = Array.init (Sublattice.index period) (fun k -> Core.Schedule.slot_of_id s k mod m) in
      { cert with schedule = Core.Schedule.of_table ~period ~num_slots:m table })
  | Reflect_clique s -> { cert with clique = List.map (Vec.sub s) cert.clique }

let kernel_agrees (cert : Core.Certificate.t) =
  let n = cert.prototile in
  let diff_bound = Prototile.difference_set n in
  let reference = Oracle.Reference.violations ~neighborhoods:(fun _ -> n) ~diff_bound cert.schedule in
  Core.Certificate.check cert = Oracle.Reference.check cert
  && Core.Collision.violations ~neighborhoods:(fun _ -> n) ~diff_bound cert.schedule = reference
  && Core.Collision.is_collision_free_homogeneous n cert.schedule = (reference = [])

let qcheck_reproof_matches_reference =
  let gen =
    QCheck.Gen.(
      bool >>= fun sparse ->
      int_range 1 (if sparse then 5 else 8) >>= fun cells ->
      int_bound 1_000_000 >>= fun seed ->
      let vec = map (fun (x, y) -> Vec.make2 x y) (pair (int_range (-3) 3) (int_range (-3) 3)) in
      frequency
        [ (2, return Honest); (1, return Drop_member);
          (2, map2 (fun i d -> Push_apart (i, d)) small_nat vec);
          (1, map2 (fun i j -> Swap_slots (i, j)) small_nat small_nat);
          (1, map2 (fun i j -> Copy_slot (i, j)) small_nat small_nat);
          (2, map (fun s -> Foreign s) (int_bound 1_000_000));
          (1, map (fun s -> Reflect_clique s) vec) ]
      >|= fun mutant -> (random_tile ~sparse ~cells seed, mutant))
  in
  let print (p, mutant) = Prototile.to_string p ^ "\n" ^ pp_mutant mutant in
  QCheck.Test.make ~name:"re-proof = set-based reference on certificates and mutants" ~count:1000
    (QCheck.make ~print gen) (fun (p, mutant) ->
      match Tiling.Search.find_tiling p with
      | None -> QCheck.assume_fail ()
      | Some t -> kernel_agrees (mutate (Core.Certificate.build t) mutant))

(* Rule D1 deployments: two random polyominoes covering a small torus,
   with the Theorem-2 schedule or a random slot table over its period.
   The neighborhoods differ by position, so same-slot pairs whose ranges
   miss each other are exercised too. *)
let qcheck_multi_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun c1 ->
      int_range 1 4 >>= fun c2 ->
      int_bound 1_000_000 >>= fun seed ->
      int_range 4 9 >>= fun index ->
      bool >|= fun theorem2 -> (c1, c2, seed, index, theorem2))
  in
  let print (c1, c2, seed, index, theorem2) =
    Printf.sprintf "cells %d+%d seed %d index %d theorem2 %b" c1 c2 seed index theorem2
  in
  QCheck.Test.make ~name:"re-proof = set-based reference on multi-tiling schedules" ~count:100
    (QCheck.make ~print gen) (fun (c1, c2, seed, index, theorem2) ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      let n1 = Randomtile.polyomino rng ~cells:c1 and n2 = Randomtile.polyomino rng ~cells:c2 in
      let periods = Sublattice.all_of_index ~dim:2 index in
      let period = List.nth periods (Prng.Xoshiro.int rng (List.length periods)) in
      match Tiling.Search.cover_torus ~period ~prototiles:[ n1; n2 ] ~max_solutions:4 () with
      | [] -> QCheck.assume_fail ()
      | covers ->
        let multi = List.nth covers (Prng.Xoshiro.int rng (List.length covers)) in
        let s = Core.Schedule.of_multi multi in
        let s =
          if theorem2 then s
          else
            let m = Core.Schedule.num_slots s in
            Core.Schedule.of_table ~period ~num_slots:m
              (Array.init (Sublattice.index period) (fun _ -> Prng.Xoshiro.int rng m))
        in
        let tiles = Array.of_list (Tiling.Multi.prototiles multi) in
        let neighborhoods v =
          let k, _, _ = Tiling.Multi.tile_of multi v in
          tiles.(k)
        in
        let diff_bound =
          Prototile.difference_set (Prototile.of_cells (Tiling.Multi.union_cells multi))
        in
        Core.Collision.violations_multi multi s
        = Oracle.Reference.violations ~neighborhoods ~diff_bound s)

let qc = QCheck_alcotest.to_alcotest

let test_codec_tiling_rejects_invalid () =
  (* Syntactically valid record describing an overlapping tiling. *)
  let bad =
    "tilesched/v1;kind=tiling|prototile=0,0;1,0|basis=1,0;0,2|offsets=0,0"
  in
  Alcotest.(check bool) "invalid tiling rejected" true
    (Result.is_error (Core.Codec.tiling_of_string bad))

let qcheck_codec_mutation_total =
  (* Decoders are total: a valid encoding corrupted by one character
     substitution, deletion, adjacent swap, or truncation must yield
     [Ok] or [Error], never an exception.  (No insertions: inserting
     digits can legitimately describe astronomically large periods.) *)
  let seeds =
    let s = Prototile.tetromino `S in
    let t = Option.get (Tiling.Search.find_tiling s) in
    let sched = Core.Schedule.of_tiling t in
    [ Core.Codec.prototile_to_string s; Core.Codec.schedule_to_string sched;
      Core.Codec.tiling_to_string t ]
  in
  let mutate_gen line =
    QCheck.Gen.(
      let n = String.length line in
      oneof
        [ (let* i = int_bound (n - 1) in
           let* c = printable in
           return (String.mapi (fun j x -> if j = i then c else x) line));
          (let* i = int_bound (n - 1) in
           return (String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)));
          (let* i = int_bound (n - 1) in
           return (String.sub line 0 i));
          (let* i = int_bound (max 0 (n - 2)) in
           let b = Bytes.of_string line in
           if n >= 2 then begin
             let t = Bytes.get b i in
             Bytes.set b i (Bytes.get b (i + 1));
             Bytes.set b (i + 1) t
           end;
           return (Bytes.to_string b)) ])
  in
  QCheck.Test.make ~name:"mutated encodings never raise" ~count:1000
    QCheck.(make ~print:Fun.id Gen.(oneof (List.map mutate_gen seeds)))
    (fun line ->
      (match Core.Codec.prototile_of_string line with Ok _ | Error _ -> ());
      (match Core.Codec.schedule_of_string line with Ok _ | Error _ -> ());
      (match Core.Codec.tiling_of_string line with Ok _ | Error _ -> ());
      true)

let qcheck_conflict_adj_symmetric =
  let gen =
    QCheck.Gen.(
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Array.init 8 (fun _ -> Vec.make2 (Prng.Xoshiro.int rng 7) (Prng.Xoshiro.int rng 7)))
  in
  let arb = QCheck.make gen in
  QCheck.Test.make ~name:"conflict adjacency is symmetric and irreflexive" ~count:60 arb
    (fun sensors ->
      let sensors = Array.of_list (List.sort_uniq Vec.compare (Array.to_list sensors)) in
      let n = Prototile.chebyshev_ball ~dim:2 1 in
      let adj = Core.Finite.conflict_adj ~neighborhood:(fun _ -> n) sensors in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          if row.(i) then ok := false;
          Array.iteri (fun j v -> if v <> adj.(j).(i) then ok := false) row)
        adj;
      !ok)

let random_schedule_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun a ->
    int_range 1 6 >>= fun d ->
    int_range 0 5 >>= fun b ->
    int_range 1 8 >>= fun m ->
    int_bound 1_000_000 >|= fun seed ->
    let period = Sublattice.of_basis [| [| a; b |]; [| 0; d |] |] in
    let rng = Prng.Xoshiro.create (Int64.of_int seed) in
    let table = Array.init (Sublattice.index period) (fun _ -> Prng.Xoshiro.int rng m) in
    Core.Schedule.of_table ~period ~num_slots:m table)

let qcheck_codec_random_schedules =
  let arb = QCheck.make random_schedule_gen in
  QCheck.Test.make ~name:"codec roundtrips arbitrary periodic schedules" ~count:120 arb
    (fun sched ->
      match Core.Codec.schedule_of_string (Core.Codec.schedule_to_string sched) with
      | Error _ -> false
      | Ok sched' ->
        Core.Schedule.num_slots sched = Core.Schedule.num_slots sched'
        && List.for_all
             (fun c -> Core.Schedule.slot_at sched c = Core.Schedule.slot_at sched' c)
             (Sublattice.cosets (Core.Schedule.period sched)))

(* The stored table lists the slots of [Sublattice.cosets] in order,
   the layout the codec has always written; it is now read and written
   in coset-id order, which is the same order. *)
let qcheck_codec_table_in_coset_order =
  QCheck.Test.make ~name:"schedule table is in Sublattice.cosets order" ~count:120
    (QCheck.make random_schedule_gen) (fun sched ->
      let expected =
        List.map
          (fun c -> string_of_int (Core.Schedule.slot_at sched c))
          (Sublattice.cosets (Core.Schedule.period sched))
      in
      match
        Core.Codec.decode_record ~kind:"schedule" (Core.Codec.schedule_to_string sched)
      with
      | Ok kvs -> List.assoc_opt "table" kvs = Some (String.concat "," expected)
      | Error _ -> false)

let qcheck_theorem1_random_polyominoes =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun steps ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      Randomtile.polyomino rng ~cells:(steps + 1))
  in
  let arb = QCheck.make ~print:Prototile.to_string gen in
  QCheck.Test.make ~name:"Theorem 1 on random exact polyominoes" ~count:40 arb (fun p ->
      match Tiling.Search.find_lattice_tiling p with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let s = Core.Schedule.of_tiling t in
        Core.Schedule.num_slots s = Prototile.size p
        && Core.Collision.is_collision_free_theorem1 t s)

let qcheck_certificate_random_exact_polyominoes =
  (* Any tiling the search finds for a random polyomino must yield a
     certificate that (a) passes the independent checker and (b) survives
     a roundtrip of the tiling line it is derived from, checker
     included: a stored verdict keeps only that line. *)
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun cells ->
      int_bound 1_000_000 >|= fun seed ->
      Randomtile.polyomino (Prng.Xoshiro.create (Int64.of_int seed)) ~cells)
  in
  let arb = QCheck.make ~print:Prototile.to_string gen in
  QCheck.Test.make ~name:"random exact polyominoes certify and roundtrip" ~count:40 arb (fun p ->
      match Tiling.Search.find_tiling p with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let cert = Core.Certificate.build t in
        Core.Certificate.check cert = Ok ()
        &&
        (match Core.Codec.tiling_of_string (Core.Codec.tiling_to_string t) with
        | Error _ -> false
        | Ok t' ->
          let cert' = Core.Certificate.build t' in
          Prototile.equal cert.Core.Certificate.prototile cert'.Core.Certificate.prototile
          && List.length cert.Core.Certificate.clique = List.length cert'.Core.Certificate.clique
          && Core.Certificate.check cert' = Ok ()))

let qcheck_tile_is_clique_random =
  (* The Theorem-1 lower-bound argument machine-checked on arbitrary
     prototiles, connected and sparse alike: a tile is always a clique. *)
  let gen =
    QCheck.Gen.(
      bool >>= fun connected ->
      int_range 1 8 >>= fun cells ->
      int_bound 1_000_000 >|= fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int seed) in
      if connected then Randomtile.polyomino rng ~cells
      else Randomtile.sparse rng ~cells ~spread:4)
  in
  let arb = QCheck.make ~print:Prototile.to_string gen in
  QCheck.Test.make ~name:"random prototiles are cliques" ~count:200 arb
    Core.Optimality.tile_is_clique

let () =
  Alcotest.run "core"
    [
      ( "theorem1",
        [
          Alcotest.test_case "slot count = |N|" `Quick test_theorem1_slot_count;
          Alcotest.test_case "collision-free" `Quick test_theorem1_collision_free;
          Alcotest.test_case "slot = cell index" `Quick test_theorem1_matches_cell_index;
          Alcotest.test_case "3-D" `Quick test_theorem1_3d;
          Alcotest.test_case "may_send periodicity" `Quick test_may_send_periodicity;
          Alcotest.test_case "bad schedule detected" `Quick test_bad_schedule_detected;
          Alcotest.test_case "m-1 slots always collide" `Slow test_fewer_slots_always_collide;
          Alcotest.test_case "drift injection" `Quick test_drift_injection;
          Alcotest.test_case "relabel preserves freedom" `Quick
            test_relabel_preserves_collision_freedom;
          Alcotest.test_case "relabel checks permutation" `Quick
            test_relabel_rejects_non_permutation;
          qc qcheck_theorem1_random_polyominoes;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "respectable two-piece" `Quick test_theorem2_respectable;
          Alcotest.test_case "non-respectable stays collision-free" `Quick
            test_theorem2_nonrespectable_collision_free;
          Alcotest.test_case "figure 5: 6 vs 4" `Quick test_figure5_six_vs_four;
          Alcotest.test_case "assignment witness" `Quick test_ground_rule_assignment_witness;
        ] );
      ( "optimality",
        [
          Alcotest.test_case "lower bound + clique" `Quick test_lower_bound_and_clique;
          Alcotest.test_case "chromatic small graphs" `Quick test_chromatic_number_small_graphs;
          qc qcheck_coloring_proper;
          qc qcheck_tile_is_clique_random;
        ] );
      ( "finite",
        [
          Alcotest.test_case "contains translate" `Quick test_contains_translate;
          Alcotest.test_case "large domain optimum" `Quick test_finite_optimum_large_domain;
          Alcotest.test_case "small domain beats m" `Quick test_finite_optimum_small_domain;
          Alcotest.test_case "witnessed vs unwitnessed" `Quick test_witnessed_vs_unwitnessed;
          Alcotest.test_case "restriction optimal" `Quick test_restriction_optimal;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "valid certificates" `Quick test_certificate_valid;
          Alcotest.test_case "detects corruption" `Quick test_certificate_detects_corruption;
          qc qcheck_certificate_random_exact_polyominoes;
          qc qcheck_reproof_matches_reference;
          qc qcheck_multi_matches_reference;
          Alcotest.test_case "schedule in another dimension" `Quick
            test_certificate_dimension_mismatch;
        ] );
      ( "differential",
        [ Alcotest.test_case "periodic = naive window" `Slow test_collision_checker_differential ] );
      ( "codec",
        [
          Alcotest.test_case "schedule roundtrip" `Quick test_codec_schedule_roundtrip;
          Alcotest.test_case "tiling roundtrip" `Quick test_codec_tiling_roundtrip;
          Alcotest.test_case "prototile roundtrip" `Quick test_codec_prototile_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "csv export" `Quick test_codec_csv;
          Alcotest.test_case "rejects invalid tiling" `Quick test_codec_tiling_rejects_invalid;
          qc qcheck_conflict_adj_symmetric;
          qc qcheck_codec_random_schedules;
          qc qcheck_codec_mutation_total;
          qc qcheck_codec_table_in_coset_order;
        ] );
      ( "mobile",
        [
          Alcotest.test_case "eligibility" `Quick test_mobile_eligibility;
          Alcotest.test_case "time gating" `Quick test_mobile_time_gating;
          Alcotest.test_case "pairwise disjoint" `Quick test_mobile_pairwise_disjoint;
        ] );
    ]
