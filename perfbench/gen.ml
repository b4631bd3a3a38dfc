(* Seeded workload generation.  Everything the daemon receives is built
   here from the workload seed; the same seed gives the same tiles, the
   same distinct-request table and the same request stream. *)

open Lattice
module P = Server.Protocol

type origin =
  | Corpus_exact
  | Corpus_non_exact
  | Hot  (* non-corpus prototile that lives in the daemon's LRU *)
  | Fresh_poly of { exact : bool }  (* hole-free polyomino of area 11-12 *)
  | Fresh_sparse  (* non-polyomino tile that tiles by construction *)

type req = { request : P.request; tile : Prototile.t; origin : origin }

let rng_of_seed seed salt = Prng.Xoshiro.create (Int64.of_int ((seed * 1_000_003) + salt))

let key tile = Core.Codec.vecs_to_string (Prototile.cells (Symmetry.canonical tile))

(* Every free polyomino of area <= [max_area] in canonical orientation,
   split by the corpus verdict.  The corpus is read only to classify;
   the daemon never sees this list. *)
let corpus_classes corpus ~max_area =
  let exact = ref [] and non_exact = ref [] in
  Polyomino.enumerate_free_iter ~max_area (fun ~area:_ tile ->
      let canon = Symmetry.canonical tile in
      match Corpus.Snapshot.find corpus (key canon) with
      | None -> failwith "perfbench: corpus is missing a free polyomino"
      | Some hit -> (
        match Corpus.Snapshot.verdict corpus hit with
        | `Exact -> exact := canon :: !exact
        | `Non_exact -> non_exact := canon :: !non_exact));
  (Array.of_list (List.rev !exact), Array.of_list (List.rev !non_exact))

(* A random image of [tile] under D4, re-anchored so its least cell is
   the origin: a congruent tile the daemon must canonicalize. *)
let orient rng tile =
  let g = List.nth Symmetry.elements (Prng.Xoshiro.int rng 8) in
  Prototile.of_cells_anchored (List.map (Symmetry.apply g) (Prototile.cells tile))

(* A disconnected tile with one cell in each coset of a random
   sublattice of index [m]: it tiles the plane by that sublattice, so a
   correct daemon always answers it with a tiling. *)
let rec sparse_tiling rng ~m ~spread =
  let lats = Array.of_list (Sublattice.all_of_index ~dim:2 m) in
  let lam = Prng.Xoshiro.pick rng lats in
  let reps = Array.make m None in
  reps.(Sublattice.coset_id lam (Zgeom.Vec.zero 2)) <- Some (Zgeom.Vec.zero 2);
  let side = (2 * spread) + 1 in
  for _ = 1 to 40 * m do
    let v =
      Zgeom.Vec.make2
        (Prng.Xoshiro.int rng side - spread)
        (Prng.Xoshiro.int rng side - spread)
    in
    let c = Sublattice.coset_id lam v in
    if reps.(c) = None then reps.(c) <- Some v
  done;
  if Array.exists Option.is_none reps then sparse_tiling rng ~m ~spread
  else
    let tile = Prototile.of_cells (Array.to_list (Array.map Option.get reps)) in
    if Polyomino.is_connected tile then sparse_tiling rng ~m ~spread else tile

let rec hole_free_poly rng ~cells =
  let t = Randomtile.polyomino rng ~cells in
  if Polyomino.has_holes t then hole_free_poly rng ~cells else t

(* Popularity skew of every stream: that of the repo's own load model,
   [Server.Loadgen.default] (Zipf 1.1). *)
let zipf_s = Server.Loadgen.default.zipf

(* Zipf([zipf_s]) over [n] ranks: cumulative weights for binary-search
   draws. *)
let zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Prng.Xoshiro.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* A stream of [len] indices into [n] distinct requests, Zipf-skewed
   over a seeded permutation so the hot keys differ from seed to seed
   (or, with [~permute:false], with request [i] at rank [i]). *)
let zipf_stream ?(permute = true) rng ~n ~len =
  let perm = Array.init n Fun.id in
  if permute then Prng.Xoshiro.shuffle rng perm;
  let cdf = zipf_cdf n in
  Array.init len (fun _ -> perm.(zipf_draw rng cdf))

(* ---------- warm-splice ---------- *)

(* Binary tile-search for the canonical orientation of every corpus
   class: the frontend's pre-decode memo holds all of them after the
   warm-up (6,473 payloads, far below its 65,536 cap). *)
let warm_splice ~exact ~non_exact =
  let mk origin tile = { request = P.Tile_search tile; tile; origin } in
  Array.append (Array.map (mk Corpus_exact) exact) (Array.map (mk Corpus_non_exact) non_exact)

(* ---------- warm-mix ---------- *)

let hot_set rng =
  let balls =
    [ Prototile.chebyshev_ball ~dim:2 2; Prototile.euclidean_ball ~dim:2 2;
      Prototile.manhattan_ball ~dim:2 3; Prototile.rect 3 4 ]
  in
  let sparse = List.init 10 (fun i -> sparse_tiling rng ~m:(6 + (i mod 4)) ~spread:3) in
  (* Distinct canonical classes only; none of them is in the corpus. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun t ->
      let k = key t in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (balls @ sparse)
  |> Array.of_list

(* The share of tiles outside the corpus in the repo's own load model:
   of [Server.Loadgen.default_tiles], one in sixteen (cheb2, 25 cells)
   is served from the LRU rather than the corpus. *)
let hot_share corpus =
  let tiles = Server.Loadgen.default_tiles in
  let outside = List.filter (fun (_, t) -> Corpus.Snapshot.find corpus (key t) = None) tiles in
  float_of_int (List.length outside) /. float_of_int (List.length tiles)

(* A kind for each of [n] Zipf ranks, such that on every prefix of the
   ranks each kind's share of the traffic tracks [shares]: rank [r] goes
   to the kind furthest below its share.  The assignment does not depend
   on the seed, so every seed's stream has the same mix; a free draw
   would let the few top ranks, which carry a third of the traffic,
   decide it. *)
let apportion ~shares n =
  let got = Array.make (Array.length shares) 0.0 in
  let total = ref 0.0 in
  Array.init n (fun r ->
      let w = 1.0 /. (float_of_int (r + 1) ** zipf_s) in
      total := !total +. w;
      let best = ref 0 in
      Array.iteri
        (fun k sh ->
          if (sh *. !total) -. got.(k) > (shares.(!best) *. !total) -. got.(!best) then best := k)
        shares;
      got.(!best) <- got.(!best) +. w;
      !best)

(* [n] distinct requests, request [r] at Zipf rank [r], each for a tile
   in a random one of its 8 orientations.  By traffic: Loadgen's 80/15/5
   slot/schedule/tile-search mix (slot positions in its [-20, 20]^2);
   a hot-set tile in a share [hot_share] (taken in turn), otherwise a
   seeded corpus class, exact and non-exact in the corpus's own
   proportion. *)
let warm_mix rng ~exact ~non_exact ~hot ~hot_share ~n =
  let ops = [| 0.80; 0.15; 0.05 |] in
  let pe = float_of_int (Array.length exact) /. float_of_int (Array.length exact + Array.length non_exact) in
  let classes = [| hot_share; (1.0 -. hot_share) *. pe; (1.0 -. hot_share) *. (1.0 -. pe) |] in
  let shares = Array.concat (Array.to_list (Array.map (fun o -> Array.map (fun c -> o *. c) classes) ops)) in
  let next_hot = ref 0 in
  Array.map
    (fun kind ->
      let origin, base =
        match kind mod 3 with
        | 0 ->
          incr next_hot;
          (Hot, hot.((!next_hot - 1) mod Array.length hot))
        | 1 -> (Corpus_exact, Prng.Xoshiro.pick rng exact)
        | _ -> (Corpus_non_exact, Prng.Xoshiro.pick rng non_exact)
      in
      let tile = orient rng base in
      let request =
        if kind / 3 = 0 then
          let pos =
            Zgeom.Vec.make2 (Prng.Xoshiro.int rng 41 - 20) (Prng.Xoshiro.int rng 41 - 20)
          in
          P.Slot { tile; pos }
        else if kind / 3 = 1 then P.Schedule tile
        else P.Tile_search tile
      in
      { request; tile; origin })
    (apportion ~shares n)

(* ---------- fresh-search ---------- *)

(* Tiles in neither the corpus (area <= 10 polyominoes) nor the store:
   blocks of 20 with a fixed composition - 10 sparse tiles, 2 exact and
   8 non-exact hole-free polyominoes (4 of area 11, 4 of area 12) - in
   seeded order.  Fixing the composition per block removes the binomial
   noise of a free draw, whose exact/non-exact split moves fresh-search
   time by several per cent from seed to seed. *)
type fresh = { fill : req array; stream : req array }

let fresh rng ~blocks ~fill_sparse ~fill_exact =
  let seen = Hashtbl.create 4096 in
  let fresh_key t =
    let k = key t in
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.add seen k ();
      true
    end
  in
  let rec sparse ~m =
    let t = sparse_tiling rng ~m ~spread:3 in
    if fresh_key t then { request = P.Tile_search t; tile = t; origin = Fresh_sparse }
    else sparse ~m
  in
  (* Exact and non-exact polyominoes come from one growth-model stream,
     classified by the Beauquier-Nivat test. *)
  let pool_exact = Queue.create () and pool_non = [| Queue.create (); Queue.create () |] in
  let rec poly ~want_exact ~cells =
    let q = if want_exact then pool_exact else pool_non.(cells - 11) in
    match Queue.take_opt q with
    | Some r -> r
    | None ->
      let c = 11 + Prng.Xoshiro.int rng 2 in
      let t = hole_free_poly rng ~cells:c in
      if fresh_key t then begin
        match Tiling.Search.exactness t with
        | `Exact ->
          Queue.add { request = P.Tile_search t; tile = t; origin = Fresh_poly { exact = true } }
            pool_exact
        | `NotExact ->
          Queue.add
            { request = P.Tile_search t; tile = t; origin = Fresh_poly { exact = false } }
            pool_non.(c - 11)
        | `Unknown -> ()
      end;
      poly ~want_exact ~cells
  in
  let fill =
    Array.append
      (Array.init fill_sparse (fun _ -> sparse ~m:8))
      (Array.init fill_exact (fun _ -> poly ~want_exact:true ~cells:11))
  in
  let block () =
    let b =
      Array.concat
        [ Array.init 10 (fun _ -> sparse ~m:7);
          Array.init 2 (fun _ -> poly ~want_exact:true ~cells:11);
          Array.init 4 (fun _ -> poly ~want_exact:false ~cells:11);
          Array.init 4 (fun _ -> poly ~want_exact:false ~cells:12) ]
    in
    Prng.Xoshiro.shuffle rng b;
    b
  in
  { fill; stream = Array.concat (List.init blocks (fun _ -> block ())) }
