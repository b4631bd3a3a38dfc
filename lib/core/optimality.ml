open Zgeom
open Lattice

let lower_bound = Prototile.size

let tile_is_clique n =
  let cells = Prototile.cells n in
  List.for_all
    (fun n' ->
      List.for_all
        (fun n'' ->
          (* n' + n'' lies in both n' + N and n'' + N. *)
          let w = Vec.add n' n'' in
          Vec.Set.mem w (Prototile.translate n' n) && Vec.Set.mem w (Prototile.translate n'' n))
        cells)
    cells

type role = { piece : int; cell : int }

let role_conflicts multi =
  let period = Tiling.Multi.period multi in
  let pieces = Array.of_list (Tiling.Multi.pieces multi) in
  let tiles = Array.map (fun p -> p.Tiling.Multi.tile) pieces in
  let cells = Array.map Prototile.cells tiles in
  let offset_sets =
    Array.map (fun p -> Vec.Set.of_list p.Tiling.Multi.piece_offsets) pieces
  in
  let conflicts = ref [] in
  let n_pieces = Array.length pieces in
  for k = 0 to n_pieces - 1 do
    for l = 0 to n_pieces - 1 do
      (* diff = N_k - N_l: the possible values of v - u for sensors u
         (role of piece k) and v (piece l) with intersecting ranges. *)
      let diff =
        Vec.Set.fold
          (fun a acc ->
            Vec.Set.fold
              (fun b acc -> Vec.Set.add (Vec.sub a b) acc)
              (Prototile.cell_set tiles.(l))
              acc)
          (Prototile.cell_set tiles.(k))
          Vec.Set.empty
      in
      List.iteri
        (fun i n_i ->
          List.iteri
            (fun j n_j ->
              let edge = ref false in
              (* u = s + n_i with s an offset of piece k (cosets suffice by
                 periodicity); v = u + d must decompose as t + n_j with t
                 in T_l. *)
              List.iter
                (fun s ->
                  let u = Vec.add s n_i in
                  Vec.Set.iter
                    (fun d ->
                      if not !edge then begin
                        let v = Vec.add u d in
                        let t = Vec.sub v n_j in
                        let same_sensor = Vec.equal u v in
                        let t_in_tl = Vec.Set.mem (Sublattice.reduce period t) offset_sets.(l) in
                        (* v - u in N_k - N_l already holds by the range of d. *)
                        if t_in_tl && not (same_sensor && k = l && i = j) then begin
                          (* By T2/GT2 a position has a unique covering
                             tile, so u = v with distinct roles cannot
                             happen; assert it. *)
                          assert ((not same_sensor) || (k = l && i = j));
                          if not same_sensor then edge := true
                        end
                      end)
                    diff)
                pieces.(k).Tiling.Multi.piece_offsets;
              if !edge then conflicts := ({ piece = k; cell = i }, { piece = l; cell = j }) :: !conflicts)
            cells.(l))
        cells.(k)
    done
  done;
  !conflicts

(* Exact graph coloring by backtracking: vertices in static degree order,
   allowing at most one fresh color beyond those already used (standard
   symmetry breaking). *)
let degree_order adj =
  let n = Array.length adj in
  let idx = Array.init n Fun.id in
  let deg v = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 adj.(v) in
  Array.sort (fun a b -> Stdlib.compare (deg b) (deg a)) idx;
  idx

(* Extend a partial assignment of [order.(0 .. pos-1)] to a full k-coloring;
   [colors] holds the attempt and keeps the witness on success. *)
let extend ~adj ~order colors ~pos ~used k =
  let n = Array.length adj in
  let rec go pos used =
    if pos = n then true
    else begin
      let v = order.(pos) in
      let limit = min k (used + 1) in
      let rec try_color c =
        if c >= limit then false
        else begin
          let ok = ref true in
          for u = 0 to n - 1 do
            if adj.(v).(u) && colors.(u) = c then ok := false
          done;
          if !ok then begin
            colors.(v) <- c;
            if go (pos + 1) (max used (c + 1)) then true
            else begin
              colors.(v) <- -1;
              try_color (c + 1)
            end
          end
          else try_color (c + 1)
        end
      in
      try_color 0
    end
  in
  go pos used

let color_with ~adj k =
  let n = Array.length adj in
  if n = 0 then Some [||]
  else begin
    let order = degree_order adj in
    let colors = Array.make n (-1) in
    if extend ~adj ~order colors ~pos:0 ~used:0 k then Some colors else None
  end

(* Parallel k-colorability decision: enumerate the valid partial
   assignments a few levels deep (breadth-first, under the same symmetry
   breaking), then evaluate the subtrees on the pool's domains.  The
   answer is an existence question, so it is identical to the sequential
   search's for any pool size and branch timing. *)
let color_feasible pool ~adj k =
  let n = Array.length adj in
  if n = 0 then true
  else if Parallel.jobs pool = 1 then color_with ~adj k <> None
  else begin
    let order = degree_order adj in
    let target = 4 * Parallel.jobs pool in
    let rec widen pos prefixes =
      if pos >= n || List.length prefixes >= target then (pos, prefixes)
      else begin
        let v = order.(pos) in
        let next =
          List.concat_map
            (fun (colors, used) ->
              let limit = min k (used + 1) in
              List.filter_map
                (fun c ->
                  let clash = ref false in
                  for u = 0 to n - 1 do
                    if adj.(v).(u) && colors.(u) = c then clash := true
                  done;
                  if !clash then None
                  else begin
                    let colors' = Array.copy colors in
                    colors'.(v) <- c;
                    Some (colors', max used (c + 1))
                  end)
                (List.init limit Fun.id))
            prefixes
        in
        widen (pos + 1) next
      end
    in
    let pos, prefixes = widen 0 [ (Array.make n (-1), 0) ] in
    if pos >= n then prefixes <> []
    else
      (* Subtree costs are wildly uneven (most prefixes die fast, a few
         carry the whole search), which the stealing scheduler balances. *)
      Parallel.map_array pool
        (fun (colors, used) -> extend ~adj ~order colors ~pos ~used k)
        (Array.of_list prefixes)
      |> Array.exists Fun.id
  end

let chromatic_number ?pool adj =
  let pool = match pool with Some pl -> pl | None -> Parallel.default () in
  let n = Array.length adj in
  let rec go k = if k > n then n else if color_feasible pool ~adj k then k else go (k + 1) in
  go 0

let role_graph multi =
  let pieces = Array.of_list (Tiling.Multi.pieces multi) in
  let sizes = Array.map (fun p -> Prototile.size p.Tiling.Multi.tile) pieces in
  let base = Array.make (Array.length pieces) 0 in
  for k = 1 to Array.length pieces - 1 do
    base.(k) <- base.(k - 1) + sizes.(k - 1)
  done;
  let total = Array.fold_left ( + ) 0 sizes in
  let id r = base.(r.piece) + r.cell in
  let adj = Array.make_matrix total total false in
  List.iter
    (fun (a, b) ->
      if id a <> id b then begin
        adj.(id a).(id b) <- true;
        adj.(id b).(id a) <- true
      end)
    (role_conflicts multi);
  (adj, base, sizes)

let ground_rule_minimum ?pool multi =
  let adj, _, _ = role_graph multi in
  chromatic_number ?pool adj

let ground_rule_assignment multi k =
  let adj, base, sizes = role_graph multi in
  match color_with ~adj k with
  | None -> None
  | Some colors ->
    let out = ref [] in
    Array.iteri
      (fun p b ->
        for c = 0 to sizes.(p) - 1 do
          out := ({ piece = p; cell = c }, colors.(b + c)) :: !out
        done)
      base;
    Some (List.rev !out)
