open Zgeom
open Lattice

type engine = [ `Backtracking | `Dlx ]

type placement = { piece : int; anchor : Vec.t; covers : int list }

(* Prototile-major, anchors in [cosets] order.  A placement meeting one
   coset twice overlaps itself on the torus - a T2 violation in Z^d. *)
let placements ~period prototiles =
  List.concat
    (List.mapi
       (fun k p ->
         List.filter_map
           (fun o ->
             let covers =
               List.map (fun n -> Sublattice.coset_id period (Vec.add o n)) (Prototile.cells p)
             in
             if List.length (List.sort_uniq compare covers) <> List.length covers then None
             else Some { piece = k; anchor = o; covers })
           (Sublattice.cosets period))
       prototiles)
  |> Array.of_list

let to_multi ~period prototiles pls sol =
  List.mapi
    (fun k tile ->
      { Tiling.Multi.tile;
        piece_offsets =
          List.filter_map (fun q -> if pls.(q).piece = k then Some pls.(q).anchor else None) sol })
    prototiles
  |> List.filter (fun pc -> pc.Tiling.Multi.piece_offsets <> [])
  |> Tiling.Multi.make_exn ~period

(* List backtracker.  Each node branches on the most constrained
   uncovered cell - the first strict minimum of free candidates, in cell
   order - and re-tests each candidate's freeness when it is visited. *)
let backtrack ~idx pls ~max_solutions ~keep =
  let by_cell = Array.make idx [] in
  Array.iteri (fun q pl -> List.iter (fun c -> by_cell.(c) <- q :: by_cell.(c)) pl.covers) pls;
  let by_cell = Array.map List.rev by_cell in
  let covered = Array.make idx false in
  let free q = List.for_all (fun c -> not covered.(c)) pls.(q).covers in
  let best_cell () =
    let best = ref None in
    for c = 0 to idx - 1 do
      if (not covered.(c)) && !best <> Some [] then begin
        let cands = List.filter free by_cell.(c) in
        match !best with
        | Some b when List.length b <= List.length cands -> ()
        | _ -> best := Some cands
      end
    done;
    !best
  in
  let solutions = ref [] and count = ref 0 in
  let rec solve chosen =
    if !count < max_solutions then
      match best_cell () with
      | None ->
        let sol = List.rev chosen in
        if keep sol then begin
          solutions := sol :: !solutions;
          incr count
        end
      | Some cands ->
        List.iter
          (fun q ->
            if !count < max_solutions && free q then begin
              List.iter (fun c -> covered.(c) <- true) pls.(q).covers;
              solve (q :: chosen);
              List.iter (fun c -> covered.(c) <- false) pls.(q).covers
            end)
          cands
  in
  solve [];
  List.rev !solutions

(* Raw solutions: placement-index lists, in enumeration order. *)
let raw ~engine ~idx pls ~max_solutions ~keep =
  match engine with
  | `Backtracking -> backtrack ~idx pls ~max_solutions ~keep
  | `Dlx ->
    Dlx.solve ~max_solutions ~keep
      (Dlx.create ~universe:idx (Array.to_list (Array.map (fun pl -> pl.covers) pls)))

let covers ~engine ~period ~prototiles ~max_solutions ?keep () =
  let pls = placements ~period prototiles in
  let to_multi = to_multi ~period prototiles pls in
  let keep = match keep with None -> fun _ -> true | Some f -> fun sol -> f (to_multi sol) in
  List.map to_multi (raw ~engine ~idx:(Sublattice.index period) pls ~max_solutions ~keep)

let count ~engine ~period ~prototiles =
  List.length
    (raw ~engine ~idx:(Sublattice.index period) (placements ~period prototiles)
       ~max_solutions:max_int ~keep:(fun _ -> true))
