open Zgeom
open Lattice

type t = {
  prototile : Prototile.t;
  period : Sublattice.t;
  offsets : Vec.t list;
  offset_set : Vec.Set.t;
  (* cover.(coset_id v) = (offset, cell) of the unique tile covering the
     coset of [v]; the actual translation is recovered as [v - cell
     + correction], see [tile_of]. *)
  cover : (Vec.t * Vec.t * int) array;
}

let build prototile period offsets =
  let cells = Prototile.cells prototile in
  let m = List.length cells in
  let idx = Sublattice.index period in
  if m * List.length offsets <> idx then
    Error
      (Printf.sprintf "tile count mismatch: %d offsets x %d cells <> index %d"
         (List.length offsets) m idx)
  else begin
    let cover = Array.make idx None in
    let clash = ref None in
    List.iter
      (fun o ->
        List.iteri
          (fun k n ->
            if !clash = None then begin
              let id = Sublattice.coset_id period (Vec.add o n) in
              match cover.(id) with
              | None -> cover.(id) <- Some (o, n, k)
              | Some (o', n', _) ->
                clash :=
                  Some
                    (Printf.sprintf "overlap: %s+%s and %s+%s agree mod the period"
                       (Vec.to_string o') (Vec.to_string n') (Vec.to_string o)
                       (Vec.to_string n))
            end)
          cells)
      offsets;
    match !clash with
    | Some msg -> Error msg
    | None ->
      (* Counting: idx slots, idx placements, no clash => total cover. *)
      let cover = Array.map Option.get cover in
      Ok { prototile; period; offsets; offset_set = Vec.Set.of_list offsets; cover }
  end

let make ~prototile ~period ~offsets =
  if Prototile.dim prototile <> Sublattice.dim period then Error "dimension mismatch"
  else if List.exists (fun o -> Vec.dim o <> Sublattice.dim period) offsets then
    Error "offset dimension mismatch"
  else begin
    let offsets =
      List.map (Sublattice.reduce period) offsets |> Vec.Set.of_list |> Vec.Set.elements
    in
    build prototile period offsets
  end

let make_exn ~prototile ~period ~offsets =
  match make ~prototile ~period ~offsets with
  | Ok t -> t
  | Error msg -> invalid_arg ("Tiling.Single.make: " ^ msg)

let lattice_tiling prototile period =
  make ~prototile ~period ~offsets:[ Vec.zero (Prototile.dim prototile) ]

let prototile t = t.prototile
let period t = t.period
let offsets t = t.offsets
let dim t = Prototile.dim t.prototile
let slots t = Prototile.size t.prototile

let in_translation_set t v = Vec.Set.mem (Sublattice.reduce t.period v) t.offset_set

let tile_of t v =
  let o, n, _ = t.cover.(Sublattice.coset_id t.period v) in
  let s = Vec.sub v n in
  assert (Vec.equal (Sublattice.reduce t.period s) o);
  (s, n)

let cell_index t v =
  let _, _, k = t.cover.(Sublattice.coset_id t.period v) in
  k

let cell_indices t = Array.map (fun (_, _, k) -> k) t.cover

let iter_window dim radius f =
  let rec go i prefix =
    if i = dim then f (Vec.of_list (List.rev prefix))
    else
      for x = -radius to radius do
        go (i + 1) (x :: prefix)
      done
  in
  go 0 []

let check_window t ~radius =
  let ok = ref true in
  let d = dim t in
  let cells = Prototile.cells t.prototile in
  iter_window d radius (fun v ->
      (* Count tiles covering v by scanning candidate translations v - n. *)
      let covers =
        List.length (List.filter (fun n -> in_translation_set t (Vec.sub v n)) cells)
      in
      if covers <> 1 then ok := false);
  !ok

let translations_in_window t ~radius =
  let d = dim t in
  let acc = ref Vec.Set.empty in
  let cells = Prototile.cells t.prototile in
  iter_window d radius (fun v ->
      List.iter
        (fun n ->
          let s = Vec.sub v n in
          if in_translation_set t s then acc := Vec.Set.add s !acc)
        cells);
  Vec.Set.elements !acc

let pp fmt t =
  Format.fprintf fmt "@[<v>tiling: %d-cell prototile, period index %d, %d offset(s)@,%a@]"
    (slots t) (Sublattice.index t.period) (List.length t.offsets) Sublattice.pp t.period
