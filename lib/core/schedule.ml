open Zgeom
open Lattice

type t = { period : Sublattice.t; num_slots : int; table : int array }

let of_table ~period ~num_slots table =
  assert (Array.length table = Sublattice.index period);
  assert (Array.for_all (fun s -> 0 <= s && s < num_slots) table);
  { period; num_slots; table = Array.copy table }

(* [Single.make] already covered every coset, so Theorem 1's table is
   its cell-index table: no coset walk, no reduction. *)
let of_tiling tiling =
  { period = Tiling.Single.period tiling; num_slots = Tiling.Single.slots tiling;
    table = Tiling.Single.cell_indices tiling }

let of_multi multi =
  let period = Tiling.Multi.period multi in
  let union = Tiling.Multi.union_cells multi in
  let slot_of_cell n =
    let rec find k = function
      | [] -> assert false
      | c :: rest -> if Vec.equal c n then k else find (k + 1) rest
    in
    find 0 union
  in
  let idx = Sublattice.index period in
  let table = Array.make idx 0 in
  List.iter
    (fun c ->
      let _, _, n = Tiling.Multi.tile_of multi c in
      table.(Sublattice.coset_id period c) <- slot_of_cell n)
    (Sublattice.cosets period);
  { period; num_slots = List.length union; table }

let num_slots t = t.num_slots
let period t = t.period
let slot_at t v = t.table.(Sublattice.coset_id t.period v)
let slot_of_id t id = t.table.(id)

let ( %+ ) a m =
  let r = a mod m in
  if r < 0 then r + m else r

let may_send t v ~time = time %+ t.num_slots = slot_at t v

let slots_used t =
  Array.to_list t.table |> List.sort_uniq Stdlib.compare

let relabel t perm =
  assert (Array.length perm = t.num_slots);
  let seen = Array.make t.num_slots false in
  Array.iter
    (fun v ->
      assert (0 <= v && v < t.num_slots && not seen.(v));
      seen.(v) <- true)
    perm;
  { t with table = Array.map (fun s -> perm.(s)) t.table }

let with_drift t ~drift_at v ~time = may_send t v ~time:(time + drift_at v)

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule: %d slot(s), period index %d@]" t.num_slots
    (Sublattice.index t.period)
