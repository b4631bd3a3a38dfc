(* Reference oracle for [Core.Schedule.of_tiling]: Theorem 1's slot
   table built by walking [Sublattice.cosets] and asking the tiling
   which prototile cell covers each representative.  The library copies
   the cell-index table [Tiling.Single.make] already holds instead; the
   differential property in [test_core.ml] requires the same table. *)

open Lattice

let schedule_of_tiling tiling =
  let period = Tiling.Single.period tiling in
  let table = Array.make (Sublattice.index period) 0 in
  List.iter
    (fun c -> table.(Sublattice.coset_id period c) <- Tiling.Single.cell_index tiling c)
    (Sublattice.cosets period);
  Core.Schedule.of_table ~period ~num_slots:(Tiling.Single.slots tiling) table
