(* Reference oracle for [Lattice.Symmetry.canonicalize]: the set-based
   definition the integer kernel replaces.  Each image is a [Vec.Set]
   built with [Symmetry.apply], anchored at its minimum with [Vec.sub]
   and compared as an [int list list]; the first least image wins.  It
   shares no arithmetic with the kernel's flat-array images, so the
   differential property in [test_lattice.ml] holds the kernel to the
   same canonical tile and the same witness. *)

open Zgeom
open Lattice

let normalized cells =
  let anchor = Vec.Set.min_elt cells in
  Vec.Set.map (fun v -> Vec.sub v anchor) cells

let canonicalize p =
  let candidates =
    if Prototile.dim p = 2 then
      List.map
        (fun e -> (normalized (Vec.Set.map (Symmetry.apply e) (Prototile.cell_set p)), e))
        Symmetry.elements
    else [ (normalized (Prototile.cell_set p), Symmetry.identity) ]
  in
  let key (s, _) = List.map Vec.to_list (Vec.Set.elements s) in
  let best =
    List.fold_left
      (fun acc c -> if compare (key c) (key acc) < 0 then c else acc)
      (List.hd candidates) (List.tl candidates)
  in
  (Prototile.of_cells (Vec.Set.elements (fst best)), snd best)
