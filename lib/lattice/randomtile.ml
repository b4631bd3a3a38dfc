open Zgeom

let dirs = [| Vec.make2 1 0; Vec.make2 (-1) 0; Vec.make2 0 1; Vec.make2 0 (-1) |]

let polyomino rng ~cells =
  assert (cells >= 1);
  let shape = ref (Vec.Set.singleton (Vec.zero 2)) in
  while Vec.Set.cardinal !shape < cells do
    let arr = Array.of_list (Vec.Set.elements !shape) in
    let base = Prng.Xoshiro.pick rng arr in
    let candidate = Vec.add base (Prng.Xoshiro.pick rng dirs) in
    shape := Vec.Set.add candidate !shape
  done;
  Prototile.of_cells_anchored (Vec.Set.elements !shape)

let sparse rng ~cells ~spread =
  assert (cells >= 1 && spread >= 0);
  let side = (2 * spread) + 1 in
  if cells > side * side then
    invalid_arg
      (Printf.sprintf "Randomtile.sparse: %d cells do not fit in a %d x %d box" cells side side);
  let shape = ref (Vec.Set.singleton (Vec.zero 2)) in
  while Vec.Set.cardinal !shape < cells do
    let x = Prng.Xoshiro.int rng side - spread in
    let y = Prng.Xoshiro.int rng side - spread in
    shape := Vec.Set.add (Vec.make2 x y) !shape
  done;
  Prototile.of_cells (Vec.Set.elements !shape)
