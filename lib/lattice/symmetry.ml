open Zgeom

type element = { rotation : int; reflected : bool }

let identity = { rotation = 0; reflected = false }

let elements =
  List.concat_map
    (fun reflected -> List.init 4 (fun rotation -> { rotation; reflected }))
    [ false; true ]

let apply e v =
  let v = if e.reflected then Vec.reflect_x v else v in
  let rec rot k v = if k = 0 then v else rot (k - 1) (Vec.rot90 v) in
  rot (e.rotation mod 4) v

(* R^r . F is an involution (F R F = R^-1); pure rotations invert to the
   complementary quarter turn. *)
let inverse e = if e.reflected then e else { e with rotation = (4 - e.rotation) mod 4 }

(* ---------- the integer kernel ----------

   A 2-D cell list lives in a flat int array, cell i at [2i] (x) and
   [2i + 1] (y).  Coordinates are whole native ints and every step is
   the same wrapping negation and subtraction [Vec.rot90],
   [Vec.reflect_x] and [Vec.sub] perform, so the kernel agrees with the
   set-based definition on every tile, including ones whose
   coordinates overflow when anchored. *)

let less (a : int array) i (b : int array) j =
  let ai = Array.unsafe_get a i and bj = Array.unsafe_get b j in
  ai < bj || (ai = bj && Array.unsafe_get a (i + 1) < Array.unsafe_get b (j + 1))

let swap (a : int array) i j =
  let x = a.(i) and y = a.(i + 1) in
  a.(i) <- a.(j);
  a.(i + 1) <- a.(j + 1);
  a.(j) <- x;
  a.(j + 1) <- y

(* Heapsort on cells: O(n log n) worst case with no allocation. *)
let heap_sort a n =
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && less a (2 * child) a ((2 * child) + 2) then child + 1 else child
      in
      if less a (2 * root) a (2 * child) then begin
        swap a (2 * root) (2 * child);
        sift child len
      end
    end
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap a 0 (2 * last);
    sift 0 last
  done

(* Insertion sort below this many cells, where it beats the heap. *)
let small = 16

let sort_cells (a : int array) n =
  if n > small then heap_sort a n
  else
    for i = 1 to n - 1 do
      let x = a.(2 * i) and y = a.((2 * i) + 1) in
      let j = ref (i - 1) in
      while !j >= 0 && (a.(2 * !j) > x || (a.(2 * !j) = x && a.((2 * !j) + 1) > y)) do
        a.((2 * !j) + 2) <- a.(2 * !j);
        a.((2 * !j) + 3) <- a.((2 * !j) + 1);
        decr j
      done;
      a.((2 * !j) + 2) <- x;
      a.((2 * !j) + 3) <- y
    done

(* The source cells in two orders: [xy] holds (x, y) pairs sorted by
   (x, y), [yx] holds (y, x) pairs sorted by (y, x). *)
type source = { xy : int array; yx : int array; n : int }

(* [dst] := the image of the source cells under [e], translated so its
   lexicographic minimum sits at the origin, sorted.  The image's first
   coordinate is +-x for even rotations and +-y for odd ones, so reading
   the source in that coordinate's order (backwards when it is negated)
   leaves only ties out of order and gives the insertion sort little to
   do; the sort alone decides the result. *)
let image e { xy; yx; n } dst =
  let odd = e.rotation land 1 = 1 in
  let src = if odd then yx else xy in
  let backwards = if e.reflected then e.rotation >= 2 else e.rotation = 1 || e.rotation = 2 in
  for i = 0 to n - 1 do
    let j = if backwards then n - 1 - i else i in
    let a = src.(2 * j) and b = src.((2 * j) + 1) in
    let x = if odd then b else a and y = if odd then a else b in
    let y = if e.reflected then -y else y in
    let x', y' =
      match e.rotation with 0 -> (x, y) | 1 -> (-y, x) | 2 -> (-x, -y) | _ -> (y, -x)
    in
    dst.(2 * i) <- x';
    dst.((2 * i) + 1) <- y'
  done;
  let m = ref 0 in
  for i = 1 to n - 1 do
    if less dst (2 * i) dst (2 * !m) then m := i
  done;
  let ax = dst.(2 * !m) and ay = dst.((2 * !m) + 1) in
  for i = 0 to n - 1 do
    dst.(2 * i) <- dst.(2 * i) - ax;
    dst.((2 * i) + 1) <- dst.((2 * i) + 1) - ay
  done;
  sort_cells dst n

let compare_cells (a : int array) (b : int array) n =
  let rec go i =
    if i >= 2 * n then 0
    else if a.(i) < b.(i) then -1
    else if a.(i) > b.(i) then 1
    else go (i + 1)
  in
  go 0

let source p =
  let n = Prototile.size p in
  let xy = Array.make (2 * n) 0 and yx = Array.make (2 * n) 0 and i = ref 0 in
  Vec.Set.iter
    (fun v ->
      xy.(!i) <- Vec.x v;
      xy.(!i + 1) <- Vec.y v;
      yx.(!i) <- Vec.y v;
      yx.(!i + 1) <- Vec.x v;
      i := !i + 2)
    (Prototile.cell_set p);
  sort_cells yx n;
  { xy; yx; n }

let group p =
  assert (Prototile.dim p = 2);
  let src = source p in
  let reference = Array.make (2 * src.n) 0 and img = Array.make (2 * src.n) 0 in
  image identity src reference;
  List.filter
    (fun e ->
      image e src img;
      compare_cells img reference src.n = 0)
    elements

let order p = List.length (group p)

let rotations_in_group p =
  List.length (List.filter (fun e -> not e.reflected) (group p))

let distinct_orientations p = 4 / rotations_in_group p

let is_symmetric_under_rotation p = rotations_in_group p > 1

(* Canonical congruence-class representative: among the anchored, sorted
   images of the cell list under D4 (in [elements] order), the first one
   that is lexicographically least.  Tied images are the same cell set,
   so the tie rule only fixes which witness is reported. *)
let canonicalize p =
  if Prototile.dim p <> 2 then
    match Prototile.cells p with
    | [] -> assert false
    | anchor :: _ as cells ->
      (Prototile.of_cells (List.map (fun v -> Vec.sub v anchor) cells), identity)
  else begin
    let src = source p in
    let n = src.n in
    let best = ref (Array.make (2 * n) 0) and cur = ref (Array.make (2 * n) 0) in
    image identity src !best;
    let witness = ref identity in
    List.iter
      (fun e ->
        image e src !cur;
        if compare_cells !cur !best n < 0 then begin
          let b = !best in
          best := !cur;
          cur := b;
          witness := e
        end)
      (List.tl elements);
    let b = !best in
    if !witness == identity && src.xy.(0) = 0 && src.xy.(1) = 0 then
      (* Already anchored at its minimum and least: [p] is canonical. *)
      (p, identity)
    else
      (Prototile.of_cells (List.init n (fun i -> Vec.make2 b.(2 * i) b.((2 * i) + 1))), !witness)
  end

let canonical p = fst (canonicalize p)
