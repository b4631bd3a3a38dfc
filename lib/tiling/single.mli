(** Periodic tilings of [Z^d] by translates of a single prototile.

    A tiling in the paper's sense is a translation set [T] with
    [T + N = Z^d] (T1) and non-overlapping translates (T2).  We represent
    the periodic ones: [T = offsets + Lambda] for a period sublattice
    [Lambda] and finitely many coset offsets.  Both conditions then reduce
    to one exact statement on the finite quotient [Z^d / Lambda]: the map
    [(o, n) -> o + n mod Lambda] is a bijection onto the cosets.  [make]
    checks this, so every value of type {!t} {e is} a valid tiling - there
    is no unverified state.

    Every exact polyomino admits such a tiling (Wijshoff-van Leeuwen;
    Beauquier-Nivat), so for the paper's main setting periodicity is no
    loss of generality. *)

type t

val make :
  prototile:Lattice.Prototile.t ->
  period:Lattice.Sublattice.t ->
  offsets:Zgeom.Vec.t list ->
  (t, string) result
(** Validates T1 and T2 on the quotient; the error explains the violation
    (wrong count, duplicate coset, self-overlap). Offsets are reduced to
    canonical representatives and deduplicated first. *)

val make_exn :
  prototile:Lattice.Prototile.t ->
  period:Lattice.Sublattice.t ->
  offsets:Zgeom.Vec.t list ->
  t

val lattice_tiling : Lattice.Prototile.t -> Lattice.Sublattice.t -> (t, string) result
(** The case [T = Lambda] itself ([offsets = {0}]): valid iff the cells of
    the prototile form a complete residue system mod [Lambda]. *)

val prototile : t -> Lattice.Prototile.t
val period : t -> Lattice.Sublattice.t
val offsets : t -> Zgeom.Vec.t list
val dim : t -> int

val slots : t -> int
(** [|N|]: cells per tile, the schedule length of Theorem 1. *)

val in_translation_set : t -> Zgeom.Vec.t -> bool
(** Is the vector in [T]? *)

val tile_of : t -> Zgeom.Vec.t -> Zgeom.Vec.t * Zgeom.Vec.t
(** [tile_of t v] is the unique pair [(s, n)] with [s] in [T], [n] a cell
    of the prototile and [v = s + n] (T1 guarantees existence, T2
    uniqueness). O(1) after construction via a quotient lookup table. *)

val cell_index : t -> Zgeom.Vec.t -> int
(** Index (0-based, in [Prototile.cells] order) of the cell covering [v];
    [Theorem 1] assigns slot [cell_index + 1]. *)

val cell_indices : t -> int array
(** A fresh array of length [Sublattice.index (period t)] whose entry
    [id] is [cell_index t v] for every [v] with [Sublattice.coset_id
    (period t) v = id]: the table {!make} already built, copied. *)

val check_window : t -> radius:int -> bool
(** Independent brute-force re-verification on the cube [[-radius,
    radius]^d]: every point is covered by exactly one translate. Used by
    tests; [make] already guarantees it. *)

val translations_in_window : t -> radius:int -> Zgeom.Vec.t list
(** All elements of [T] whose tiles intersect the window (for rendering). *)

val pp : Format.formatter -> t -> unit
