(** Torus exact covers by the differential oracles of
    [Tiling.Search.cover_torus]: a list backtracker and Knuth's dancing
    links ({!Dlx}).

    Both enumerate every exact cover of [Z^d / period] by translates of
    the prototiles under the kernel's branching rule - first
    strict-minimum uncovered cell, candidates in placement order
    (prototile-major, anchors in {!Lattice.Sublattice.cosets} order,
    self-overlapping placements left out) - so they return the kernel's
    ordered solution list, not just its set.  The placement list is
    built here from {!Lattice.Sublattice.cosets},
    {!Lattice.Sublattice.coset_id} and the prototiles, and solutions go
    through the validating {!Tiling.Multi.make}: nothing is shared with
    the kernel's own tables, so a fault in them is a disagreement.
    Both run sequentially. *)

type engine = [ `Backtracking | `Dlx ]

val covers :
  engine:engine ->
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  max_solutions:int ->
  ?keep:(Tiling.Multi.t -> bool) ->
  unit ->
  Tiling.Multi.t list
(** The first [max_solutions] covers, in enumeration order.  [keep]
    filters during the search, as in [Tiling.Search.cover_torus]: only
    accepted covers are returned or counted against [max_solutions]. *)

val count :
  engine:engine -> period:Lattice.Sublattice.t -> prototiles:Lattice.Prototile.t list -> int
(** The number of covers, enumerated without building a
    {!Tiling.Multi.t}. *)
