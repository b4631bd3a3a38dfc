(** Optimality of the tiling schedules, and the Figure 5 phenomenon.

    Lower bound (Theorems 1 and 2): all [|N|] sensors inside one tile
    pairwise interfere - for [n', n''] in [N], the point [n' + n''] lies in
    both [n' + N] and [n'' + N] - so any collision-free schedule needs at
    least [|N|] slots (with [N] the respectable prototile in the
    multi-prototile case).

    Section 4's ground rules for the non-respectable case: every translate
    of a prototile uses the same slot pattern, patterns of different
    prototiles are independent.  The minimum slot count under these rules
    is the chromatic number of a finite {e role graph} whose vertices are
    (prototile, cell) pairs; {!ground_rule_minimum} computes it exactly,
    reproducing the 6-vs-4 dependence on the tiling shown in Figure 5. *)

val lower_bound : Lattice.Prototile.t -> int
(** [= Prototile.size], with the pairwise-interference argument above. *)

val tile_is_clique : Lattice.Prototile.t -> bool
(** Machine-check of the lower-bound argument: every two cells of [N]
    have intersecting ranges. Always true (0 is in N); exercised by
    tests as a sanity check of the proof's reasoning. *)

type role = { piece : int; cell : int }
(** Vertex of the role graph: cell index [cell] of prototile [piece]. *)

val role_conflicts : Tiling.Multi.t -> (role * role) list
(** Edges of the role graph: roles that some pair of distinct sensors
    with intersecting ranges occupies. Exact via the quotient. *)

val ground_rule_minimum : ?pool:Parallel.pool -> Tiling.Multi.t -> int
(** Chromatic number of the role graph: the optimal slot count for this
    tiling under Section 4's ground rules. Equals
    [size of the respectable prototile] for respectable tilings. *)

val ground_rule_assignment : Tiling.Multi.t -> int -> (role * int) list option
(** A valid assignment of roles to the given number of slots, if one
    exists (witness for {!ground_rule_minimum}). *)

val chromatic_number : ?pool:Parallel.pool -> bool array array -> int
(** Exact chromatic number of a small graph by branch and bound;
    exposed for reuse by the baselines and the finite-domain check.
    With a pool of more than one domain (default {!Parallel.default}),
    each [k]-colorability decision enumerates the branching tree's top
    levels breadth-first and evaluates the subtrees in parallel; the
    decision - hence the returned number - is identical to the
    sequential search's at every pool size. *)

val color_with : adj:bool array array -> int -> int array option
(** A proper coloring with the given number of colors, if possible. *)
