(** Symmetries of 2-D prototiles.

    The symmetry group of a prototile is the subgroup of the square
    lattice's point group D4 (rotations by 90 degrees and reflections)
    whose elements map the cell set to a translate of itself.  Antenna
    reading: the radiation pattern's symmetry.  Scheduling reading:
    symmetric prototiles admit symmetric tilings and the symmetry class
    determines how many genuinely different rotated deployments exist
    (Section 4's motivation for multiple prototiles). *)

type element = {
  rotation : int;  (** quarter turns, 0-3 *)
  reflected : bool;  (** composed with the x-axis mirror (applied first) *)
}

val identity : element

val elements : element list
(** All 8 elements of D4, reflections last, rotations ascending. *)

val apply : element -> Zgeom.Vec.t -> Zgeom.Vec.t

val inverse : element -> element
(** [apply (inverse e) (apply e v) = v].  Reflected elements are
    involutions; pure rotations invert to the complementary turn. *)

val group : Prototile.t -> element list
(** The elements of D4 fixing the prototile up to translation; always
    contains the identity, and its size divides 8. *)

val order : Prototile.t -> int

val distinct_orientations : Prototile.t -> int
(** Number of genuinely different rotated versions: [4 / |rotations in
    the group|]. A fully symmetric ball has 1; the S tetromino has 2; an
    L shape has 4. *)

val is_symmetric_under_rotation : Prototile.t -> bool
(** Has a non-trivial rotation symmetry. *)

(** {2 Canonical form}

    Two prototiles are {e congruent} when one is a translate of a
    rotated/reflected copy of the other.  Congruent prototiles have the
    same tilings up to the same transformation, so a cache of search
    results should key on the congruence class, not on the literal cell
    set.  [canonical] picks one distinguished representative per class. *)

val canonical : Prototile.t -> Prototile.t
(** The distinguished representative of the prototile's congruence
    class: the lexicographically least translation-anchored cell list
    among the images of the prototile under its point group (all of D4
    in 2-D, translations only in other dimensions).  Total on all
    prototiles, idempotent, and invariant: congruent prototiles have
    equal canonical forms. *)

val canonicalize : Prototile.t -> Prototile.t * element
(** [canonicalize p] is [(canonical p, g)] with a witness [g] such that
    the cells of [canonical p] are [apply g] of the cells of [p],
    translated so the lexicographic minimum sits at the origin.  When
    several images tie (a symmetric tile), [g] is the first of them in
    {!elements} order.  In dimensions other than 2 the witness is
    {!identity}.

    The images are built, anchored and sorted in flat int arrays with the
    same wrapping arithmetic as {!apply} and [Vec.sub], so the result is
    defined for every coordinate, and the cost is [O(n log n)] in the
    number of cells. *)
