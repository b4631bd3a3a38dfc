(** The Beauquier-Nivat exactness criterion (Section 3 of the paper).

    A polyomino tiles the plane by translations iff its boundary word [W]
    admits, up to cyclic rotation, a factorization
    [W = X1 X2 X3 hat(X1) hat(X2) hat(X3)] where [hat] is
    reverse-complement ([u <-> d], [l <-> r]) and at most one factor is
    empty: a {e pseudo-hexagon}, or a {e pseudo-square} when [X3] is empty
    (Beauquier-Nivat 1991).  Combined with Wijshoff-van Leeuwen's theorem
    that an exact polyomino always admits a lattice tiling, this gives the
    polynomial-time decision procedure the paper highlights.

    The implementation precomputes, for each anti-diagonal [c] of the
    cyclic word, the run lengths of positions [v] with
    [W(c - v) = complement (W v)]; each candidate factorization then checks
    in O(1), for an O(n^3) total with an O(n^2) table - between the O(n^4)
    naive bound and Gambini-Vuillon's O(n^2). *)

type factorization = {
  start : int;  (** Cyclic start position of [X1]. *)
  len1 : int;  (** |X1| >= 1 *)
  len2 : int;  (** |X2| >= 1 *)
  len3 : int;  (** |X3| >= 0; [0] means pseudo-square. *)
}

val complement : char -> char
(** [u <-> d], [l <-> r]. *)

val hat : string -> string
(** Reverse-complement. *)

val displacement : string -> Zgeom.Vec.t
(** Net displacement of a path word; [0] for a closed boundary. *)

val find_factorization : string -> factorization option
(** BN factorization of a cyclic boundary word, or [None]. *)

val find_factorization_naive : string -> factorization option
(** Reference implementation with direct O(n) factor comparisons (O(n^4)
    total).  Kept for cross-validation (property tests check agreement
    with {!find_factorization}) and for the algorithm-ablation benchmark
    in the harness. *)

val is_pseudo_square : string -> bool
val is_pseudo_hexagon : string -> bool
(** Strict pseudo-hexagon: some factorization with all three factors
    non-empty (a word can be both). *)

val factor_words : string -> factorization -> string * string * string
(** The three factor words [X1, X2, X3] of a factorization. *)

val translation_vectors : string -> factorization -> Zgeom.Vec.t * Zgeom.Vec.t
(** Periods of the induced regular tiling: displacements of [X1 X2] and
    [X2 X3]. These two vectors generate a sublattice that tiles the plane
    with the polyomino. *)

val is_exact_polyomino : Prototile.t -> bool
(** End-to-end: boundary word + BN criterion. Requires
    [Polyomino.is_polyomino]. *)
