(** Full-rank sublattices of [Z^d].

    The ambient lattice [L] of the paper is always represented as [Z^d]
    (coordinates over a basis), so "a sublattice" here plays the role of a
    period lattice [Lambda <= L]: the translation sets [T] of periodic
    tilings are finite unions of [Lambda]-cosets, and schedules are
    functions on the finite quotient [Z^d / Lambda].

    The basis is stored in row Hermite normal form, which makes equality
    syntactic, membership a triangular solve, and the quotient the explicit
    box [{ v | 0 <= v_i < h_ii }]. *)

type t

val of_basis : Zgeom.Zmat.t -> t
(** [of_basis b] is the sublattice generated by the rows of [b].
    Requires [b] square and non-singular. *)

val of_rows : Zgeom.Vec.t list -> t
(** Convenience wrapper over {!of_basis}. *)

val scaled : int -> int -> t
(** [scaled d m] is [m Z^d] (requires [m > 0]). *)

val full : int -> t
(** [full d] is [Z^d] itself. *)

val dim : t -> int

val basis : t -> Zgeom.Zmat.t
(** The HNF basis; rows generate the sublattice. *)

val generators : t -> Zgeom.Vec.t list

val index : t -> int
(** Group index [\[Z^d : Lambda\]] = |det basis|. *)

val mem : t -> Zgeom.Vec.t -> bool

val reduce : t -> Zgeom.Vec.t -> Zgeom.Vec.t
(** Canonical coset representative: the unique [r] congruent to the
    argument mod the sublattice with [0 <= r_i < h_ii]. *)

val congruent : t -> Zgeom.Vec.t -> Zgeom.Vec.t -> bool
(** Same coset. *)

val cosets : t -> Zgeom.Vec.t list
(** All [index] canonical representatives, lexicographic order.  This is
    coset-id order: the [k]-th element has {!coset_id} [k] (and is
    [coset_of_id t k]).  The torus search relies on it, reading anchor
    [k]'s cells from {!translate_ids} tables at index [k]. *)

val coset_id : t -> Zgeom.Vec.t -> int
(** Dense index in [\[0, index)] of the argument's coset; the mixed-radix
    rank of {!reduce} in the HNF box. Constant-time given [reduce]. *)

val coset_of_id : t -> int -> Zgeom.Vec.t
(** The canonical representative of the coset with this id: the inverse
    of {!coset_id} on [\[0, index)], so [coset_of_id t k] is the [k]-th
    element of {!cosets}. *)

val translate_ids : t -> Zgeom.Vec.t -> int array
(** [translate_ids t d] is translation by [d] on coset ids: the array
    whose [k]-th entry is [coset_id t (coset_of_id t k + d)], for [k] in
    [\[0, index)].  Built on plain ints in one pass over the quotient,
    so a hot loop can translate cosets by [d] with one array read. *)

val for_all_windows : t -> Zgeom.Vec.t list -> (int array -> bool) -> bool
(** [for_all_windows t cells f] holds iff [f ids] holds for every coset
    [k] in id order, where [ids.(j)] is the coset id of [coset_of_id t k]
    plus the [j]-th cell; it stops at the first [false].  [ids] is one
    array reused from call to call, and no table is built: the ids are
    computed on plain ints in [O(index * |cells|)] steps and
    [O(|cells|)] memory. *)

val snf_divisors : t -> int list
(** Invariant factors [d1 | d2 | ...] of [Z^d / Lambda]
    (Smith normal form diagonal). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val all_of_index : dim:int -> int -> t list
(** Every sublattice of [Z^d] of the given index, via enumeration of HNF
    matrices. For [d = 2] there are [sigma(m)] of them. *)

val hnf_diagonals : dim:int -> int -> int list list
(** The positive diagonal tuples [(d_0, ..., d_{dim-1})] with product the
    given index, in the order {!all_of_index} visits them.  Each tuple
    names one independent family of HNF matrices, which is the unit of
    work the parallel search engine distributes across domains. *)

val all_with_diagonal : dim:int -> int list -> t list
(** The sublattices whose HNF basis has the given diagonal, in
    {!all_of_index} order:
    [all_of_index ~dim n
     = List.concat_map (all_with_diagonal ~dim) (hnf_diagonals ~dim n)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
