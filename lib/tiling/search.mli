(** Finding tilings and deciding exactness (question Q1 of the paper).

    Three procedures, by generality:

    - {!lattice_tilings}: enumerate all sublattices of index [|N|] and keep
      those for which the prototile's cells form a complete residue
      system.  Finds exactly the tilings with [T] a sublattice.
    - {!cover_torus}: exact-cover backtracking on a finite quotient
      [Z^d / Lambda], finding every periodic tiling with that period
      (including multi-prototile and non-lattice ones, e.g. the S/Z mix of
      Figure 5).
    - {!decide}: the decision procedure. For simply-connected 2-D
      polyominoes the Beauquier-Nivat criterion is complete
      (together with Wijshoff-van Leeuwen's periodicity theorem); for
      arbitrary prototiles we search periods up to a bounded index
      multiple and report [Not_found] on exhaustion - the general problem
      is open, and even prime-size prototiles can require non-lattice
      translation sets (e.g. [{0, 2}] in [Z] tiles only with
      [T = {0,1} + 4Z]). *)

val lattice_tilings : ?pool:Parallel.pool -> Lattice.Prototile.t -> Lattice.Sublattice.t list
(** All period sublattices [Lambda] of index [|N|] with the cells pairwise
    non-congruent mod [Lambda]; each yields [Single.lattice_tiling].

    The HNF enumeration is partitioned by diagonal family
    ({!Lattice.Sublattice.hnf_diagonals}) and the families are checked on
    the pool's domains (default {!Parallel.default}); the result list is
    identical to the sequential enumeration at every pool size. *)

val find_lattice_tiling : Lattice.Prototile.t -> Single.t option
(** The tiling by the first lattice {!lattice_tilings} lists, if any.
    The enumeration runs sequentially and stops at that lattice, so it
    never builds the rest of the list. *)

val cover_torus :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?max_solutions:int ->
  ?keep:(Multi.t -> bool) ->
  ?pool:Parallel.pool ->
  unit ->
  Multi.t list
(** All exact covers of the quotient by translates of the prototiles
    (at most [max_solutions], default 64). Placements that self-overlap on
    the torus are excluded: they correspond to T2 violations in [Z^d].
    Prototiles unused by a particular solution are dropped from its piece
    list.

    The solver is a word-parallel kernel on {!Bitset} masks.  Each
    placement's cover mask (cells) and conflict list (overlapping
    placements) are precomputed once; the live-placement set and
    per-cell live-candidate counts are updated incrementally on
    place/unplace, so cell selection is O(cells) integer reads and
    candidate freeness is one bit test.  Its branching rule is a plain
    backtracker's - first strict-minimum uncovered cell, candidates in
    placement order (prototile-major, anchors in
    {!Lattice.Sublattice.cosets} order) - so the ordered solution list is
    what a list backtracker or dancing links returns; the tests hold it
    to two such oracles kept outside the library.

    [keep] filters {e during} the search: only solutions it accepts are
    returned or counted against [max_solutions], in every parallel
    subtree, so a filtered search stops as soon as enough acceptable
    covers exist instead of over-sampling (default: keep everything).
    The result equals [List.filter keep (unfiltered enumeration)]
    truncated to [max_solutions].

    {b Determinism contract.}  With a [pool] of more than one domain
    (default {!Parallel.default}), the search splits at the root
    branching cell - the most constrained cell, which is also the first
    cell the sequential search branches on.  One task per
    candidate placement is seeded over the {!Parallel.Steal} deques
    longest-first (a live-placement-count cost model); tasks migrate by
    work stealing, and a running subtree {e re-splits lazily} when a
    thief starves, giving away the untried branches of its shallowest
    open frame.  Results commit as chunks keyed by canonical subtree
    path and are merged in key order.  Each subtree enumerates in the
    sequential order and the merge reproduces the sequential consumption
    order, so the returned list (contents {e and} order) is
    bit-identical to the [jobs = 1] run at every pool size and
    interleaving; the determinism matrix and the steal-schedule fuzzer
    enforce this. *)

val count_torus_covers :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?pool:Parallel.pool ->
  unit ->
  int
(** Number of exact covers of the quotient - the length of the full
    {!cover_torus} enumeration ([max_solutions = max_int], no [keep]) -
    without materializing any solution.  The search traverses exactly
    the same tree in the same order as {!cover_torus}; skipping
    per-solution recording and {!Multi.t} construction is what makes
    counting the pure measure of search speed (EXP-P2 benches both).
    Pool semantics are as in {!cover_torus}; every pool size returns the
    same count. *)

val distinct_torus_covers :
  period:Lattice.Sublattice.t ->
  prototiles:Lattice.Prototile.t list ->
  ?max_classes:int ->
  ?pool:Parallel.pool ->
  unit ->
  Multi.t list
(** Representatives of the translation-congruence classes of {e all}
    torus covers: two covers are congruent when translating one by some
    [u] in [Z^d] maps it onto the other (equivalently, by some canonical
    coset representative - period translations fix every cover).  Each
    class is keyed by the lexicographically least of its [index]
    translated serializations; the first cover of each class in the
    {!cover_torus} enumeration order is kept, and the first
    [max_classes] representatives (default: all) are returned in that
    order.

    Congruent covers use the same tile {e shapes} at shifted positions,
    so they induce genuinely different slot assignments to sensors -
    these classes are the raw material for duty-cycle rotation
    ([Lifetime.Rotation]).  The underlying enumeration is exhaustive
    ([max_solutions = max_int]), so this is for the small periods
    rotation actually uses; pool semantics (and determinism) are those
    of {!cover_torus}. *)

val cover_region :
  region:Zgeom.Vec.t list ->
  prototile:Lattice.Prototile.t ->
  ?torus:Lattice.Sublattice.t ->
  ?max_solutions:int ->
  ?keep:(Zgeom.Vec.t list -> bool) ->
  unit ->
  Zgeom.Vec.t list list
(** All exact covers of the finite cell set [region] by whole translates
    of [prototile] (at most [max_solutions], default 64): each solution
    is the sorted list of translations [t] with the [t + N] partitioning
    the region.  Candidate translations are exactly those with
    [t + N] inside the region, tried in ascending {!Zgeom.Vec.compare}
    order under {!cover_torus}'s branching rule (first strict-minimum
    uncovered cell), so the enumeration order is deterministic.  [keep]
    filters during the search, as in {!cover_torus}: only accepted
    solutions count against [max_solutions].  Duplicate region cells are
    merged; the empty region is rejected.

    In plane mode (no [torus]) the answer is 0 or 1 covers, always: an
    exact cover of a finite region by translates of one prototile is
    unique when it exists.  (Proof: the lexicographically least
    uncovered cell [c] must be covered by the translate placing the
    tile's least cell at [c] - any other placement would put a
    lexicographically smaller tile cell inside the region, still
    uncovered - and induction on the remaining cells finishes.)

    With [torus = Lambda] all arithmetic happens mod the sublattice:
    region cells must be pairwise non-congruent ([Invalid_argument]
    otherwise), candidate translations are canonical coset
    representatives, tiles wrap, and self-overlapping placements are
    discarded.  Wrapped regions escape the uniqueness argument (no
    global order survives the wrap) and genuinely admit several covers
    - e.g. a full wrapped row of horizontal bars slides freely.  That
    wrap freedom is the repair kernel of the lifetime subsystem: the
    damaged window around a dead sensor is a finite region on the
    deployment torus, and any cover found here splices back into the
    periodic schedule ([Lifetime.Repair]). *)

val stages : Lattice.Prototile.t -> (unit -> Single.t option) Seq.t
(** The search behind {!find_tiling} (default [torus_factors]), one
    thunk per stage, in order: first the lattice stage
    ({!find_lattice_tiling}), then one torus stage per period of index
    [f * |N|] - for [f] in [1..4], periods in
    {!Lattice.Sublattice.all_of_index} order - answering the first
    single-prototile cover of that quotient.  Nothing is searched until
    a stage is forced, so a caller may stop between stages; the daemon
    checks its per-search deadline there. *)

val find_tiling :
  ?torus_factors:int list -> Lattice.Prototile.t -> Single.t option
(** The first hit of the {!stages} sequence (over [torus_factors],
    default [1..4]): a single-prototile periodic tiling if one is found,
    first among lattice tilings, then among torus covers with period
    index [f * |N|] for [f] in [torus_factors].  Later stages are not
    run once one answers. *)

type verdict =
  | Exact of Single.t
  | Non_exact of [ `Hole | `No_bn_factorization ]
      (** proved: a connected 2-D tile with a hole, or a hole-free
          polyomino whose boundary word has no Beauquier-Nivat
          factorization *)
  | Not_found  (** {!find_tiling} exhausted its stages; not a proof *)

val decide : Lattice.Prototile.t -> verdict
(** The decision procedure for one prototile.  A connected 2-D tile
    with a hole is [Non_exact `Hole]; a hole-free polyomino is decided
    by the BN criterion, complete here by Wijshoff-van Leeuwen, and an
    exact one gets the lattice stage's tiling ([Invalid_argument] if
    that stage finds none, which the theorem rules out).  Every other
    tile gets {!find_tiling}'s answer, [Not_found] when it has none.
    The tiling is therefore always {!find_tiling}'s. *)

val exactness : Lattice.Prototile.t -> [ `Exact | `NotExact | `Unknown ]
(** {!decide}'s verdict without the tiling: [`NotExact] is a proof,
    [`Unknown] a bounded search that found nothing. *)

val find_respectable :
  ?torus_factors:int list ->
  Lattice.Prototile.t list ->
  ?max_solutions:int ->
  unit ->
  Multi.t list
(** Respectable multi-prototile tilings (Section 4): searches torus
    covers over periods of index [f * |N1|] for [f] in [torus_factors]
    (default [1..4]), keeping only solutions that use every prototile and
    are respectable. The first prototile must contain all others.

    The filter runs inside {!cover_torus} (its [keep] argument), so the
    search stops as soon as [max_solutions] respectable covers are found
    rather than over-sampling each period. *)
