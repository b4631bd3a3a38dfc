(** Knuth's Algorithm X with dancing links.

    Exact cover: given a universe [{0, ..., n-1}] and a family of
    subsets, find selections of pairwise-disjoint subsets whose union is
    the whole universe.  Tiling a torus by translates of prototiles is
    exactly this problem (each placement is a subset of cosets), which is
    how the paper's tilings are searched for.

    This is the classic doubly-linked-list formulation: columns are
    universe elements, rows are subsets, and covering/uncovering a column
    splices nodes out of and back into circular lists in O(1) - which
    makes backtracking cheap.  {!Torus} runs it as a differential oracle
    for [Tiling.Search.cover_torus], next to its list backtracker; tests
    check all three agree exactly and the benchmark compares them. *)

type problem

val create : universe:int -> int list list -> problem
(** [create ~universe subsets]: subsets are lists of element ids in
    [\[0, universe)]. Duplicate elements within a subset are invalid. *)

val solve :
  ?max_solutions:int -> ?keep:(int list -> bool) -> problem -> int list list
(** Solutions as lists of subset indices (in the order given to
    {!create}), each sorted ascending; at most [max_solutions] (default
    [max_int]). Deterministic order.

    [keep] (default: accept everything) filters during the search: only
    solutions it accepts are recorded or counted against
    [max_solutions], so a filtered search stops as soon as enough
    acceptable solutions have been enumerated.  The structure is
    restored on return, so the problem stays reusable. *)

val count : ?limit:int -> problem -> int
(** Number of solutions, stopping at [limit] if given. *)
