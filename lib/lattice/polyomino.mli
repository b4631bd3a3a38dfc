(** 2-D polyomino structure of a prototile.

    A prototile in the square lattice corresponds to a polyomino: the union
    of unit squares (Voronoi cells) around its points (Section 3 of the
    paper; Figure 4a).  This module supplies the combinatorial facts the
    exactness machinery needs: 4-connectivity, hole detection, and the
    boundary word over the alphabet {u, d, l, r} consumed by the
    Beauquier-Nivat criterion. *)

val is_connected : Prototile.t -> bool
(** Edge-connectivity of the cell set (4-neighbours). Requires [dim = 2]. *)

val has_holes : Prototile.t -> bool
(** True when the complement of the cell set is disconnected inside the
    bounding box, i.e. the polyomino is not simply connected. *)

val is_polyomino : Prototile.t -> bool
(** Connected and simply connected: a boundary word exists. *)

val boundary_word : Prototile.t -> string
(** Counterclockwise boundary of the union of unit squares, as a word over
    ['u' 'd' 'l' 'r'], starting at the bottom-left corner of the
    lexicographically smallest cell. The length equals the perimeter.
    Requires {!is_polyomino}. *)

val area : Prototile.t -> int
(** Number of cells. *)

val enumerate_free_iter : max_area:int -> (area:int -> Prototile.t -> unit) -> unit
(** Visit every free polyomino of area [1 .. max_area], band by band in
    increasing area, each band in {!Prototile.compare} order - the same
    tiles in the same order as concatenating {!enumerate_free} over
    [1 .. max_area], without ever materializing more than one band (the
    current frontier) at a time.  This is the corpus campaign's
    enumerator: at [max_area = 12] the full list would be 87146 tiles
    while the largest single band is 63600.  Requires [max_area >= 1]. *)

val enumerate_free : int -> Prototile.t list
(** All {e free} polyominoes of area exactly [n]: one prototile per
    congruence class (rotations, reflections, translations), each its
    own {!Symmetry.canonical} representative, sorted by
    {!Prototile.compare}.  Counts follow OEIS A000105:
    1, 1, 2, 5, 12, 35, 108, ... for [n = 1, 2, 3, ...]: every small
    prototile a client can ask the schedule server about, enumerated
    once under the server's own cache key.  Requires [n >= 1]. *)

val perimeter : Prototile.t -> int
(** Number of boundary edges (cell sides adjacent to the complement). *)
