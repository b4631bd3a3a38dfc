(** Random prototile generation for property-based testing and fuzzing.

    The growth model: start from the origin and repeatedly glue a unit
    cell onto a uniformly chosen face of the current shape.  Produces
    connected polyominoes of a given size with good shape diversity;
    anchored so the origin is a cell, as prototiles require. *)

val polyomino : Prng.Xoshiro.t -> cells:int -> Prototile.t
(** Random connected polyomino with exactly [cells] cells
    (requires [cells >= 1]). *)

val sparse : Prng.Xoshiro.t -> cells:int -> spread:int -> Prototile.t
(** Random (generally disconnected) prototile: the origin plus
    [cells - 1] further points drawn uniformly from the box
    [[-spread, spread]^2]. Exercises the non-polyomino code paths.
    Raises [Invalid_argument] when [cells > (2 * spread + 1)^2], since the
    box has fewer points than that. *)
