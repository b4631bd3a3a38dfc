(** Prototiles (interference neighborhoods).

    A prototile [N] is a finite subset of [Z^d] containing the origin: the
    set of sensors affected when the sensor at [0] broadcasts.  A sensor at
    [t] affects [t + N].  Everything the scheduling theory needs about [N]
    is combinatorial: its cells, its size [m = |N|] (the slot count of an
    optimal schedule), and its difference set [N - N] (the interference
    relation between sensor positions). *)

type t

(** {1 Construction} *)

val of_cells : Zgeom.Vec.t list -> t
(** Requires the origin to be among the cells (the paper's definition);
    duplicates are merged. All cells must share one dimension. *)

val of_cells_anchored : Zgeom.Vec.t list -> t
(** Like {!of_cells}, but first translates the whole set so the
    lexicographically smallest cell becomes the origin. Useful when
    importing shapes drawn with arbitrary coordinates. *)

val of_ascii : string -> t
(** Parse a shape picture, the inverse of {!pp}: rows top to bottom are
    decreasing [y]; ['#'] is a cell, ['O'] the origin cell (required,
    exactly once), ['.'] and [' '] are empty. Example:

    {v
    ##
    O#
    v}

    Raises [Invalid_argument] on malformed pictures. *)

val chebyshev_ball : dim:int -> int -> t
(** Radius-[r] ball in the l-infinity metric: [(2r+1)^d] cells
    (Figure 2, left). *)

val euclidean_ball : dim:int -> int -> t
(** Integer points with squared l2 norm at most [r^2] (Figure 2, middle:
    [r = 1] gives the 5-cell plus shape in 2-D). *)

val euclidean_ball_sq : dim:int -> int -> t
(** Same with the squared radius given directly, for non-integer radii. *)

val manhattan_ball : dim:int -> int -> t
(** Radius-[r] ball in the l1 metric. *)

val rect : int -> int -> t
(** [rect w h] is the 2-D box [{0..w-1} x {0..h-1}]; origin at a corner. *)

val directional : t
(** The paper's directional-antenna example (Figure 2 right, Figure 3):
    the 2 x 4 block of 8 cells with the sensor at the lower-left corner,
    radiating up and to the right. *)

(** {1 The standard polyomino catalogue (2-D, anchored at the origin)} *)

val tetromino : [ `I | `O | `T | `S | `Z | `L | `J ] -> t

val pentomino : [ `F | `I | `L | `N | `P | `T | `U | `V | `W | `X | `Y | `Z ] -> t

val of_name : string -> (t, string) result
(** The command-line tile syntax: [cheb<r>], [euclid<r>],
    [manhattan<r>] (2-D balls), [rect<W>x<H>], [dir] ({!directional}),
    [tet-<I|O|T|S|Z|L|J>], [pent-<F|I|L|N|P|T|U|V|W|X|Y|Z>], or
    [cells:<x,y;x,y;...>] (2-D, must include [0,0]).  [Error] names the
    problem. *)

(** {1 Observation} *)

val dim : t -> int

val size : t -> int
(** [|N|]: the optimal number of time slots (Theorem 1). *)

val cells : t -> Zgeom.Vec.t list
(** Sorted lexicographically; contains the origin. *)

val cell_set : t -> Zgeom.Vec.Set.t
val mem : t -> Zgeom.Vec.t -> bool

val bounding_box : t -> Zgeom.Vec.t * Zgeom.Vec.t
(** Componentwise [(min, max)]. *)

val difference_set : t -> Zgeom.Vec.Set.t
(** [N - N]: sensors at [u], [v] have intersecting interference ranges iff
    [u - v] is in this set. Always contains [0] and is symmetric. *)

val minkowski_sum : t -> t -> Zgeom.Vec.Set.t
(** [N + M] as a plain set. *)

val translate : Zgeom.Vec.t -> t -> Zgeom.Vec.Set.t
(** [t + N] as a plain set (not a prototile: it need not contain [0]). *)

val subset : t -> t -> bool
(** [subset n1 n2] iff every cell of [n1] is a cell of [n2]; the
    respectability condition of Section 4 is [subset nk n1] for all [k]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 2-D transformations (require [dim = 2])} *)

val rot90 : t -> t
(** Quarter turn counterclockwise (the origin is fixed, so the result is
    again a prototile). *)

val reflect : t -> t
(** Mirror across the x-axis. *)

val rotations : t -> t list
(** The distinct tiles among the four rotations. *)

val pp : Format.formatter -> t -> unit
(** Multi-line ASCII picture ('#' cells, 'O' the origin). *)

val to_string : t -> string
