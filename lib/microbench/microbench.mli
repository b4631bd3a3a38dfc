(** The benchmark harness behind [bench/main.exe] (its [suite]
    command and its experiment sections): one registry of suites, each
    declaring the rows it must report, their units, and the gates its
    numbers must clear.

    A suite run yields typed rows [{name; value; unit}].  The artifact
    is one JSON object [{"suite": S, "rows": [...]}], so a file names
    its own suite; {!validate_json} checks the schema, then that
    suite's required rows, units and gates.  CI regenerates every
    suite's artifact and validates it, and the committed
    [BENCH_*.json] files are validated the same way. *)

type unit_ =
  | Ns  (** nanoseconds per call (Bechamel OLS estimate) *)
  | Us  (** microseconds *)
  | Per_s  (** events per second *)
  | Ratio  (** dimensionless *)
  | Slots  (** schedule slots *)
  | Count  (** an event count *)

val unit_to_string : unit_ -> string
(** ["ns"], ["us"], ["1/s"], ["ratio"], ["slots"], ["count"]: the
    spelling in the artifact. *)

type row = { name : string; value : float; unit : unit_ }

type cmp = Le | Ge | Eq

type bound = Row of string | Const of float

type gate = { row : string; cmp : cmp; bound : bound }
(** [row cmp bound]: the named row's value against a constant or
    another row's value. *)

type suite = {
  name : string;  (** the CLI argument and the artifact's ["suite"] *)
  doc : string;  (** one clause for the CLI help *)
  required : (string * unit_) list;
      (** rows every run must report, with their units *)
  gates : gate list;
  run : quota:float -> row list;
      (** [quota] is the Bechamel time budget per benchmark in seconds
          ([> 0]; small values make a smoke run).  The server suite
          spawns its daemon from [bin/tilesched.exe] in the build tree
          of the running executable, one directory up from the
          executable's own, and raises [Failure] naming that path when
          it is missing. *)
}

val suites : suite list
(** [core], [skew], [lifetime], [corpus], [server], in that order. *)

val find_suite : string -> suite option

val staircase : int -> Lattice.Prototile.t
(** Exact staircase polyomino with ~4k+2 boundary letters - the standard
    scaling family for the Beauquier-Nivat decision (also used by the
    EXP-S3 and EXP-A2 experiment sections). *)

val cross : int -> Lattice.Prototile.t
(** The [(2n - 1)]-cell cross: row 0 union column 0 of the [n x n]
    square.  Any two torus translates of it intersect, which is what
    makes {!skew_instance} adversarially skewed.  Requires [n >= 2]. *)

val skew_instance : n:int -> Lattice.Sublattice.t * Lattice.Prototile.t list
(** The adversarial skewed exact-cover instance of EXP-P3: [cross n]
    plus the monomino on the [n x n] torus.  At most one cross fits in
    any cover, so there are exactly [1 + n^2] covers and the single
    monomino-at-cell-0 root branch owns [(n^2 - 2n + 2) / (n^2 + 1)] of
    them - at least 90% for [n >= 20] (93% at the benchmark's [n = 28]).
    A static root split serializes that branch on one worker; lazy
    stealing re-splits it. *)

val skew_root_share : n:int -> float
(** Fraction of the instance's covers that lie in the fat root branch
    (monomino covering cell 0), measured by filtered enumeration at
    [jobs = 1].  The skew test asserts this is [>= 0.9] at [n = 20]. *)

val check : suite -> row list -> (unit, string) result
(** Every required row present with its declared unit, and every gate
    holding.  A declared name matches a row of that name, with or
    without a Bechamel group prefix (["corpus/corpus-mmap-find-warm"]).
    The error names every problem found. *)

val to_json : suite -> row list -> string
(** The artifact: [{"suite": ..., "rows": [...]}], one row per line,
    each value the shortest decimal that reads back as the same float.
    Names may hold any bytes; {!of_json} reads back exactly what this
    writes. *)

val of_json : string -> (string * row list, string) result
(** Strict schema check: one object with exactly the keys ["suite"]
    (string) and ["rows"] (an array of objects with exactly ["name"]
    (string), ["value"] (finite non-negative number) and ["unit"] (a
    {!unit_to_string} spelling)), keys in any order, no trailing
    garbage.  A bare array (the retired two-key format) is rejected as
    such.  Returns the suite name and rows, or a message locating the
    first problem. *)

val validate_json : string -> (suite * row list, string) result
(** {!of_json}, then {!check} against the named suite; an unknown
    suite is an error. *)
