(** Deterministic periodic broadcast schedules (Theorems 1 and 2).

    A schedule assigns every lattice point a slot in [{0, ..., m - 1}]; the
    sensor at [v] may broadcast at time [t] iff [t = slot v (mod m)].
    (The paper numbers slots [1..m]; we use [0..m-1].)

    Schedules built here are periodic with respect to the tiling's period
    sublattice, so they are stored as a finite table on the quotient -
    [slot_at] is a coset reduction plus an array read, which is also
    exactly what a deployed sensor would compute from its coordinates.

    - {!of_tiling} implements Theorem 1: cell [n_k] of each tile gets slot
      [k]; [m = |N|] slots; collision-free and optimal.
    - {!of_multi} implements Theorem 2's construction: order the union
      [N = N_1 u ... u N_n = {n_1, ..., n_m}]; within a tile of type [l],
      the sensor at [t_l + n_k] gets slot [k].  [m = |N|], which equals
      [|N_1|] when the tiling is respectable (and the schedule is then
      optimal); the construction stays collision-free in the
      non-respectable case (Figure 5 left), just not necessarily optimal
      for other tilings. *)

type t

val of_tiling : Tiling.Single.t -> t
(** Theorem 1. *)

val of_multi : Tiling.Multi.t -> t
(** Theorem 2's algorithm (also used, as in Figure 5, on non-respectable
    tilings). *)

val of_table : period:Lattice.Sublattice.t -> num_slots:int -> int array -> t
(** Arbitrary periodic schedule from a coset-indexed slot table (for
    baselines and adversarial tests). The array length must equal the
    period's index, entries in [\[0, num_slots)]. *)

val num_slots : t -> int
val period : t -> Lattice.Sublattice.t

val slot_at : t -> Zgeom.Vec.t -> int

val slot_of_id : t -> int -> int
(** The slot table read directly: [slot_of_id s (Sublattice.coset_id
    (period s) v) = slot_at s v], for coset ids in [\[0, index)]. *)

val may_send : t -> Zgeom.Vec.t -> time:int -> bool
(** [may_send s v ~time] iff [time mod m = slot_at s v] (time may be any
    integer; negative times follow the same period). *)

val slots_used : t -> int list
(** The distinct slots that actually occur, sorted. *)

val relabel : t -> int array -> t
(** [relabel s perm] renames slot [k] to [perm.(k)]; [perm] must be a
    permutation of [0 .. num_slots - 1].  Relabeling preserves
    collision-freeness (only slot identities change, not which sensors
    share one) - useful to align a chosen slot with an external epoch. *)

val with_drift : t -> drift_at:(Zgeom.Vec.t -> int) -> Zgeom.Vec.t -> time:int -> bool
(** Fault model: the sensor at [v] believes the time is
    [time + drift_at v]. With zero drift this is {!may_send}; tests use it
    to show clock skew breaks collision-freeness. *)

val pp : Format.formatter -> t -> unit
