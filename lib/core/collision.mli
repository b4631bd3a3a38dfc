(** Machine-checking collision-freeness.

    The collision model of the paper's introduction: sensors [u <> v]
    broadcasting in the same slot cause a collision problem iff their
    interference ranges intersect, [(u + N_u) n (v + N_v) <> 0].  (Both
    hardware problems of the introduction - a sender inside the other's
    range, and a common third receiver - are instances of the
    intersection being non-empty, because a sender belongs to its own
    range.)

    For periodic schedules and bounded neighborhoods the check is exact
    and finite: any colliding pair satisfies [v - u in N_u - N_v], and by
    periodicity [u] may range over coset representatives only.  No window
    truncation is involved - a [\[\]] result is a proof. *)

type violation = {
  sender_a : Zgeom.Vec.t;
  sender_b : Zgeom.Vec.t;
  slot : int;
  witness : Zgeom.Vec.t;  (** A point in both interference ranges. *)
}

val pp_violation : Format.formatter -> violation -> unit

val violations :
  neighborhoods:(Zgeom.Vec.t -> Lattice.Prototile.t) ->
  diff_bound:Zgeom.Vec.Set.t ->
  Schedule.t ->
  violation list
(** All same-slot interference overlaps, up to the schedule's periodicity:
    pairs are reported with [sender_a] a canonical coset representative.
    [neighborhoods] gives each position's prototile (heterogeneous
    deployments per rule D1 are expressed here); [diff_bound] must contain
    every possible difference [v - u] of a colliding pair, e.g. the
    difference set of the union of all prototiles in play. *)

val is_collision_free_homogeneous : Lattice.Prototile.t -> Schedule.t -> bool
(** Every sensor with neighborhood [N]: the same verdict as
    [violations ~neighborhoods:(fun _ -> n) ~diff_bound:(difference_set n)
    = []], decided without the difference set.  Two sensors [u] and
    [u + a - b] ([a <> b] cells of [N]) are the cells [a] and [b] of the
    window [w + N] with [w = u - b], so the schedule is collision-free
    iff every window of the quotient carries [|N|] distinct slots
    ({!Lattice.Sublattice.for_all_windows}: [O(index * |N|)] steps,
    [O(|N| + m)] memory). *)

val is_collision_free_theorem1 : Tiling.Single.t -> Schedule.t -> bool
(** Homogeneous deployment with the tiling's prototile (Theorem 1
    setting): {!is_collision_free_homogeneous}. *)

val violations_theorem1 : Tiling.Single.t -> Schedule.t -> violation list

val is_collision_free_multi : Tiling.Multi.t -> Schedule.t -> bool
(** Deployment rule D1: the sensor at a point covered by a type-[k] tile
    has neighborhood [N_k] (Theorem 2 setting). *)

val violations_multi : Tiling.Multi.t -> Schedule.t -> violation list

val drift_violations :
  Tiling.Single.t -> Schedule.t -> drift_at:(Zgeom.Vec.t -> int) -> horizon:int -> violation list
(** Fault injection: with per-sensor clock drift, report interference
    overlaps among sensors that believe they may send at the same true
    time, over times [0..horizon-1]. Zero drift gives []. *)
