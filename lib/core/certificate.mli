(** Machine-checkable optimality certificates.

    A claim like "this 9-slot schedule is collision-free and optimal"
    deserves evidence that a small, independent checker can validate
    without trusting the constructing code.  A certificate packages:

    - the schedule (upper bound: [m] slots suffice), and
    - a {e clique}: [m] sensor positions that pairwise interfere, each
      pair witnessed by a point in both ranges (lower bound: fewer than
      [m] slots force two clique members into one slot, colliding at the
      witness - the proof of Theorem 1, made concrete).

    [check] re-verifies everything from first principles, trusting
    nothing but [N].  It first runs Theorem 1's own argument on coset
    ids: the clique, as listed, is [N + s] for one shift [s], and every
    window [w + N] of the period's quotient carries [|N|] distinct slots
    ({!Collision.is_collision_free_homogeneous}: [O(index * |N|)] steps,
    [O(|N| + m)] memory).  That test only accepts; any certificate it
    does not accept goes to the exact scan below, which decides the
    result and reports the failure:
    - the clique, through the identity
      [(u + N) n (v + N) <> 0 <=> v - u in N - N]: one lookup in the
      difference set per pair, no translated sets;
    - the schedule, by {!Collision.violations}: every coset of the
      period against every non-zero difference in [N - N], comparing
      slots through the schedule's per-coset slot table and coset ids
      added on plain ints.  A witness point is built only for a pair
      that shares a slot, so an honest certificate allocates nothing
      per pair.
    Certificates serialize via {!to_string} so they can accompany a
    deployed schedule. *)

type t = {
  prototile : Lattice.Prototile.t;
  schedule : Schedule.t;
  clique : Zgeom.Vec.t list;  (** [m] pairwise-interfering positions *)
}

val build : Tiling.Single.t -> t
(** Certificate for the Theorem-1 schedule of a tiling: the clique is the
    tile at the origin's translation ([N] itself). *)

type failure =
  | Wrong_clique_size of int * int  (** expected, got *)
  | Not_a_clique of Zgeom.Vec.t * Zgeom.Vec.t  (** a non-interfering pair *)
  | Not_collision_free of Collision.violation

val check : t -> (unit, failure) result
(** Full independent re-verification. *)

val pp_failure : Format.formatter -> failure -> unit

val to_string : t -> string
(** Three text lines for [tilesched certify].  Nothing parses them: a
    stored verdict keeps its tiling, and readers call {!build}. *)
