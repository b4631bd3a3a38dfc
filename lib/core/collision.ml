open Zgeom
open Lattice

type violation = {
  sender_a : Vec.t;
  sender_b : Vec.t;
  slot : int;
  witness : Vec.t;
}

let pp_violation fmt v =
  Format.fprintf fmt "slot %d: senders %a and %a both reach %a" v.slot Vec.pp v.sender_a
    Vec.pp v.sender_b Vec.pp v.witness

let range_witness na u nb v =
  (* A point of (u + Na) n (v + Nb), if any. *)
  let rb = Prototile.translate v nb in
  Vec.Set.fold
    (fun a acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let w = Vec.add u a in
        if Vec.Set.mem w rb then Some w else None)
    (Prototile.cell_set na) None

(* The scan runs on coset ids: [u] ranges over the ids [0 .. index - 1]
   in [Sublattice.cosets] order, each non-zero difference [d] maps it to
   [u + d] through a table of translated ids, and slots are read from
   the schedule's table, so the scan allocates nothing until two cosets
   share a slot.  Only then are the representatives, the neighborhoods
   and the witness built, exactly as a pairwise set computation would. *)
let violations ~neighborhoods ~diff_bound schedule =
  let period = Schedule.period schedule in
  let diffs =
    Array.of_list (List.filter (fun d -> not (Vec.is_zero d)) (Vec.Set.elements diff_bound))
  in
  (* A translation's table depends only on the coset of the difference,
     so differences that are congruent share one. *)
  let tables = Array.make (Sublattice.index period) [||] in
  let shifts =
    Array.map
      (fun d ->
        let c = Sublattice.coset_id period d in
        if Array.length tables.(c) = 0 then tables.(c) <- Sublattice.translate_ids period d;
        tables.(c))
      diffs
  in
  let out = ref [] in
  for id = 0 to Sublattice.index period - 1 do
    let su = Schedule.slot_of_id schedule id in
    for k = 0 to Array.length diffs - 1 do
      if Schedule.slot_of_id schedule shifts.(k).(id) = su then begin
        let u = Sublattice.coset_of_id period id in
        let v = Vec.add u diffs.(k) in
        match range_witness (neighborhoods u) u (neighborhoods v) v with
        | Some w -> out := { sender_a = u; sender_b = v; slot = su; witness = w } :: !out
        | None -> ()
      end
    done
  done;
  List.rev !out

let violations_theorem1 tiling schedule =
  let n = Tiling.Single.prototile tiling in
  violations
    ~neighborhoods:(fun _ -> n)
    ~diff_bound:(Prototile.difference_set n)
    schedule

let is_collision_free_theorem1 tiling schedule = violations_theorem1 tiling schedule = []

let union_prototile multi =
  Prototile.of_cells (Tiling.Multi.union_cells multi)

let violations_multi multi schedule =
  let tiles = Array.of_list (Tiling.Multi.prototiles multi) in
  let neighborhoods v =
    let k, _, _ = Tiling.Multi.tile_of multi v in
    tiles.(k)
  in
  let u = union_prototile multi in
  violations ~neighborhoods ~diff_bound:(Prototile.difference_set u) schedule

let is_collision_free_multi multi schedule = violations_multi multi schedule = []

let drift_violations tiling schedule ~drift_at ~horizon =
  let n = Tiling.Single.prototile tiling in
  let diff = Prototile.difference_set n in
  let period = Schedule.period schedule in
  let out = ref [] in
  for time = 0 to horizon - 1 do
    List.iter
      (fun u ->
        if Schedule.with_drift schedule ~drift_at u ~time then
          Vec.Set.iter
            (fun d ->
              if not (Vec.is_zero d) then begin
                let v = Vec.add u d in
                if Schedule.with_drift schedule ~drift_at v ~time then
                  match range_witness n u n v with
                  | Some w ->
                    out :=
                      { sender_a = u; sender_b = v; slot = time mod Schedule.num_slots schedule;
                        witness = w }
                      :: !out
                  | None -> ()
              end)
            diff)
      (Sublattice.cosets period)
  done;
  List.rev !out
