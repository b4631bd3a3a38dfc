(* Reference oracle for the certificate re-proof: the set-based checker
   that [Core.Collision.violations] and [Core.Certificate.check] replace
   with coset-id arithmetic.  It works on raw point sets only - every
   candidate pair translates a whole neighborhood into a [Vec.Set] and
   intersects - so it shares no arithmetic with the library kernel, and
   the differential properties in [test_core.ml] hold the kernel to its
   exact verdicts and violation lists. *)

open Zgeom
open Lattice

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

let violations ~neighborhoods ~diff_bound schedule =
  let period = Core.Schedule.period schedule in
  let out = ref [] in
  List.iter
    (fun u ->
      let su = Core.Schedule.slot_at schedule u in
      let nu = neighborhoods u in
      Vec.Set.iter
        (fun d ->
          if not (Vec.is_zero d) then begin
            let v = Vec.add u d in
            if Core.Schedule.slot_at schedule v = su then begin
              let nv = neighborhoods v in
              match range_witness nu u nv v with
              | Some w ->
                out := { Core.Collision.sender_a = u; sender_b = v; slot = su; witness = w } :: !out
              | None -> ()
            end
          end)
        diff_bound)
    (Sublattice.cosets period);
  List.rev !out

let ranges_intersect n u v =
  Vec.Set.exists (fun a -> Vec.Set.mem (Vec.add u a) (Prototile.translate v n)) (Prototile.cell_set n)

let check (cert : Core.Certificate.t) : (unit, Core.Certificate.failure) result =
  let m = Core.Schedule.num_slots cert.schedule in
  if List.length cert.clique <> m then
    Error (Core.Certificate.Wrong_clique_size (m, List.length cert.clique))
  else begin
    let rec pairwise = function
      | [] -> Ok ()
      | u :: rest -> (
        match List.find_opt (fun v -> not (ranges_intersect cert.prototile u v)) rest with
        | Some v -> Error (Core.Certificate.Not_a_clique (u, v))
        | None -> pairwise rest)
    in
    match pairwise cert.clique with
    | Error _ as e -> e
    | Ok () -> (
      match
        violations
          ~neighborhoods:(fun _ -> cert.prototile)
          ~diff_bound:(Prototile.difference_set cert.prototile)
          cert.schedule
      with
      | [] -> Ok ()
      | v :: _ -> Error (Core.Certificate.Not_collision_free v))
  end
