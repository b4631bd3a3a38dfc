open Zgeom
open Lattice

type t = { prototile : Prototile.t; schedule : Schedule.t; clique : Vec.t list }

let build tiling =
  let prototile = Tiling.Single.prototile tiling in
  { prototile; schedule = Schedule.of_tiling tiling; clique = Prototile.cells prototile }

type failure =
  | Wrong_clique_size of int * int
  | Not_a_clique of Vec.t * Vec.t
  | Not_collision_free of Collision.violation

let pp_failure fmt = function
  | Wrong_clique_size (want, got) -> Format.fprintf fmt "clique has %d positions, need %d" got want
  | Not_a_clique (u, v) ->
    Format.fprintf fmt "positions %a and %a do not interfere" Vec.pp u Vec.pp v
  | Not_collision_free v -> Format.fprintf fmt "schedule collides: %a" Collision.pp_violation v

(* Theorem 1's own argument: the clique is a translate [N + s], so every
   pair differs by an element of [N - N], and the schedule passes the
   window test of {!Collision.is_collision_free_homogeneous}.  It only
   ever accepts: a certificate it does not accept goes to the scan
   below, which finds the failure to report. *)
let theorem1_holds cert =
  let cells = Prototile.cells cert.prototile in
  let dim = Prototile.dim cert.prototile in
  let is_translate =
    match (cert.clique, cells) with
    | c0 :: _, n0 :: _ when List.compare_lengths cert.clique cells = 0 ->
      List.for_all (fun c -> Vec.dim c = dim) cert.clique
      &&
      let s = Vec.sub c0 n0 in
      List.for_all2 (fun c n -> Vec.equal (Vec.sub c n) s) cert.clique cells
    | _ -> false
  in
  is_translate
  && Sublattice.dim (Schedule.period cert.schedule) = dim
  && Collision.is_collision_free_homogeneous cert.prototile cert.schedule

let check cert =
  let m = Schedule.num_slots cert.schedule in
  if List.length cert.clique <> m then
    Error (Wrong_clique_size (m, List.length cert.clique))
  else if theorem1_holds cert then Ok ()
  else begin
    let diff = Prototile.difference_set cert.prototile in
    (* Lower bound: every pair in the clique must interfere (so m slots
       are necessary for these positions alone).  The ranges [u + N] and
       [v + N] meet iff [v - u] lies in [N - N], so each pair costs one
       difference-set lookup. *)
    let rec pairwise = function
      | [] -> Ok ()
      | u :: rest -> (
        match List.find_opt (fun v -> not (Vec.Set.mem (Vec.sub v u) diff)) rest with
        | Some v -> Error (Not_a_clique (u, v))
        | None -> pairwise rest)
    in
    match pairwise cert.clique with
    | Error _ as e -> e
    | Ok () -> (
      (* Upper bound: the schedule must be collision-free; recheck from
         scratch with the exact periodic checker. *)
      match
        Collision.violations ~neighborhoods:(fun _ -> cert.prototile) ~diff_bound:diff cert.schedule
      with
      | [] -> Ok ()
      | v :: _ -> Error (Not_collision_free v))
  end

let to_string cert =
  String.concat "\n"
    [ Codec.prototile_to_string cert.prototile;
      Codec.schedule_to_string cert.schedule;
      Codec.prototile_to_string
        (Prototile.of_cells
           (let shift =
              (* of_cells requires 0; the clique always contains cells of
                 N including 0 for Theorem-1 certificates, but store it
                 shifted to be safe. *)
              match cert.clique with
              | [] -> Vec.zero (Prototile.dim cert.prototile)
              | c :: _ -> c
            in
            List.map (fun v -> Vec.sub v shift) cert.clique))
      ^ "|shift="
        ^ String.concat ","
            (List.map string_of_int
               (Vec.to_list
                  (match cert.clique with
                  | [] -> Vec.zero (Prototile.dim cert.prototile)
                  | c :: _ -> c))) ]
