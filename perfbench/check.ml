(* Reply verification, run after the timed window on the first reply
   kept for each distinct request (every later reply to it was compared
   byte for byte in the window). *)

module P = Server.Protocol
open Lattice

let congruent a b = Gen.key a = Gen.key b

(* The expected answering tier of a steady-state reply. *)
let expected_source (r : Gen.req) : P.source =
  match r.origin with
  | Corpus_exact | Corpus_non_exact -> Corpus
  | Hot -> Memory
  | Fresh_poly _ | Fresh_sparse -> Fresh

let tiling_ok (r : Gen.req) tiling =
  let cert = Core.Certificate.build tiling in
  match Core.Certificate.check cert with
  | Error f -> Error (Format.asprintf "certificate: %a" Core.Certificate.pp_failure f)
  | Ok () ->
    if congruent (Tiling.Single.prototile tiling) r.tile then Ok ()
    else Error "tiling is for a tile not congruent to the request"

(* A proof of exhaustion is right only where it is known: the corpus
   says non-exact, or a hole-free fresh polyomino fails the
   Beauquier-Nivat test. *)
let no_tiling_ok (r : Gen.req) =
  match r.origin with
  | Corpus_non_exact | Fresh_poly { exact = false } -> true
  | Corpus_exact | Hot | Fresh_poly { exact = true } | Fresh_sparse -> false

let size r = Prototile.size r.Gen.tile

let response_ok ?source (r : Gen.req) (resp : P.response) =
  let ( let* ) = Result.bind in
  let expected = Option.value source ~default:(expected_source r) in
  let* () =
    match P.source_of_response resp with
    | Some s when s = expected -> Ok ()
    | Some s -> Error ("answered by tier " ^ P.source_to_string s)
    | None -> Ok ()
  in
  match (r.request, resp) with
  | _, No_tiling _ -> if no_tiling_ok r then Ok () else Error "no_tiling for a tile that tiles"
  | Tile_search _, Tiling_raw_r { tiling_fields; _ } ->
    let* tiling = P.tiling_of_fragment tiling_fields in
    tiling_ok r tiling
  | Tile_search _, Tiling_r { tiling; _ } -> tiling_ok r tiling
  | Slot _, Slot_r { slot; num_slots; _ } ->
    (* Theorem 1: an optimal schedule has exactly |N| slots. *)
    if num_slots <> size r then Error "slot count is not |N|"
    else if slot < 0 || slot >= num_slots then Error "slot out of range"
    else Ok ()
  | Schedule _, Schedule_r { schedule; _ } ->
    if Core.Schedule.num_slots schedule = size r then Ok () else Error "slot count is not |N|"
  | _, (Overloaded | Deadline_exceeded | Error_r _ | Shutting_down) ->
    Error "refused or failed"
  | _ -> Error "reply does not answer the request"

let decode (dialect : Client.dialect) body =
  match dialect with
  | Bin -> Result.map snd (Server.Wire.decode_response body)
  | Text -> Result.map snd (P.response_of_string body)

(* Check every kept first reply; returns (failed replies, first error). *)
let session (s : Client.session) (reqs : Gen.req array) =
  let failed = ref 0 and first_error = ref None in
  Array.iteri
    (fun fi body ->
      match body with
      | None -> ()
      | Some body -> (
        let r = reqs.(fi / 2) in
        let dialect : Client.dialect = if fi mod 2 = 0 then Bin else Text in
        match Result.bind (decode dialect body) (response_ok r) with
        | Ok () -> ()
        | Error e ->
          failed := !failed + s.seen.(fi);
          if !first_error = None then
            first_error :=
              Some (Printf.sprintf "%s: %s" (P.request_to_string r.request) e)))
    s.first;
  (!failed, !first_error)
