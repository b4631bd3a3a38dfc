open Lattice
module Codec = Core.Codec

type request =
  | Slot of { tile : Prototile.t; pos : Zgeom.Vec.t }
  | Schedule of Prototile.t
  | Tile_search of Prototile.t
  | Stats
  | Shutdown

type server_stats = {
  served : int;
  overloaded : int;
  errors : int;
  searches : int;
  coalesced : int;
  timeouts : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  store_hits : int;
  corpus_hits : int;
}

type source = Memory | Corpus | Store | Fresh

type response =
  | Slot_r of { slot : int; num_slots : int; source : source option }
  | Schedule_r of { schedule : Core.Schedule.t; source : source option }
  | Tiling_r of {
      tiling : Tiling.Single.t;
      certificate : Core.Certificate.t;
      source : source option;
    }
  | Tiling_raw_r of { tiling_fields : string; source : source option }
  | Stats_r of server_stats
  | No_tiling of source option
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Error_r of string

let source_to_string = function
  | Memory -> "memory"
  | Corpus -> "corpus"
  | Store -> "store"
  | Fresh -> "fresh"

let source_of_response = function
  | Slot_r { source; _ } | Schedule_r { source; _ } | Tiling_r { source; _ }
  | Tiling_raw_r { source; _ } | No_tiling source ->
    source
  | Stats_r _ | Overloaded | Deadline_exceeded | Shutting_down | Error_r _ -> None

let ( let* ) = Result.bind

let id_fields = function None -> [] | Some id -> [ ("id", string_of_int id) ]

let id_of kvs =
  match List.assoc_opt "id" kvs with
  | None -> Ok None
  | Some s -> (
    match int_of_string_opt s with
    | Some id -> Ok (Some id)
    | None -> Error ("bad request id: " ^ s))

let tile_fields tile = [ ("tile", Codec.vecs_to_string (Prototile.cells tile)) ]

let tile_of kvs =
  let* cells_s = Codec.field kvs "tile" in
  let* cells = Codec.vecs_of_string cells_s in
  match Prototile.of_cells cells with
  | p -> Ok p
  | exception _ -> Error "invalid tile (empty, mixed dims, or origin missing)"

let request_to_string ?id req =
  let fields =
    match req with
    | Slot { tile; pos } ->
      (("op", "slot") :: tile_fields tile) @ [ ("pos", Codec.vec_to_string pos) ]
    | Schedule tile -> ("op", "schedule") :: tile_fields tile
    | Tile_search tile -> ("op", "tile-search") :: tile_fields tile
    | Stats -> [ ("op", "stats") ]
    | Shutdown -> [ ("op", "shutdown") ]
  in
  Codec.encode_record ~kind:"request" (id_fields id @ fields)

let request_of_string s =
  let* kvs = Codec.decode_record ~kind:"request" s in
  let* id = id_of kvs in
  let* op = Codec.field kvs "op" in
  let* req =
    match op with
    | "slot" ->
      let* tile = tile_of kvs in
      let* pos_s = Codec.field kvs "pos" in
      let* pos = Codec.vec_of_string pos_s in
      Ok (Slot { tile; pos })
    | "schedule" ->
      let* tile = tile_of kvs in
      Ok (Schedule tile)
    | "tile-search" ->
      let* tile = tile_of kvs in
      Ok (Tile_search tile)
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | _ -> Error ("unknown op: " ^ op)
  in
  Ok (id, req)

(* Error messages travel in a field value, which must stay free of '|'
   and newlines; anything else is preserved. *)
let sanitize msg =
  String.map (function '|' | '\n' | '\r' -> '/' | c -> c) msg

let stats_fields s =
  [ ("served", string_of_int s.served); ("overloaded", string_of_int s.overloaded);
    ("errors", string_of_int s.errors); ("searches", string_of_int s.searches);
    ("coalesced", string_of_int s.coalesced); ("timeouts", string_of_int s.timeouts);
    ("cache_hits", string_of_int s.cache_hits); ("cache_misses", string_of_int s.cache_misses);
    ("cache_evictions", string_of_int s.cache_evictions);
    ("cache_entries", string_of_int s.cache_entries);
    ("store_hits", string_of_int s.store_hits);
    ("corpus_hits", string_of_int s.corpus_hits) ]

let int_field kvs k =
  let* s = Codec.field kvs k in
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error ("bad integer in field " ^ k ^ ": " ^ s)

(* [store_hits] postdates the first wire format; default it so stats
   lines from older servers still decode. *)
let int_field_default kvs k ~default =
  match Codec.field kvs k with Error _ -> Ok default | Ok _ -> int_field kvs k

let stats_of kvs =
  let* served = int_field kvs "served" in
  let* overloaded = int_field kvs "overloaded" in
  let* errors = int_field kvs "errors" in
  let* searches = int_field kvs "searches" in
  let* coalesced = int_field kvs "coalesced" in
  let* timeouts = int_field kvs "timeouts" in
  let* cache_hits = int_field kvs "cache_hits" in
  let* cache_misses = int_field kvs "cache_misses" in
  let* cache_evictions = int_field kvs "cache_evictions" in
  let* cache_entries = int_field kvs "cache_entries" in
  let* store_hits = int_field_default kvs "store_hits" ~default:0 in
  let* corpus_hits = int_field_default kvs "corpus_hits" ~default:0 in
  Ok
    { served; overloaded; errors; searches; coalesced; timeouts; cache_hits; cache_misses;
      cache_evictions; cache_entries; store_hits; corpus_hits }

(* The [src] marker is optional in both directions: absent on lines from
   servers predating it, omitted when the engine has nothing to say. *)
let source_fields = function
  | None -> []
  | Some s -> [ ("src", source_to_string s) ]

let source_of kvs =
  match List.assoc_opt "src" kvs with
  | None -> Ok None
  | Some "memory" -> Ok (Some Memory)
  | Some "corpus" -> Ok (Some Corpus)
  | Some "store" -> Ok (Some Store)
  | Some "fresh" -> Ok (Some Fresh)
  | Some s -> Error ("unknown reply source: " ^ s)

(* A schedule already has a record encoding; embed its fields (minus the
   header) rather than invent a second format.  [schedule_fields] decodes
   the canonical line back into key/value pairs, which cannot fail on a
   value produced by [schedule_to_string]. *)
let schedule_fields sched =
  match Codec.decode_record ~kind:"schedule" (Codec.schedule_to_string sched) with
  | Ok kvs -> kvs
  | Error _ -> assert false

let schedule_of kvs =
  let keep = [ "dim"; "m"; "basis"; "table" ] in
  let kvs = List.filter (fun (k, _) -> List.mem k keep) kvs in
  Codec.schedule_of_string (Codec.encode_record ~kind:"schedule" kvs)

let tiling_fields t =
  match Codec.decode_record ~kind:"tiling" (Codec.tiling_to_string t) with
  | Ok kvs -> kvs
  | Error _ -> assert false

let tiling_of kvs =
  let keep = [ "prototile"; "basis"; "offsets" ] in
  let kvs = List.filter (fun (k, _) -> List.mem k keep) kvs in
  Codec.tiling_of_string (Codec.encode_record ~kind:"tiling" kvs)

(* The binary protocol ships tiling replies as the same '|'-separated
   field fragment the corpus splices into text lines; these two are the
   fragment codec it shares with [Wire]. *)
let tiling_fragment t =
  String.concat "|" (List.map (fun (k, v) -> k ^ "=" ^ v) (tiling_fields t))

let tiling_of_fragment frag =
  let header = Codec.encode_record ~kind:"tiling" [] in
  let* kvs = Codec.decode_record ~kind:"tiling" (header ^ "|" ^ frag) in
  tiling_of kvs

let response_to_string ?id resp =
  let encode fields = Codec.encode_record ~kind:"response" (id_fields id @ fields) in
  match resp with
  | Slot_r { slot; num_slots; source } ->
    encode
      ([ ("status", "ok"); ("op", "slot"); ("slot", string_of_int slot);
         ("m", string_of_int num_slots) ]
      @ source_fields source)
  | Schedule_r { schedule; source } ->
    encode
      ((("status", "ok") :: ("op", "schedule") :: schedule_fields schedule)
      @ source_fields source)
  | Tiling_r { tiling; certificate = _; source } ->
    (* The certificate is derivable from the tiling (Certificate.build);
       shipping only the tiling keeps the line minimal and forces the
       receiving side to revalidate. *)
    encode
      ((("status", "ok") :: ("op", "tile-search") :: tiling_fields tiling)
      @ source_fields source)
  | Tiling_raw_r { tiling_fields; source } ->
    (* The corpus splice path: [tiling_fields] is the already-encoded
       ['|']-separated field fragment of a stored tiling line, appended
       verbatim - the record grammar is flat, so field concatenation is
       string concatenation.  Decoders cannot tell this line from a
       [Tiling_r] one (and [response_of_string] yields [Tiling_r]). *)
    let buf = Buffer.create (String.length tiling_fields + 96) in
    Buffer.add_string buf (encode [ ("status", "ok"); ("op", "tile-search") ]);
    Buffer.add_char buf '|';
    Buffer.add_string buf tiling_fields;
    Codec.add_fields buf (source_fields source);
    Buffer.contents buf
  | Stats_r s -> encode (("status", "ok") :: ("op", "stats") :: stats_fields s)
  | No_tiling source -> encode (("status", "no-tiling") :: source_fields source)
  | Overloaded -> encode [ ("status", "overloaded") ]
  | Deadline_exceeded -> encode [ ("status", "deadline") ]
  | Shutting_down -> encode [ ("status", "shutting-down") ]
  | Error_r msg -> encode [ ("status", "error"); ("msg", sanitize msg) ]

let response_of_string s =
  let* kvs = Codec.decode_record ~kind:"response" s in
  let* id = id_of kvs in
  let* status = Codec.field kvs "status" in
  let* resp =
    match status with
    | "ok" -> (
      let* op = Codec.field kvs "op" in
      let* source = source_of kvs in
      match op with
      | "slot" ->
        let* slot = int_field kvs "slot" in
        let* num_slots = int_field kvs "m" in
        if num_slots < 1 || slot < 0 || slot >= num_slots then Error "slot out of range"
        else Ok (Slot_r { slot; num_slots; source })
      | "schedule" ->
        let* schedule = schedule_of kvs in
        Ok (Schedule_r { schedule; source })
      | "tile-search" ->
        let* tiling = tiling_of kvs in
        Ok (Tiling_r { tiling; certificate = Core.Certificate.build tiling; source })
      | "stats" ->
        let* stats = stats_of kvs in
        Ok (Stats_r stats)
      | _ -> Error ("unknown response op: " ^ op))
    | "no-tiling" ->
      let* source = source_of kvs in
      Ok (No_tiling source)
    | "overloaded" -> Ok Overloaded
    | "deadline" -> Ok Deadline_exceeded
    | "shutting-down" -> Ok Shutting_down
    | "error" ->
      let* msg = Codec.field kvs "msg" in
      Ok (Error_r msg)
    | _ -> Error ("unknown status: " ^ status)
  in
  Ok (id, resp)

let pp_server_stats fmt s =
  Format.fprintf fmt
    "served=%d overloaded=%d errors=%d searches=%d coalesced=%d timeouts=%d cache: \
     hits=%d misses=%d evictions=%d entries=%d store_hits=%d corpus_hits=%d"
    s.served s.overloaded s.errors s.searches s.coalesced s.timeouts s.cache_hits
    s.cache_misses s.cache_evictions s.cache_entries s.store_hits s.corpus_hits
