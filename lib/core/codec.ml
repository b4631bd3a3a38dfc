open Zgeom
open Lattice

let magic = "tilesched/v1"

(* Decimal digits of [n <= 0] without its sign, most significant first:
   working on the non-positive side keeps [min_int] in range. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

(* [Buffer.add_string buf (string_of_int n)] without the string. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_vec buf v =
  for i = 0 to Vec.dim v - 1 do
    if i > 0 then Buffer.add_char buf ',';
    add_int buf (Vec.coord v i)
  done

let vec_to_string v =
  let buf = Buffer.create (4 * Vec.dim v) in
  add_vec buf v;
  Buffer.contents buf

let vec_of_string s =
  match List.map int_of_string (String.split_on_char ',' s) with
  | coords -> Ok (Vec.of_list coords)
  | exception Failure _ -> Error ("bad vector: " ^ s)

(* One buffer for the whole list: a cache key is built this way on
   every request, so no per-vector or per-coordinate string is made. *)
let vecs_to_string vs =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ';';
      add_vec buf v)
    vs;
  Buffer.contents buf

let vecs_of_string s =
  let parts = if s = "" then [] else String.split_on_char ';' s in
  List.fold_right
    (fun p acc ->
      match (acc, vec_of_string p) with
      | Ok vs, Ok v -> Ok (v :: vs)
      | (Error _ as e), _ -> e
      | _, Error e -> Error e)
    parts (Ok [])

(* A record line is "tilesched/v1;kind=K;key=value;..."; values may
   contain ';'-separated vectors, so fields are delimited by '|'. *)
let add_fields buf fields =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf v)
    fields

let encode_record ~kind fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf magic;
  Buffer.add_string buf ";kind=";
  Buffer.add_string buf kind;
  add_fields buf fields;
  Buffer.contents buf

let decode_record ~kind:expected_kind s =
  match String.split_on_char '|' s with
  | header :: fields when header = magic ^ ";kind=" ^ expected_kind ->
    let parse field =
      match String.index_opt field '=' with
      | Some i ->
        Ok (String.sub field 0 i, String.sub field (i + 1) (String.length field - i - 1))
      | None -> Error ("malformed field: " ^ field)
    in
    List.fold_right
      (fun f acc ->
        match (acc, parse f) with
        | Ok kvs, Ok kv -> Ok (kv :: kvs)
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> Error (Result.get_error e))
      fields (Ok [])
  | _ -> Error (Printf.sprintf "not a %s %s record" magic expected_kind)

let field kvs k =
  match List.assoc_opt k kvs with
  | Some v -> Ok v
  | None -> Error ("missing field: " ^ k)

let ( let* ) = Result.bind

let prototile_to_string p = encode_record ~kind:"prototile" [ ("cells", vecs_to_string (Prototile.cells p)) ]

let basis_to_string lam = vecs_to_string (Sublattice.generators lam)

let basis_of_string s =
  let* rows = vecs_of_string s in
  match Sublattice.of_rows rows with
  | lam -> Ok lam
  | exception _ -> Error "invalid period basis"

let schedule_to_string sched =
  let period = Schedule.period sched in
  (* Coset ids are the lexicographic ranks of the HNF box points, so the
     table in id order is the table in [Sublattice.cosets] order. *)
  let table =
    List.init (Sublattice.index period) (fun id -> string_of_int (Schedule.slot_of_id sched id))
  in
  encode_record ~kind:"schedule"
    [ ("dim", string_of_int (Sublattice.dim period));
      ("m", string_of_int (Schedule.num_slots sched)); ("basis", basis_to_string period);
      ("table", String.concat "," table) ]

let schedule_of_string s =
  let* kvs = decode_record ~kind:"schedule" s in
  let* m_s = field kvs "m" in
  let* basis_s = field kvs "basis" in
  let* table_s = field kvs "table" in
  let* period = basis_of_string basis_s in
  match
    ( int_of_string m_s,
      Array.of_list (List.map int_of_string (String.split_on_char ',' table_s)) )
  with
  | m, table ->
    if Array.length table <> Sublattice.index period then
      Error
        (Printf.sprintf "table length %d does not match period index %d" (Array.length table)
           (Sublattice.index period))
    else if not (Array.for_all (fun v -> 0 <= v && v < m) table) then
      Error "table entry out of slot range"
    else Ok (Schedule.of_table ~period ~num_slots:m table)
  | exception Failure _ -> Error "malformed integer"

let tiling_to_string t =
  encode_record ~kind:"tiling"
    [ ("prototile", vecs_to_string (Prototile.cells (Tiling.Single.prototile t)));
      ("basis", basis_to_string (Tiling.Single.period t));
      ("offsets", vecs_to_string (Tiling.Single.offsets t)) ]

let tiling_of_string s =
  let* kvs = decode_record ~kind:"tiling" s in
  let* cells_s = field kvs "prototile" in
  let* basis_s = field kvs "basis" in
  let* offsets_s = field kvs "offsets" in
  let* cells = vecs_of_string cells_s in
  let* period = basis_of_string basis_s in
  let* offsets = vecs_of_string offsets_s in
  let* prototile =
    match Prototile.of_cells cells with
    | p -> Ok p
    | exception _ -> Error "invalid prototile"
  in
  Tiling.Single.make ~prototile ~period ~offsets

let csv_assignment sched ~domain =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf (vec_to_string v);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int (Schedule.slot_at sched v));
      Buffer.add_char buf '\n')
    domain;
  Buffer.contents buf
