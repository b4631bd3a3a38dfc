open Lattice

type entry =
  | Found of { tiling : Tiling.Single.t; certificate : Core.Certificate.t }
  | No_tiling

type recovery = {
  live : int;
  records : int;
  dropped : int;
  truncated_bytes : int;
}

type t = {
  path : string;
  table : (string, string) Hashtbl.t;  (* key -> validated payload *)
  mutable out : out_channel option;  (* None once closed *)
  mutable frames : int;  (* CRC-valid frames in the file, live or not *)
  mutable compactions : int;
  auto_compact_ratio : float;
  recovery : recovery;
}

let magic = "TSTORE1\n"
let magic_len = String.length magic

(* A payload is a handful of text lines; anything bigger than this is a
   corrupt length field, not a record. *)
let max_payload = 1 lsl 24

(* ---------- payload codec ---------- *)

let key_of_prototile p =
  Core.Codec.vecs_to_string (Prototile.cells (Symmetry.canonical p))

let encode_payload key entry =
  match entry with
  | No_tiling -> Core.Codec.encode_record ~kind:"store" [ ("key", key); ("status", "no-tiling") ]
  | Found { tiling; certificate } ->
    String.concat "\n"
      [ Core.Codec.encode_record ~kind:"store" [ ("key", key); ("status", "found") ];
        Core.Codec.tiling_to_string tiling; Core.Certificate.to_string certificate ]

(* The parse half of decoding a payload: the record fields, the tiling
   (revalidated by [Codec.tiling_of_string], which goes through
   [Single.make]) and the certificate's text.  [find] and [fold] run only
   this half, on payloads [open_] or [put] already accepted. *)
let parse_payload payload =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' payload with
  | [] -> Error "empty payload"
  | header :: rest -> (
    let* kvs = Core.Codec.decode_record ~kind:"store" header in
    let* key = Core.Codec.field kvs "key" in
    let* status = Core.Codec.field kvs "status" in
    if key = "" then Error "empty key"
    else
      match (status, rest) with
      | "no-tiling", [] -> Ok (key, No_tiling)
      | "found", [ tiling_line; c1; c2; c3 ] ->
        let* tiling = Core.Codec.tiling_of_string tiling_line in
        let* certificate = Core.Certificate.of_string (String.concat "\n" [ c1; c2; c3 ]) in
        Ok (key, Found { tiling; certificate })
      | _ -> Error "malformed store payload")

(* The keying rule [put] enforces: a [Found] record is keyed by the
   canonical key of its tiling's prototile, which also forces the stored
   orientation to be the canonical one the server's transport step
   assumes. *)
let key_error key tiling certificate =
  let proto = Tiling.Single.prototile tiling in
  if not (Prototile.equal proto certificate.Core.Certificate.prototile) then
    Some "certificate prototile differs from tiling prototile"
  else if Core.Codec.vecs_to_string (Prototile.cells proto) <> key || key_of_prototile proto <> key
  then Some "key is not the canonical key of the tiling"
  else None

(* The prove half: nothing read from disk is trusted, so a parsed
   record must satisfy the keying rule and its certificate must be
   re-proved by [Certificate.check]. *)
let prove key = function
  | No_tiling -> Ok ()
  | Found { tiling; certificate } -> (
    match key_error key tiling certificate with
    | Some msg -> Error msg
    | None -> (
      match Core.Certificate.check certificate with
      | Ok () -> Ok ()
      | Error f -> Error (Format.asprintf "certificate rejected: %a" Core.Certificate.pp_failure f)))

(* Semantic validation of a CRC-valid payload: parse, then prove. *)
let validate_payload payload =
  Result.bind (parse_payload payload) (fun (key, entry) ->
      Result.map (fun () -> key) (prove key entry))

(* ---------- framing ---------- *)

let output_frame oc payload =
  let header = Bytes.create 9 in
  Bytes.set header 0 'R';
  Bytes.set_int32_le header 1 (Int32.of_int (String.length payload));
  Bytes.set_int32_le header 5 (Core.Crc32.of_string payload);
  output_bytes oc header;
  output_string oc payload

(* Scan the raw file image for the longest valid prefix.  Returns the
   validated records as (key, payload) pairs in log order, the count of
   CRC-valid frames whose payload failed semantic validation, and the
   byte length of the valid prefix (everything past it is torn or
   corrupt and must go). *)
let scan data =
  let n = String.length data in
  if n < magic_len || String.sub data 0 magic_len <> magic then ([], 0, 0)
  else begin
    let records = ref [] in
    let dropped = ref 0 in
    let pos = ref magic_len in
    let stop = ref false in
    while not !stop do
      if !pos = n then stop := true
      else if n - !pos < 9 || data.[!pos] <> 'R' then stop := true
      else begin
        let len = Int32.to_int (String.get_int32_le data (!pos + 1)) in
        let crc = String.get_int32_le data (!pos + 5) in
        if len < 0 || len > max_payload || !pos + 9 + len > n then stop := true
        else begin
          let payload = String.sub data (!pos + 9) len in
          if Core.Crc32.of_string payload <> crc then stop := true
          else begin
            (match validate_payload payload with
            | Ok key -> records := (key, payload) :: !records
            | Error _ -> incr dropped);
            pos := !pos + 9 + len
          end
        end
      end
    done;
    (List.rev !records, !dropped, !pos)
  end

(* ---------- lifecycle ---------- *)

let append_channel path =
  open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path

let live_sorted table =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let channel t op =
  match t.out with None -> invalid_arg ("Store." ^ op ^ ": store is closed") | Some oc -> oc

let compact t =
  let oc = channel t "compact" in
  flush oc;
  close_out oc;
  t.out <- None;
  let tmp = t.path ^ ".compact" in
  let snap = open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr snap)
    (fun () ->
      output_string snap magic;
      List.iter (fun (_, payload) -> output_frame snap payload) (live_sorted t.table);
      flush snap;
      try Unix.fsync (Unix.descr_of_out_channel snap) with Unix.Unix_error _ -> ());
  Sys.rename tmp t.path;
  t.out <- Some (append_channel t.path);
  t.frames <- Hashtbl.length t.table;
  t.compactions <- t.compactions + 1

let should_compact t =
  let dead = t.frames - Hashtbl.length t.table in
  t.auto_compact_ratio < infinity
  && dead >= 16
  && float_of_int dead > t.auto_compact_ratio *. float_of_int (max 1 (Hashtbl.length t.table))

let open_ ?(auto_compact_ratio = 1.0) path =
  let data =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all else ""
  in
  let records, dropped, valid_len = scan data in
  let table = Hashtbl.create 256 in
  List.iter (fun (key, payload) -> Hashtbl.replace table key payload) records;
  (* Repair the file before the first append: cut the invalid tail, or
     rewrite the magic if even the header is gone. *)
  if valid_len < magic_len then
    Out_channel.with_open_gen
      [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
      0o644 path
      (fun oc -> output_string oc magic)
  else if valid_len < String.length data then Unix.truncate path valid_len;
  let t =
    {
      path;
      table;
      out = Some (append_channel path);
      frames = List.length records + dropped;
      compactions = 0;
      auto_compact_ratio;
      recovery =
        {
          live = Hashtbl.length table;
          records = List.length records;
          dropped;
          truncated_bytes = max 0 (String.length data - valid_len);
        };
    }
  in
  if should_compact t then compact t;
  t

let path t = t.path
let recovery t = t.recovery
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key
let compactions t = t.compactions

(* Every payload in the table passed [validate_payload] at [open_] or was
   encoded by [put], so it parses; the proof is not run again. *)
let entry_of_payload payload =
  match parse_payload payload with
  | Ok (_, entry) -> entry
  | Error msg -> failwith ("Store: live payload does not parse: " ^ msg)

let find t key = Option.map entry_of_payload (Hashtbl.find_opt t.table key)

let fold t ~init ~f =
  List.fold_left
    (fun acc (key, payload) -> f acc key (entry_of_payload payload))
    init (live_sorted t.table)

let put t key entry =
  let oc = channel t "put" in
  (match entry with
  | No_tiling -> if key = "" then invalid_arg "Store.put: empty key"
  | Found { tiling; certificate } ->
    Option.iter (fun msg -> invalid_arg ("Store.put: " ^ msg)) (key_error key tiling certificate));
  let payload = encode_payload key entry in
  output_frame oc payload;
  flush oc;
  Hashtbl.replace t.table key payload;
  t.frames <- t.frames + 1;
  if should_compact t then compact t

let close t =
  match t.out with
  | None -> ()
  | Some oc ->
    flush oc;
    close_out oc;
    t.out <- None
