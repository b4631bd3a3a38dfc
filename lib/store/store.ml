module Layout = Corpus.Layout

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
  table : (string, string) Hashtbl.t;  (* key -> exact payload, "" for No_tiling *)
  mutable out : out_channel option;  (* None once closed *)
  mutable frames : int;  (* CRC-valid records in the file, live or not *)
  mutable compactions : int;
  auto_compact_ratio : float;
  recovery : recovery;
}

(* ---------- records ---------- *)

(* A store record carries band 0 and either tag 1 with an exact payload
   or tag 2 with an empty one. *)
let record key payload =
  let tag = if payload = "" then Layout.tag_not_found else Layout.tag_exact in
  Layout.encode_record ~band:0 ~tag ~key ~payload

let payload_of_entry = function
  | No_tiling -> ""
  | Found { tiling; certificate } -> Layout.encode_payload tiling certificate

(* Nothing read from disk is trusted: a CRC-valid record is kept only if
   it is a store record and, when exact, its payload parses and proves. *)
let valid ~band ~tag ~key ~payload =
  band = 0
  && (if tag = Layout.tag_not_found then payload = ""
      else
        tag = Layout.tag_exact
        && Result.is_ok
             (Result.bind (Layout.decode_payload payload) (fun (tiling, certificate) ->
                  Layout.prove ~key tiling certificate)))

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
      output_string snap Layout.seg_magic;
      List.iter (fun (key, payload) -> output_string snap (record key payload)) (live_sorted t.table);
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
  let n = String.length data in
  (* Only an empty file or a torn write of the magic is repaired into an
     empty store; any other file that does not start with the magic is
     not ours to overwrite. *)
  let torn_magic = n < Layout.magic_len && String.starts_with ~prefix:data Layout.seg_magic in
  if not (torn_magic || String.starts_with ~prefix:Layout.seg_magic data) then
    raise (Sys_error (path ^ ": not a certificate store (no verdict segment magic); left unchanged"));
  let table = Hashtbl.create 256 in
  let replay (records, dropped) ~off:_ ~band ~tag ~key ~payload =
    if valid ~band ~tag ~key ~payload then begin
      Hashtbl.replace table key payload;
      (records + 1, dropped)
    end
    else (records, dropped + 1)
  in
  let (records, dropped), valid_len =
    if torn_magic then ((0, 0), 0)
    else
      match Layout.fold_records data ~init:(0, 0) ~f:replay with
      | Ok counts -> (counts, n)
      | Error (counts, valid_len, _) -> (counts, valid_len)
  in
  (* Repair the file before the first append: write the magic over a
     torn one, or cut the invalid tail. *)
  if torn_magic then
    Out_channel.with_open_gen
      [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
      0o644 path
      (fun oc -> output_string oc Layout.seg_magic)
  else if valid_len < n then Unix.truncate path valid_len;
  let t =
    {
      path;
      table;
      out = Some (append_channel path);
      frames = records + dropped;
      compactions = 0;
      auto_compact_ratio;
      recovery =
        { live = Hashtbl.length table; records; dropped; truncated_bytes = n - valid_len };
    }
  in
  if should_compact t then compact t;
  t

let path t = t.path
let recovery t = t.recovery
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key
let compactions t = t.compactions

(* Every payload in the table was proved at [open_] or encoded by [put],
   so it parses; the proof is not run again. *)
let entry_of_payload = function
  | "" -> No_tiling
  | payload -> (
    match Layout.decode_payload payload with
    | Ok (tiling, certificate) -> Found { tiling; certificate }
    | Error msg -> failwith ("Store: live payload does not parse: " ^ msg))

let find t key = Option.map entry_of_payload (Hashtbl.find_opt t.table key)

let fold t ~init ~f =
  List.fold_left
    (fun acc (key, payload) -> f acc key (entry_of_payload payload))
    init (live_sorted t.table)

let put t key entry =
  let oc = channel t "put" in
  (match entry with
  | No_tiling -> ()
  | Found { tiling; certificate } ->
    Result.iter_error
      (fun msg -> invalid_arg ("Store.put: " ^ msg))
      (Layout.check_key ~key tiling certificate));
  let payload = payload_of_entry entry in
  output_string oc (record key payload);
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
