(* Read-only mmap view of a sealed corpus.  Opening maps the segment
   and index files (no parsing, no validation, O(1) in corpus size);
   a lookup is an FNV hash, a binary search over the mapped fixed-width
   index, and a key-bytes comparison against the mapped segment.  The
   hot path never deserializes: replies are sliced straight out of the
   mapped buffer. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type shard = { seg : buf; idx : buf; count : int }

type t = {
  dir : string;
  shards : shard array;
  bands : Layout.band list;
}

type hit = { shard : int; off : int }

(* ---------- mapped-buffer accessors ---------- *)

let map_ro path : buf =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]))

let get_u8 (b : buf) i = Char.code (Bigarray.Array1.get b i)

let get_u16 (b : buf) i = get_u8 b i lor (get_u8 b (i + 1) lsl 8)

let get_u32 (b : buf) i = get_u16 b i lor (get_u16 b (i + 2) lsl 16)

(* Stored values are at most 62 bits, so the top two bytes never carry
   a sign into OCaml's int. *)
let get_u64 (b : buf) i = get_u32 b i lor (get_u32 b (i + 4) lsl 32)

let sub_string (b : buf) pos len =
  String.init len (fun i -> Bigarray.Array1.get b (pos + i))

let string_matches (b : buf) pos s =
  let n = String.length s in
  let rec go i = i = n || (Bigarray.Array1.get b (pos + i) = s.[i] && go (i + 1)) in
  go 0

(* ---------- open ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_ dir =
  let ( let* ) = Result.bind in
  let manifest_path = Filename.concat dir Layout.manifest_name in
  let* () =
    if Sys.file_exists manifest_path then Ok ()
    else Error (Printf.sprintf "no corpus at %s (missing %s)" dir Layout.manifest_name)
  in
  let* m = Layout.manifest_of_string (read_file manifest_path) in
  let* () =
    if m.Layout.sealed then Ok ()
    else Error (Printf.sprintf "corpus at %s is not sealed (campaign still running or killed mid-build; re-run the build to seal it)" dir)
  in
  let lens = Layout.shard_lengths m in
  let* shards =
    let rec go s acc =
      if s = m.Layout.shards then Ok (Array.of_list (List.rev acc))
      else
        let seg = map_ro (Filename.concat dir (Layout.segment_name s)) in
        let idx = map_ro (Filename.concat dir (Layout.index_name s)) in
        if Bigarray.Array1.dim seg < lens.(s) then
          Error (Printf.sprintf "%s: mapped segment shorter than manifest" (Layout.segment_name s))
        else if
          Bigarray.Array1.dim idx < Layout.magic_len + 8
          || not (string_matches idx 0 Layout.idx_magic)
          || not (string_matches seg 0 Layout.seg_magic)
        then Error (Printf.sprintf "%s: bad segment or index magic" (Layout.segment_name s))
        else
          let count = get_u64 idx Layout.magic_len in
          if Bigarray.Array1.dim idx < Layout.magic_len + 8 + (count * Layout.idx_entry_size)
          then Error (Printf.sprintf "%s: index shorter than its entry count" (Layout.index_name s))
          else go (s + 1) ({ seg; idx; count } :: acc)
    in
    go 0 []
  in
  Ok { dir; shards; bands = m.Layout.bands }

let dir t = t.dir
let bands t = t.bands
let length t = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

(* ---------- lookup ---------- *)

let entry_hash sh i = get_u64 sh.idx (Layout.magic_len + 8 + (i * Layout.idx_entry_size))
let entry_off sh i = get_u64 sh.idx (Layout.magic_len + 8 + (i * Layout.idx_entry_size) + 8)

let key_at sh off key =
  let klen = get_u32 sh.seg (off + 6) in
  klen = String.length key && string_matches sh.seg (off + Layout.header_size) key

let find t key =
  let h = Layout.hash_key key in
  let shard = h mod Array.length t.shards in
  let sh = t.shards.(shard) in
  (* Leftmost index entry with hash >= h. *)
  let lo = ref 0 and hi = ref sh.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if entry_hash sh mid < h then lo := mid + 1 else hi := mid
  done;
  let rec scan i =
    if i >= sh.count || entry_hash sh i <> h then None
    else
      let off = entry_off sh i in
      if key_at sh off key then Some { shard; off } else scan (i + 1)
  in
  scan !lo

let band t hit = get_u8 t.shards.(hit.shard).seg (hit.off + 5)

let verdict t hit =
  if get_u8 t.shards.(hit.shard).seg (hit.off + 4) = Layout.tag_exact then `Exact else `Non_exact

let payload_bounds t hit =
  let sh = t.shards.(hit.shard) in
  let klen = get_u32 sh.seg (hit.off + 6) in
  let plen = get_u32 sh.seg (hit.off + 10) in
  (hit.off + Layout.header_size + klen, plen)

let payload t hit =
  let pos, len = payload_bounds t hit in
  sub_string t.shards.(hit.shard).seg pos len

(* The zero-deserialization slice: the '|'-separated field fragment of
   the stored tiling line (the payload after its record header), ready
   to splice verbatim into a [tile-search] response line.  The payload
   is that one line, so this is a scan for the first separator and no
   parsing, no validation - the bytes were validated when the campaign
   wrote them (and again by [verify], if run). *)
let tiling_raw t hit =
  let sh = t.shards.(hit.shard) in
  let pos, len = payload_bounds t hit in
  let rec first_sep i =
    if i = len then len else if Bigarray.Array1.get sh.seg (pos + i) = '|' then i + 1 else first_sep (i + 1)
  in
  let start = first_sep 0 in
  (sh.seg, pos + start, len - start)

let tiling_fields t hit =
  let seg, pos, len = tiling_raw t hit in
  sub_string seg pos len

(* ---------- decode (the cold path) ---------- *)

let entry t hit =
  match verdict t hit with
  | `Non_exact -> Ok None
  | `Exact ->
    Result.map
      (fun tiling -> Some (tiling, Core.Certificate.build tiling))
      (Layout.decode_payload (payload t hit))

(* ---------- verify ---------- *)

type verify_report = {
  records : int;
  exact : int;
  non_exact : int;
  indexed : int;
}

let verify ~dir:d =
  let ( let* ) = Result.bind in
  let* t = open_ d in
  let module V = struct
    exception Bad of string
  end in
  let fail fmt = Printf.ksprintf (fun s -> raise (V.Bad s)) fmt in
  try
    let records = ref 0 and exact = ref 0 and non_exact = ref 0 and indexed = ref 0 in
    let counts = Hashtbl.create 16 in
    Array.iteri
      (fun s sh ->
        let name = Layout.segment_name s in
        let data = sub_string sh.seg 0 (Bigarray.Array1.dim sh.seg) in
        let n =
          match
            Layout.fold_records data ~init:0 ~f:(fun n ~off ~band ~tag ~key ~payload ->
                incr records;
                (* Every record must be reachable through the index... *)
                (match find t key with
                | Some hit when hit.shard = s && hit.off = off -> ()
                | Some _ -> fail "%s: key at byte %d resolves to a different record" name off
                | None -> fail "%s: key at byte %d is not reachable through the index" name off);
                (* ... live in its hash shard ... *)
                if Layout.shard_of_key ~shards:(Array.length t.shards) key <> s then
                  fail "%s: record at byte %d is in the wrong shard" name off;
                (* ... come from a campaign band, not from a store ... *)
                if band = 0 then fail "%s: record at byte %d has band 0 (a store record)" name off;
                (* ... and carry a verdict that proves itself. *)
                (match tag with
                | tag when tag = Layout.tag_non_exact ->
                  incr non_exact;
                  if payload <> "" then fail "%s: non-exact record at byte %d has a payload" name off
                | tag when tag = Layout.tag_exact -> (
                  incr exact;
                  match Result.bind (Layout.decode_payload payload) (Layout.prove ~key) with
                  | Ok () -> ()
                  | Error e -> fail "%s: exact record at byte %d: %s" name off e)
                | tag ->
                  fail "%s: record at byte %d has tag %d (not found), which is not a proof" name
                    off tag);
                let e, ne = try Hashtbl.find counts band with Not_found -> (0, 0) in
                Hashtbl.replace counts band
                  (match tag with
                  | tag when tag = Layout.tag_exact -> (e + 1, ne)
                  | _ -> (e, ne + 1));
                n + 1)
          with
          | Ok n -> n
          | Error (_, _, e) -> fail "%s: %s" name e
        in
        if n <> sh.count then
          fail "%s: index holds %d entries for %d records" (Layout.index_name s) sh.count n;
        indexed := !indexed + sh.count)
      t.shards;
    (* The manifest's per-band counts must agree with the records. *)
    List.iter
      (fun b ->
        let e, ne = try Hashtbl.find counts b.Layout.n with Not_found -> (0, 0) in
        if e <> b.Layout.exact || ne <> b.Layout.non_exact || e + ne <> b.Layout.classes then
          fail "manifest band n=%d (classes=%d exact=%d non-exact=%d) disagrees with the records \
                (%d exact, %d non-exact)"
            b.Layout.n b.Layout.classes b.Layout.exact b.Layout.non_exact e ne)
      t.bands;
    if Hashtbl.length counts <> List.length t.bands then fail "records from a band the manifest does not list";
    Ok { records = !records; exact = !exact; non_exact = !non_exact; indexed = !indexed }
  with V.Bad msg -> Error msg
