open Lattice

(* The campaign driver: stream the free-polyomino bands, decide each
   tile with [Tiling.Search.decide] (holes and the Beauquier-Nivat test
   refute, an exact tile gets its lattice tiling), append the verdicts
   to sharded segments, and checkpoint after every band so a killed
   campaign resumes exactly where the last fsync left it. *)

(* The record for one enumerated tile.  Enumerated tiles are connected
   2-D polyominoes, which [decide] always settles. *)
let record_of_tile tile =
  match Tiling.Search.decide tile with
  | Tiling.Search.Non_exact _ -> (Layout.tag_non_exact, "")
  | Tiling.Search.Exact tiling -> (Layout.tag_exact, Layout.encode_payload tiling)
  | Tiling.Search.Not_found ->
    invalid_arg ("Corpus.Campaign: undecided polyomino " ^ Layout.key_of_cells tile)

type report = {
  dir : string;
  shards : int;
  max_n : int;
  skipped_bands : int;
  bands : Layout.band list;
}

(* ---------- fd-level file helpers ----------

   The writers use raw file descriptors, not buffered channels: a
   buffered channel flushes whatever it holds from [at_exit] (or a GC
   finalizer), which after a mid-band crash would append bytes BEHIND
   the recovery truncation and corrupt the very state the checkpoint
   protocol protects.  With [Unix.write] every published byte is either
   fully before the kill point or absent. *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write fd b !pos (n - !pos)
  done

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Atomic replace with the store's fsync-then-rename discipline: the
   rename may only publish blocks already forced to disk. *)
let write_file_atomic path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd contents;
      Unix.fsync fd);
  Sys.rename tmp path

let seg_path dir s = Filename.concat dir (Layout.segment_name s)
let idx_path dir s = Filename.concat dir (Layout.index_name s)
let manifest_path dir = Filename.concat dir Layout.manifest_name

let write_manifest dir m = write_file_atomic (manifest_path dir) (Layout.manifest_to_string m)

(* ---------- sealing: build the per-shard index files ---------- *)

let seal_shard dir s =
  let data = read_file (seg_path dir s) in
  match
    Layout.fold_records data ~init:[] ~f:(fun acc ~off ~band:_ ~tag:_ ~key ~payload:_ ->
        (Layout.hash_key key, off) :: acc)
  with
  | Error (_, _, e) -> Error (Printf.sprintf "%s: %s" (Layout.segment_name s) e)
  | Ok entries ->
    let entries = List.sort compare entries in
    let count = List.length entries in
    let b = Bytes.create (Layout.magic_len + 8 + (count * Layout.idx_entry_size)) in
    Bytes.blit_string Layout.idx_magic 0 b 0 Layout.magic_len;
    Layout.put_u64 b Layout.magic_len count;
    List.iteri
      (fun i (hash, off) ->
        let at = Layout.magic_len + 8 + (i * Layout.idx_entry_size) in
        Layout.put_u64 b at hash;
        Layout.put_u64 b (at + 8) off)
      entries;
    write_file_atomic (idx_path dir s) (Bytes.unsafe_to_string b);
    Ok ()

let seal dir m =
  let ( let* ) = Result.bind in
  let rec go s = if s = m.Layout.shards then Ok () else let* () = seal_shard dir s in go (s + 1) in
  let* () = go 0 in
  write_manifest dir { m with Layout.sealed = true };
  Ok { m with Layout.sealed = true }

(* ---------- crash repair ---------- *)

(* Bring every segment back to the last checkpoint: create missing
   files, cut bytes past the manifest-recorded length (a killed band's
   partial appends), and reject files that are somehow too short. *)
let repair_segments dir m =
  let lens = Layout.shard_lengths m in
  let ( let* ) = Result.bind in
  let rec go s =
    if s = m.Layout.shards then Ok ()
    else
      let path = seg_path dir s in
      let* () =
        if not (Sys.file_exists path) then
          if lens.(s) > Layout.magic_len then
            Error (Printf.sprintf "%s: missing segment (manifest expects %d bytes)"
                     (Layout.segment_name s) lens.(s))
          else begin
            write_file_atomic path Layout.seg_magic;
            Ok ()
          end
        else
          let size = (Unix.stat path).Unix.st_size in
          if size < lens.(s) then
            Error (Printf.sprintf "%s: segment shorter than manifest (%d < %d bytes)"
                     (Layout.segment_name s) size lens.(s))
          else begin
            if size > lens.(s) then Unix.truncate path lens.(s);
            Ok ()
          end
      in
      go (s + 1)
  in
  go 0

(* ---------- the campaign proper ---------- *)

(* [tiles] come from [Polyomino.enumerate_free_iter], which yields each
   class's canonical representative, so a tile's cells already are its
   store key; [Snapshot.verify] re-derives every key offline. *)
let append_band dir m ~pool ~progress ~n tiles =
  let shards = m.Layout.shards in
  let records =
    Parallel.map pool
      (fun tile -> (Layout.key_of_cells tile, record_of_tile tile))
      tiles
  in
  let lens = Layout.shard_lengths m in
  let exact = ref 0 and non_exact = ref 0 in
  let total = List.length records in
  let fds =
    Array.init shards (fun s ->
        Unix.openfile (seg_path dir s) [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Unix.close fds)
    (fun () ->
      List.iteri
        (fun i (key, (tag, payload)) ->
          incr (if tag = Layout.tag_exact then exact else non_exact);
          let record = Layout.encode_record ~band:n ~tag ~key ~payload in
          let s = Layout.shard_of_key ~shards key in
          write_all fds.(s) record;
          lens.(s) <- lens.(s) + String.length record;
          progress ~n ~done_:(i + 1) ~total)
        records;
      Array.iter Unix.fsync fds);
  let band =
    { Layout.n; classes = total; exact = !exact; non_exact = !non_exact; lens }
  in
  let m = { m with Layout.bands = m.Layout.bands @ [ band ] } in
  write_manifest dir m;
  m

let run ?pool ?(shards = 8) ?(progress = fun ~n:_ ~done_:_ ~total:_ -> ()) ~dir ~max_n () =
  let ( let* ) = Result.bind in
  let pool = match pool with Some p -> p | None -> Parallel.default () in
  let* () =
    if max_n < 1 || max_n > 255 then Error "Campaign.run: max_n must be in 1..255" else Ok ()
  in
  let* () = if shards >= 1 then Ok () else Error "Campaign.run: shards must be >= 1" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let* m =
    let path = manifest_path dir in
    if Sys.file_exists path then
      let* m = Layout.manifest_of_string (read_file path) in
      if m.Layout.shards <> shards && shards <> 8 then
        Error
          (Printf.sprintf "corpus at %s was built with %d shards, not %d" dir m.Layout.shards
             shards)
      else Ok m
    else Ok { Layout.shards; sealed = false; bands = [] }
  in
  let* () = repair_segments dir m in
  let completed = Layout.completed m in
  let skipped_bands = min completed max_n in
  let* m =
    if completed >= max_n then Ok m
    else begin
      (* Growing past a sealed corpus: drop the seal first, so a crash
         during the new bands can never leave stale indexes looking
         authoritative. *)
      let m = { m with Layout.sealed = false } in
      write_manifest dir m;
      let state = ref m in
      let buf = ref [] and cur = ref 1 in
      let flush_band () =
        let n = !cur in
        if n > completed then
          state := append_band dir !state ~pool ~progress ~n (List.rev !buf);
        buf := []
      in
      Polyomino.enumerate_free_iter ~max_area:max_n (fun ~area tile ->
          if area <> !cur then begin
            flush_band ();
            cur := area
          end;
          if area > completed then buf := tile :: !buf);
      flush_band ();
      Ok !state
    end
  in
  let* m = if m.Layout.sealed then Ok m else seal dir m in
  Ok { dir; shards = m.Layout.shards; max_n; skipped_bands; bands = m.Layout.bands }

let pp_report fmt r =
  Format.fprintf fmt "corpus %s: shards=%d sealed=true bands=%d" r.dir r.shards
    (List.length r.bands);
  if r.skipped_bands > 0 then
    Format.fprintf fmt " (resumed: %d band%s already checkpointed)" r.skipped_bands
      (if r.skipped_bands = 1 then "" else "s");
  List.iter
    (fun b ->
      Format.fprintf fmt "@\nband n=%d classes=%d exact=%d non-exact=%d" b.Layout.n
        b.Layout.classes b.Layout.exact b.Layout.non_exact)
    r.bands;
  let tot f = List.fold_left (fun acc b -> acc + f b) 0 r.bands in
  Format.fprintf fmt "@\ntotal classes=%d exact=%d non-exact=%d"
    (tot (fun b -> b.Layout.classes))
    (tot (fun b -> b.Layout.exact))
    (tot (fun b -> b.Layout.non_exact))
