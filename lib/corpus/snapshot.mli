(** Read-only mmap snapshot tier over a sealed corpus.

    {!open_} maps every segment and index file ([Unix.map_file] +
    [Bigarray]) without reading, parsing or validating any record, so a
    fresh process is serving in O(1) regardless of corpus size - the
    Herman-Tixeuil "all work precomputed, zero work on the hot path"
    philosophy applied to serving.  Contrast {!Store.open_}, which
    replays its whole log and re-proves every certificate before the
    first answer.

    {!find} is an FNV hash, a binary search over the mapped fixed-width
    index, and a key-bytes comparison against the mapped segment; a
    {!hit} is just a (shard, offset) pair into the maps.  Accessors
    slice from the mapped buffer on demand: {!tiling_fields} is the
    zero-deserialization reply path (one line scan + one blit, no
    parsing), {!tiling} the validating cold path for requests that must
    transport or re-derive the tiling.

    Trust model: the snapshot believes the sealed corpus (the campaign
    validated everything it wrote, and [verify] re-proves the whole
    corpus offline); readers that need a checked artifact go through
    {!tiling}, whose codec revalidates the tiling via [Single.make]: the
    trust anchor is that tiling, from which certificates are derived. *)

type t

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A mapped segment.  Read-only by convention (the mapping is opened
    [O_RDONLY]); writes would fault. *)

val open_ : string -> (t, string) result
(** Map the corpus directory.  Fails if the corpus is absent, damaged,
    or not sealed (a campaign still running - or killed mid-build and
    not yet resumed - must not be served). *)

val dir : t -> string

val bands : t -> Layout.band list
(** Per-band stats straight from the manifest. *)

val length : t -> int
(** Total indexed records. *)

type hit

val find : t -> string -> hit option
(** Look up a canonical key ({!Layout.key_of_prototile}). *)

val band : t -> hit -> int
val verdict : t -> hit -> [ `Exact | `Non_exact ]

val tiling_fields : t -> hit -> string
(** Exact hits only: the ['|']-separated field fragment of the stored
    tiling line ([prototile=...|basis=...|offsets=...]), sliced straight
    from the mapped segment with no parsing - ready to splice verbatim
    into a [tile-search] response line. *)

val tiling_raw : t -> hit -> buf * int * int
(** The same fragment as {!tiling_fields} but without the copy: the
    mapped segment and the fragment's [(offset, length)] within it, for
    writev-style splicing of the bytes straight from the mmap into a
    socket. *)

val payload : t -> hit -> string
(** The raw record payload (empty for non-exact verdicts). *)

val tiling : t -> hit -> (Tiling.Single.t option, string) result
(** Validating decode: [None] for a non-exact verdict, the tiling
    revalidated by {!Layout.decode_payload} for an exact one. *)

val entry : t -> hit -> ((Tiling.Single.t * Core.Certificate.t) option, string) result
(** {!tiling} paired with [Certificate.build] of it.  The derived
    certificate stays in the result only because the daemon benchmark
    matches this shape; removing it waits for a change to it. *)

type verify_report = {
  records : int;
  exact : int;
  non_exact : int;
  indexed : int;
}

val verify : dir:string -> (verify_report, string) result
(** Full offline integrity check of a sealed corpus: every record's CRC
    and framing, every record a campaign verdict (band 1..255, tag 0 or
    1: a store's band-0 or tag-2 record is rejected), every key
    reachable through its shard's index (and only its own entry), every
    exact payload one valid tiling line proved with {!Layout.prove},
    every index entry backed by a record, and the manifest's per-band
    counts in agreement with the records. *)
