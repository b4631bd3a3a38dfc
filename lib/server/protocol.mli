(** Request/response types and wire codecs for the schedule server.

    One request or response is one line in the {!Core.Codec} record
    grammar ([tilesched/v1;kind=K] header, ['|']-separated [key=value]
    fields), so the daemon speaks the same dialect as the on-disk
    artifacts.  Requests carry an optional client-chosen [id] that is
    echoed verbatim in the reply, letting pipelined clients match
    responses to requests.

    The decoders are total: any malformed, truncated or mutated line
    yields [Error _], never an exception. *)

open Lattice

type request =
  | Slot of { tile : Prototile.t; pos : Zgeom.Vec.t }
      (** The slot of the sensor at [pos] in an optimal schedule for
          [tile]-neighborhoods (paper Theorem 1). *)
  | Schedule of Prototile.t  (** The full schedule record for [tile]. *)
  | Tile_search of Prototile.t
      (** The tiling and independence certificate backing the schedule. *)
  | Stats  (** Server counters; never touches the cache. *)
  | Shutdown  (** Ask the daemon to finish the batch and exit cleanly. *)

type server_stats = {
  served : int;  (** requests answered (anything but [Overloaded]) *)
  overloaded : int;  (** requests refused by admission control *)
  errors : int;  (** requests answered with [Error_r] *)
  searches : int;  (** tiling searches actually run *)
  coalesced : int;  (** cache misses folded into another miss's search *)
  timeouts : int;  (** searches abandoned at their deadline *)
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  store_hits : int;  (** memory misses answered by the persistent store *)
  corpus_hits : int;  (** requests answered by the mmap corpus snapshot *)
}

(** Which amortization tier settled a tile reply - the observability
    marker behind the warm-start acceptance check ("on a warmed store,
    every small query answers [store], never [fresh]").  [None] on lines
    from servers predating the marker; the codec treats the field as
    optional in both directions, so old-format lines still round-trip. *)
type source =
  | Memory  (** in-process LRU hit *)
  | Corpus  (** mmap-backed precomputed corpus hit *)
  | Store  (** persistent certificate store hit *)
  | Fresh  (** a tiling search ran for this batch *)

type response =
  | Slot_r of { slot : int; num_slots : int; source : source option }
  | Schedule_r of { schedule : Core.Schedule.t; source : source option }
  | Tiling_r of {
      tiling : Tiling.Single.t;
      certificate : Core.Certificate.t;
      source : source option;
    }
  | Tiling_raw_r of { tiling_fields : string; source : source option }
      (** Encode-only fast path: [tiling_fields] is the ['|']-separated
          field fragment of a stored tiling line, sliced from the corpus
          snapshot and spliced verbatim into the response line - zero
          deserialization between mmap and socket.  On the wire it is
          indistinguishable from {!Tiling_r}, and {!response_of_string}
          always decodes to {!Tiling_r}. *)
  | Stats_r of server_stats
  | No_tiling of source option
      (** The search space is exhausted: no tiling, no schedule. *)
  | Overloaded  (** Admission control refused the request; retry later. *)
  | Deadline_exceeded  (** The search hit its deadline; result unknown. *)
  | Shutting_down
  | Error_r of string

val source_to_string : source -> string
(** [memory], [corpus], [store] or [fresh] - the wire values of the
    [src] field. *)

val source_of_response : response -> source option
(** The marker of a tile reply; [None] for control/refusal replies. *)

val request_to_string : ?id:int -> request -> string
val request_of_string : string -> (int option * request, string) result

val response_to_string : ?id:int -> response -> string

val response_of_string : string -> (int option * response, string) result
(** [Tiling_r] rebuilds its certificate with {!Core.Certificate.build},
    so a decoded certificate is trustworthy iff the tiling validates. *)

val tiling_fragment : Tiling.Single.t -> string
(** The ['|']-separated field fragment of a tiling
    ([prototile=...|basis=...|offsets=...]) — the exact byte shape the
    corpus snapshot stores and {!Tiling_raw_r} splices, shared with the
    binary codec ({!Wire}). *)

val tiling_of_fragment : string -> (Tiling.Single.t, string) result
(** Decode a {!tiling_fragment}, revalidating the tiling. *)

val pp_server_stats : Format.formatter -> server_stats -> unit
