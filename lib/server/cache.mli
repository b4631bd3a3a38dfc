(** A counting LRU cache with string keys.

    The schedule server keys this cache by the {e canonical form} of a
    prototile ({!Lattice.Symmetry.canonical}), so every congruence class
    of tiles - however a client happens to orient or translate its copy -
    shares one entry holding the expensive search result.  The cache is
    bounded: inserting into a full cache evicts the least recently used
    entry, and hits, misses and evictions are counted so the server can
    report them.

    Not thread-safe; the request engine serializes access. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be at least 1. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Entries currently held, [<= capacity]. *)

val find : 'a t -> string -> 'a option
(** Lookup; a present key becomes the most recently used.  Counts one
    hit or one miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or replace as most recently used; evicts the least recently
    used entry when the cache would exceed capacity.  Replacement does
    not count as an eviction. *)

val counters : 'a t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

val to_alist : 'a t -> (string * 'a) list
(** [(key, value)] pairs, most recently used first, without touching
    recency or the counters. *)
