(** Serialization of schedules and their ingredients.

    A deployed sensor needs only three things to run the paper's
    protocol: the period basis (HNF rows), the slot count [m], and the
    coset-indexed slot table.  [schedule_to_string] packs exactly that
    into one printable line; [schedule_of_string] restores it.  The
    formats are versioned, human-readable and stable:

    {v
    tilesched/v1;dim=2;m=9;basis=3,0;0,3;table=0,1,2,3,4,5,6,7,8
    v}

    [tiling_*] round-trip the tiling for configuration files,
    [prototile_to_string] prints a prototile (certificates use it),
    and [csv_assignment] exports a per-sensor slot table for external
    tooling. *)

(** {2 Record-layer helpers}

    One record is one line: a [tilesched/v1;kind=K] header then
    ['|']-separated [key=value] fields; values may contain [';']- and
    [',']-separated vectors but never ['|'] or newlines.  The scheduler
    server's wire protocol ({!Server.Protocol}) builds its request and
    response lines from these same helpers, so every on-disk and
    on-the-wire artifact shares one grammar. *)

val encode_record : kind:string -> (string * string) list -> string

val add_fields : Buffer.t -> (string * string) list -> unit
(** Appends ["|k=v"] for each field: the tail of an {!encode_record}
    line, for lines assembled around an already-encoded fragment. *)

val decode_record : kind:string -> string -> ((string * string) list, string) result

val field : (string * string) list -> string -> (string, string) result
(** First binding of the key, or [Error] naming the missing field. *)

val vec_to_string : Zgeom.Vec.t -> string
val vec_of_string : string -> (Zgeom.Vec.t, string) result
val vecs_to_string : Zgeom.Vec.t list -> string
(** [vec_to_string] is the coordinates in decimal joined by [','],
    [vecs_to_string] those joined by [';'] ([""] for no vector).  Both
    write every digit into one buffer, so the only string made is the
    result: the engine builds a cache key this way on every request. *)

val vecs_of_string : string -> (Zgeom.Vec.t list, string) result

(** {2 Artifact codecs} *)

val prototile_to_string : Lattice.Prototile.t -> string

val schedule_to_string : Schedule.t -> string
val schedule_of_string : string -> (Schedule.t, string) result

val tiling_to_string : Tiling.Single.t -> string
val tiling_of_string : string -> (Tiling.Single.t, string) result

val csv_assignment : Schedule.t -> domain:Zgeom.Vec.t list -> string
(** One line per sensor: its coordinates then its slot, e.g. "3,4,7". *)
