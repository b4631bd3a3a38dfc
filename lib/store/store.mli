(** Library root: the persistent certificate store.

    The store's API lives directly on [Store] ({!open_} / {!find} /
    {!put} - see {!Log} for the full documentation of the on-disk
    format, the recovery invariant, and compaction). *)

include module type of struct
  include Log
end
