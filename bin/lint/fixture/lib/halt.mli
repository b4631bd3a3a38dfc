val halt : unit -> 'a
