(* One R2 violation: a library module that terminates the process. *)
let halt () = exit 2
