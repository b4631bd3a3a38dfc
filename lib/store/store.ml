(* Library root: the persistent certificate store's API lives directly
   on [Store] ([Store.open_] / [Store.find] / [Store.put]). *)

include Log
