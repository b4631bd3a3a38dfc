(* LRU over a Hashtbl plus an intrusive doubly-linked recency list.
   [sentinel] is a circular list head: sentinel.next is the most recently
   used node, sentinel.prev the least recently used. *)

type 'a node = {
  key : string;
  mutable value : 'a option;  (* None only for the sentinel *)
  mutable prev : 'a node;
  mutable next : 'a node;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  sentinel : 'a node;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let rec sentinel = { key = ""; value = None; prev = sentinel; next = sentinel } in
  { capacity; table = Hashtbl.create 64; sentinel; hits = 0; misses = 0; evictions = 0 }

let capacity t = t.capacity
let length t = Hashtbl.length t.table

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some node ->
    t.hits <- t.hits + 1;
    unlink node;
    push_front t node;
    node.value

let evict_lru t =
  let lru = t.sentinel.prev in
  if lru != t.sentinel then begin
    unlink lru;
    Hashtbl.remove t.table lru.key;
    t.evictions <- t.evictions + 1
  end

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- Some value;
    unlink node;
    push_front t node
  | None ->
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    let rec node = { key; value = Some value; prev = node; next = node } in
    Hashtbl.replace t.table key node;
    push_front t node)

let counters t = (t.hits, t.misses, t.evictions)

let to_alist t =
  let rec go acc node =
    if node == t.sentinel then List.rev acc
    else
      match node.value with
      | None -> go acc node.next
      | Some v -> go ((node.key, v) :: acc) node.next
  in
  go [] t.sentinel.next
