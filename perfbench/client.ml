(* The load driver: pipelined, id-tagged requests over at most two Unix
   socket connections from one process, in open loop (fixed rate, timed
   from each request's due time) or closed loop (fixed in-flight
   window).  The driver spins in the last [spin_ns] before a send is
   due, so a request leaves within a few microseconds of its due time;
   how late it actually left is recorded as generator lag.

   Replies are matched to requests by connection order (the daemon keeps
   per-connection order) and their ids are checked.  In the timed window
   a reply is only compared byte-for-byte with the first reply seen for
   the same distinct request; that first reply is kept and fully
   verified after the window (see [Check]). *)

module Wire = Server.Wire
module P = Server.Protocol

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

external sched_yield : unit -> unit = "perfbench_sched_yield" [@@noalloc]

external wait_readable : Unix.file_descr -> Unix.file_descr -> int -> unit
  = "perfbench_wait_readable"

external read_nb : Unix.file_descr -> Bytes.t -> int -> int -> int = "perfbench_read" [@@noalloc]

(* Reply checks in C: the driver checks every reply as it arrives, and
   at hundreds of thousands of replies a second it must not be the
   closed loop's bottleneck. *)
external bytes_equal : string -> int -> string -> int -> int -> bool = "perfbench_bytes_equal"
  [@@noalloc]

external frame_crc_ok : string -> int -> int -> bool = "perfbench_frame_crc_ok" [@@noalloc]


type dialect = Bin | Text

(* Request templates: a distinct request is sent many times, differing
   only in its id (and, for binary frames, the CRC over it). *)
type template = {
  bin : string;  (* frame with id 0 *)
  text_pre : string;  (* text line up to the id value *)
  text_post : string;  (* text line after the id value, newline included *)
}

let sentinel = 987654321

let template (req : P.request) =
  let line = P.request_to_string ~id:sentinel req in
  let needle = "id=" ^ string_of_int sentinel in
  let i =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length line then invalid_arg "template: id field not found"
      else if String.sub line i n = needle then i
      else find (i + 1)
    in
    find 0
  in
  let cut = i + 3 in
  let after = cut + String.length (string_of_int sentinel) in
  { bin = Wire.encode_request ~id:0 req;
    text_pre = String.sub line 0 cut;
    text_post = String.sub line after (String.length line - after) ^ "\n" }

let frame_with_id tpl id =
  let b = Bytes.of_string tpl.bin in
  let n = Bytes.length b in
  Bytes.set_int32_le b 4 (Int32.of_int id);
  let crc = Wire.crc_string Wire.crc_init (Bytes.unsafe_to_string b) 0 (n - 4) in
  Bytes.blit_string (Wire.crc_emit crc) 0 b (n - 4) 4;
  Bytes.unsafe_to_string b

(* ---------- growable byte queue ---------- *)

type buf = { mutable data : Bytes.t; mutable start : int; mutable len : int }

let buf () = { data = Bytes.create 65536; start = 0; len = 0 }

let reserve b n =
  if b.start + b.len + n > Bytes.length b.data then begin
    let cap = max (Bytes.length b.data) (2 * (b.len + n)) in
    let d = if cap > Bytes.length b.data then Bytes.create cap else b.data in
    Bytes.blit b.data b.start d 0 b.len;
    b.data <- d;
    b.start <- 0
  end

let push_string b s =
  reserve b (String.length s);
  Bytes.blit_string s 0 b.data (b.start + b.len) (String.length s);
  b.len <- b.len + String.length s

let drop b n =
  b.start <- b.start + n;
  b.len <- b.len - n;
  if b.len = 0 then b.start <- 0

(* ---------- connections ---------- *)

(* Ring of in-flight request ids, in send order. *)
type ring = { mutable ids : int array; mutable head : int; mutable count : int }

let ring_push r id =
  if r.count = Array.length r.ids then begin
    let ids = Array.make (2 * r.count) 0 in
    for i = 0 to r.count - 1 do
      ids.(i) <- r.ids.((r.head + i) mod r.count)
    done;
    r.ids <- ids;
    r.head <- 0
  end;
  r.ids.((r.head + r.count) mod Array.length r.ids) <- id;
  r.count <- r.count + 1

let ring_pop r =
  let id = r.ids.(r.head) in
  r.head <- (r.head + 1) mod Array.length r.ids;
  r.count <- r.count - 1;
  id

type conn = {
  fd : Unix.file_descr;
  dialect : dialect;
  rbuf : buf;
  wbuf : buf;
  inflight : ring;
  mutable closed : bool;
}

let connect ~path dialect =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  { fd; dialect; rbuf = buf (); wbuf = buf (); inflight = { ids = Array.make 1024 0; head = 0; count = 0 }; closed = false }

let close c = if not c.closed then begin c.closed <- true; Unix.close c.fd end

let flush c =
  if c.wbuf.len > 0 && not c.closed then
    match Unix.write c.fd c.wbuf.data c.wbuf.start c.wbuf.len with
    | n -> drop c.wbuf n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close c

(* Read what is available; [false] when nothing was. *)
let fill c =
  if c.closed then false
  else
    let room = 65536 in
    reserve c.rbuf room;
    match read_nb c.fd c.rbuf.data (c.rbuf.start + c.rbuf.len) room with
    | -1 -> false
    | n when n > 0 ->
      c.rbuf.len <- c.rbuf.len + n;
      true
    | _ ->
      close c;
      false

(* The next complete reply at the head of [c.rbuf]: a whole binary
   frame, or a text line without its newline.  Returns its length, -1
   when none is complete, or -2 on an unframeable stream (which closes
   the connection).  The reply stays in the buffer until [consume]. *)
let next_reply c =
  let b = c.rbuf in
  match c.dialect with
  | Bin -> (
    match Wire.frame_total b.data ~off:b.start ~avail:b.len with
    | Wire.Need_more -> -1
    | Wire.Total n when n > b.len -> -1
    | Wire.Total n -> n
    | Wire.Bad_frame _ ->
      close c;
      -2)
  | Text -> (
    match Bytes.index_from b.data b.start '\n' with
    | i when i < b.start + b.len -> i - b.start
    | _ | (exception Not_found) -> -1)

let consume c n = drop c.rbuf (match c.dialect with Bin -> n | Text -> n + 1)

(* ---------- reply identity ---------- *)

(* Replies are read in place: [d] is the buffer, [off] and [n] the
   reply's offset and length.  Binary frames carry their id in bytes
   4-7 and a CRC trailer that depends on it; a text reply carries it as
   the "|id=N" field after the record header. *)

(* The id of a reply, or -1 when it has none or fails its CRC. *)
let reply_id dialect d ~off ~n =
  let s = Bytes.unsafe_to_string d in
  match dialect with
  | Bin ->
    if not (frame_crc_ok s off n) then -1
    else
      let id = Int32.to_int (Bytes.get_int32_le d (off + 4)) land 0xffffffff in
      if id = 0xffffffff then -1 else id
  | Text -> (
    match String.index_from s off '|' with
    | bar when bar + 4 <= off + n && String.sub s (bar + 1) 3 = "id=" ->
      let j = ref (bar + 4) and id = ref 0 in
      while !j < off + n && s.[!j] >= '0' && s.[!j] <= '9' do
        id := (!id * 10) + Char.code s.[!j] - 48;
        incr j
      done;
      if !j = bar + 4 then -1 else !id
    | _ | (exception Not_found) -> -1)

(* The reply kept for the checks after the window: a binary frame
   whole (later replies are compared with it id and CRC aside), a text
   reply without its id field. *)
let reply_body dialect d ~off ~n =
  let s = Bytes.unsafe_to_string d in
  match dialect with
  | Bin -> String.sub s off n
  | Text ->
    let bar = String.index_from s off '|' in
    let j = ref (bar + 4) in
    while !j < off + n && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    String.sub s off (bar - off) ^ String.sub s !j (off + n - !j)

(* Whether the reply at [off] matches [first] (from [reply_body]):
   binary frames differ per id in bytes 4-7 and in the CRC trailer. *)
let same_body dialect ~first d ~off ~n =
  let s = Bytes.unsafe_to_string d in
  let eq i j k = bytes_equal s i first j k in
  match dialect with
  | Bin -> n = String.length first && eq off 0 4 && eq (off + 8) 8 (n - 12)
  | Text ->
    let bar = String.index_from s off '|' in
    let j = ref (bar + 4) in
    while !j < off + n && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    let pre = bar - off and post = off + n - !j in
    pre + post = String.length first && eq off 0 pre && eq !j pre post

(* ---------- a load session ---------- *)

(* Per-request bookkeeping is indexed by request id modulo a ring, so a
   long run keeps constant memory. *)
let slots = 1 lsl 18

type session = {
  conns : conn array;
  templates : template array;
  mutable next_id : int;
  due : int array;  (* ns *)
  dreq : int array;  (* distinct request index *)
  (* First reply per (distinct request, dialect): kept for the checks
     after the window. *)
  first : string option array;
  seen : int array;  (* replies per (distinct request, dialect) *)
  mutable mismatched : int;  (* replies differing from the first *)
  mutable bad : int;  (* unframeable or wrong-id replies *)
  mutable completed : int;
}

let session conns templates =
  { conns; templates; next_id = 0; due = Array.make slots 0; dreq = Array.make slots 0;
    first = Array.make (2 * Array.length templates) None;
    seen = Array.make (2 * Array.length templates) 0; mismatched = 0; bad = 0; completed = 0 }

(* Forget what the warm-up saw: the window's replies are judged on
   their own (a warm-up reply may legitimately differ, e.g. [src=fresh]
   on first touch). *)
let reset s =
  Array.fill s.first 0 (Array.length s.first) None;
  Array.fill s.seen 0 (Array.length s.seen) 0;
  s.mismatched <- 0;
  s.bad <- 0;
  s.completed <- 0

let inflight s = Array.fold_left (fun acc c -> acc + c.inflight.count) 0 s.conns

let send s c d ~due =
  let id = s.next_id in
  s.next_id <- id + 1;
  s.due.(id land (slots - 1)) <- due;
  s.dreq.(id land (slots - 1)) <- d;
  let tpl = s.templates.(d) in
  (match c.dialect with
  | Bin ->
    (* The template frame with the id and CRC patched in place. *)
    let n = String.length tpl.bin in
    reserve c.wbuf n;
    let pos = c.wbuf.start + c.wbuf.len in
    push_string c.wbuf tpl.bin;
    let d = c.wbuf.data in
    Bytes.set_int32_le d (pos + 4) (Int32.of_int id);
    let crc = Wire.crc_emit (Wire.crc_string Wire.crc_init (Bytes.unsafe_to_string d) pos (n - 4)) in
    Bytes.blit_string crc 0 d (pos + n - 4) 4
  | Text ->
    push_string c.wbuf tpl.text_pre;
    push_string c.wbuf (string_of_int id);
    push_string c.wbuf tpl.text_post);
  ring_push c.inflight id

(* Consume every complete reply on [c]; [on_reply d lat_ns] runs for
   each, with the latency from the request's due time. *)
let collect s c ~now ~on_reply =
  let rec go () =
    if c.inflight.count > 0 then
      match next_reply c with
      | -1 -> ()
      | -2 -> s.bad <- s.bad + 1
      | n ->
        let id = ring_pop c.inflight in
        let k = id land (slots - 1) in
        let d = s.dreq.(k) in
        let data = c.rbuf.data and off = c.rbuf.start in
        if reply_id c.dialect data ~off ~n = id then begin
          let fi = (2 * d) + match c.dialect with Bin -> 0 | Text -> 1 in
          s.seen.(fi) <- s.seen.(fi) + 1;
          (match s.first.(fi) with
          | None -> s.first.(fi) <- Some (reply_body c.dialect data ~off ~n)
          | Some first ->
            if not (same_body c.dialect ~first data ~off ~n) then s.mismatched <- s.mismatched + 1);
          s.completed <- s.completed + 1;
          on_reply d (now - s.due.(k))
        end
        else s.bad <- s.bad + 1;
        consume c n;
        go ()
  in
  go ()

let poll s ~on_reply =
  sched_yield ();
  for i = 0 to Array.length s.conns - 1 do
    flush s.conns.(i)
  done;
  for i = 0 to Array.length s.conns - 1 do
    let c = s.conns.(i) in
    if c.inflight.count > 0 && fill c then collect s c ~now:(now_ns ()) ~on_reply
  done

(* Wait for every outstanding reply (up to [timeout_s]); what never
   arrives is dropped.  Returns the number dropped. *)
let drain s ~timeout_s ~on_reply =
  let limit = now_ns () + int_of_float (timeout_s *. 1e9) in
  while inflight s > 0 && now_ns () < limit && Array.exists (fun c -> not c.closed && c.inflight.count > 0) s.conns do
    poll s ~on_reply
  done;
  let dropped = inflight s in
  Array.iter
    (fun c ->
      while c.inflight.count > 0 do
        ignore (ring_pop c.inflight)
      done)
    s.conns;
  dropped

(* ---------- phases ---------- *)

type phase_result = {
  lat : float array;  (* us, every request sent in the phase *)
  lag : float array;  (* us, send lateness *)
  completions : int;  (* replies received before the phase ended *)
  elapsed_s : float;
  dropped : int;
}

type grow = { mutable a : float array; mutable n : int }

let grow () = { a = Array.make 128 0.0; n = 0 }

let add g x =
  if g.n = Array.length g.a then begin
    let a = Array.make (2 * g.n) 0.0 in
    Array.blit g.a 0 a 0 g.n;
    g.a <- a
  end;
  g.a.(g.n) <- x;
  g.n <- g.n + 1

let contents g = Array.sub g.a 0 g.n

(* The driver spins (yielding the CPU to any thread queued on it) only
   in the last [spin_ns] before a request is due; otherwise it blocks
   until a reply arrives.  A driver that spins all the time holds one of
   a 2-CPU host's cores, and the daemon's threads then wait whole
   scheduler slices for the other: milliseconds, in the tail. *)
let spin_ns = 50_000

let block s ns =
  Array.iter (fun c -> flush c) s.conns;
  let n = Array.length s.conns in
  wait_readable s.conns.(0).fd s.conns.(n - 1).fd ns

(* [next ()] yields the next stream element: a distinct request index
   and the connection to send it on.  A closed-loop phase ends early
   once [limit] requests were sent and answered. *)
let run_phase ?(limit = max_int) s ~next ~mode ~seconds =
  let lat = grow () and lag = grow () in
  let sent = ref 0 in
  let in_window = ref 0 in
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let on_reply _d l =
    add lat (float_of_int l /. 1000.);
    incr in_window
  in
  (match mode with
  | `Open rate ->
    let period = 1e9 /. rate in
    let k = ref 0 in
    let due () = t0 + int_of_float (float_of_int !k *. period) in
    let now = ref t0 in
    while !now < t_end do
      while due () <= !now && due () < t_end do
        let d, c = next () in
        send s c d ~due:(due ());
        add lag (float_of_int (!now - due ()) /. 1000.);
        incr k
      done;
      poll s ~on_reply;
      let wait = due () - now_ns () - spin_ns in
      if wait > 0 then block s wait;
      now := now_ns ()
    done
  | `Closed window ->
    (* Spin while replies keep coming; block once none came for
       [spin_ns]. *)
    let now = ref t0 and progress = ref t0 in
    while !now < t_end && (!sent < limit || inflight s > 0) do
      while inflight s < window && !sent < limit do
        let d, c = next () in
        send s c d ~due:!now;
        incr sent
      done;
      let before = s.completed in
      poll s ~on_reply;
      now := now_ns ();
      if s.completed > before then progress := !now
      else if !now - !progress > spin_ns then block s (min 1_000_000 (t_end - !now))
    done);
  let completions = !in_window in
  let elapsed_s = float_of_int (now_ns () - t0) /. 1e9 in
  let dropped = drain s ~timeout_s:10.0 ~on_reply:(fun _ l -> add lat (float_of_int l /. 1000.)) in
  { lat = contents lat; lag = contents lag; completions; elapsed_s; dropped }

(* Closed loop over a fixed list, outside any timed window (warm-up,
   store fill): every request once.  Returns the number dropped. *)
let run_list s ~items ~window =
  let i = ref 0 in
  let n = Array.length items in
  let noop _ _ = () in
  while !i < n do
    while !i < n && inflight s < window do
      let d, c = items.(!i) in
      send s c d ~due:(now_ns ());
      incr i
    done;
    poll s ~on_reply:noop
  done;
  drain s ~timeout_s:60.0 ~on_reply:noop

(* ---------- synchronous control requests ---------- *)

(* One request on a binary connection with nothing else in flight. *)
let call c (req : P.request) =
  let id = 0x7ffffff0 in
  push_string c.wbuf (Wire.encode_request ~id req);
  let limit = now_ns () + 30_000_000_000 in
  let rec wait () =
    flush c;
    if c.closed then Error "connection closed"
    else if now_ns () > limit then Error "no reply"
    else
      match next_reply c with
      | -1 ->
        ignore (fill c);
        wait ()
      | -2 -> Error "unframeable reply"
      | n -> (
        let r = Bytes.sub_string c.rbuf.data c.rbuf.start n in
        consume c n;
        match Wire.decode_response r with
        | Ok (Some rid, resp) when rid = id -> Ok resp
        | Ok _ -> Error "reply id mismatch"
        | Error e -> Error e)
  in
  wait ()

let stats c =
  match call c P.Stats with
  | Ok (P.Stats_r st) -> st
  | Ok _ -> failwith "stats: unexpected reply"
  | Error e -> failwith ("stats: " ^ e)

(* Linear-interpolated quantile of an unsorted sample, as Python's
   [statistics.quantiles] with the inclusive method. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
