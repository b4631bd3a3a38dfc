(* A generation-stamped batch dispatcher: workers park on [start] between
   batches; a batch bumps [generation], publishes the task under the
   mutex, and everyone (submitter included) pulls indices from one atomic
   counter.  The maps below use it only to start one work-stealing
   worker loop per domain ([Steal.run]). *)

type pool = {
  pool_jobs : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable generation : int;
  mutable task : (int -> unit) option;
  mutable limit : int;
  next : int Atomic.t;
  mutable active : int;  (* workers still draining the current batch *)
  mutable stop : bool;
  mutable busy : bool;  (* a batch is in flight; re-entry runs inline *)
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
}

let jobs p = p.pool_jobs

(* Pull indices until the batch is exhausted (or poisoned by a failure;
   the unsynchronized read of [failure] is only an early-exit hint). *)
let drain pool f n =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add pool.next 1 in
    if i >= n || pool.failure <> None then continue := false
    else
      try f i
      with e ->
        Mutex.lock pool.mutex;
        if pool.failure = None then pool.failure <- Some e;
        Mutex.unlock pool.mutex
  done

let rec worker_loop pool my_gen =
  Mutex.lock pool.mutex;
  while pool.generation = my_gen && not pool.stop do
    Condition.wait pool.start pool.mutex
  done;
  if pool.stop then Mutex.unlock pool.mutex
  else begin
    let gen = pool.generation in
    (* [task] is always set before workers are woken; matching instead of
       [Option.get] keeps the mutex release unconditional. *)
    let f = match pool.task with Some f -> f | None -> assert false in
    let n = pool.limit in
    Mutex.unlock pool.mutex;
    drain pool f n;
    Mutex.lock pool.mutex;
    pool.active <- pool.active - 1;
    if pool.active = 0 then Condition.broadcast pool.finished;
    Mutex.unlock pool.mutex;
    worker_loop pool gen
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Parallel.create: jobs must be >= 1";
  let pool =
    { pool_jobs = jobs; mutex = Mutex.create (); start = Condition.create ();
      finished = Condition.create (); generation = 0; task = None; limit = 0;
      next = Atomic.make 0; active = 0; stop = false; busy = false; failure = None;
      domains = [] }
  in
  if jobs > 1 then
    pool.domains <-
      List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.start;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let run_inline f n =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for pool ~n f =
  if n <= 0 then ()
  else if pool.pool_jobs = 1 || n = 1 || pool.domains = [] then run_inline f n
  else begin
    Mutex.lock pool.mutex;
    if pool.busy then begin
      (* Re-entrant (or concurrent) submission: stay correct, run inline. *)
      Mutex.unlock pool.mutex;
      run_inline f n
    end
    else begin
      pool.busy <- true;
      pool.task <- Some f;
      pool.limit <- n;
      Atomic.set pool.next 0;
      pool.failure <- None;
      pool.active <- List.length pool.domains;
      pool.generation <- pool.generation + 1;
      Condition.broadcast pool.start;
      Mutex.unlock pool.mutex;
      drain pool f n;
      Mutex.lock pool.mutex;
      while pool.active > 0 do
        Condition.wait pool.finished pool.mutex
      done;
      pool.task <- None;
      pool.busy <- false;
      let failure = pool.failure in
      pool.failure <- None;
      Mutex.unlock pool.mutex;
      match failure with Some e -> raise e | None -> ()
    end
  end

(* ---------- the work-stealing scheduler ---------- *)

(* Determinism is by construction: every task and every result chunk
   carries a canonical path key (branch positions from the search root),
   and the merge sorts chunks by key before concatenating.  Stealing
   moves tasks between domains, so it changes *who* computes a chunk and
   in what real-time order - never where the chunk lands in the output.
   The deques can therefore be plain mutex-protected structures: the
   Chase-Lev access pattern (owner pops newest at the bottom, thieves
   take oldest at the top) is kept for its locality and
   biggest-subtree-first stealing heuristic, not for lock-freedom. *)

let compare_path (a : int list) (b : int list) =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1 (* a prefix sorts before its extensions *)
    | _ :: _, [] -> 1
    | x :: a', y :: b' -> if x <> y then Stdlib.compare x y else go a' b'
  in
  go a b

module Steal = struct
  (* One deque per worker slot.  [items] holds the bottom (owner end) at
     the head; thieves scan to the last element (the oldest, shallowest
     task - the one most likely to hold the biggest subtree).  [size] is
     written under the lock but may be read without it: it is only a
     splitting heuristic, never a correctness input. *)
  type 'a deque = { dq_mutex : Mutex.t; mutable items : 'a list; mutable size : int }

  type 'a state = {
    s_jobs : int;
    deques : 'a task_t deque array;
    hungry : int Atomic.t; (* thieves currently scanning for work *)
    outstanding : int Atomic.t; (* tasks spawned but not yet finished *)
    res_mutex : Mutex.t;
    mutable chunks : (int list * 'a) list list; (* per-task chunk lists *)
    mutable s_failure : exn option;
    s_victim : thief:int -> round:int -> victims:int -> int;
  }

  and 'a ctx = { st : 'a state; worker : int }
  and 'a task_t = int list * ('a ctx -> (int list * 'a) list)

  let new_deque () = { dq_mutex = Mutex.create (); items = []; size = 0 }

  let push_bottom d t =
    Mutex.lock d.dq_mutex;
    d.items <- t :: d.items;
    d.size <- d.size + 1;
    Mutex.unlock d.dq_mutex

  let pop_bottom d =
    Mutex.lock d.dq_mutex;
    let r =
      match d.items with
      | [] -> None
      | t :: rest ->
        d.items <- rest;
        d.size <- d.size - 1;
        Some t
    in
    Mutex.unlock d.dq_mutex;
    r

  (* Steal the oldest task: drop the last element of [items]. *)
  let steal_top d =
    Mutex.lock d.dq_mutex;
    let r =
      match d.items with
      | [] -> None
      | items ->
        let rec split acc = function
          | [ last ] -> (List.rev acc, last)
          | x :: tl -> split (x :: acc) tl
          | [] -> assert false
        in
        let rest, last = split [] items in
        d.items <- rest;
        d.size <- d.size - 1;
        Some last
    in
    Mutex.unlock d.dq_mutex;
    r

  let should_split ctx =
    ctx.st.s_jobs > 1
    && Atomic.get ctx.st.hungry > 0
    && ctx.st.deques.(ctx.worker).size = 0

  let spawn ctx ~key body =
    Atomic.incr ctx.st.outstanding;
    push_bottom ctx.st.deques.(ctx.worker) (key, body)

  let record_failure st e =
    Mutex.lock st.res_mutex;
    if st.s_failure = None then st.s_failure <- Some e;
    Mutex.unlock st.res_mutex

  let failed st =
    (* Unsynchronized read: an early-exit hint, like the pool's. *)
    st.s_failure <> None

  let exec st ctx ((_, body) : 'a task_t) =
    (try
       let chunks = body ctx in
       Mutex.lock st.res_mutex;
       st.chunks <- chunks :: st.chunks;
       Mutex.unlock st.res_mutex
     with e -> record_failure st e);
    Atomic.decr st.outstanding

  (* Worker [w]: drain own deque bottom-first; when empty, raise the
     hungry flag (which is what makes running owners split) and scan
     other deques under the victim policy until a steal succeeds or all
     tasks in the system have finished. *)
  let worker_loop st w =
    let ctx = { st; worker = w } in
    let hungry_flag = ref false in
    let settle () =
      if !hungry_flag then begin
        Atomic.decr st.hungry;
        hungry_flag := false
      end
    in
    let round = ref 0 in
    let running = ref true in
    while !running do
      match pop_bottom st.deques.(w) with
      | Some t ->
        settle ();
        round := 0;
        exec st ctx t
      | None ->
        if Atomic.get st.outstanding = 0 || failed st then begin
          settle ();
          running := false
        end
        else begin
          if not !hungry_flag then begin
            Atomic.incr st.hungry;
            hungry_flag := true
          end;
          let victims = st.s_jobs - 1 in
          if victims = 0 then Domain.cpu_relax ()
          else begin
            let k = st.s_victim ~thief:w ~round:!round ~victims in
            incr round;
            let k = ((k mod victims) + victims) mod victims in
            let v = if k >= w then k + 1 else k in
            match steal_top st.deques.(v) with
            | Some t ->
              settle ();
              round := 0;
              exec st ctx t
            | None -> Domain.cpu_relax ()
          end
        end
    done

  let default_victim ~thief:_ ~round ~victims = round mod victims

  (* LPT seeding: place the heaviest task first, each on the currently
     lightest deque (ties to the lowest worker index).  Pure placement -
     the keyed merge makes the output independent of it. *)
  let seed_deques st tasks weights =
    let n = Array.length tasks in
    let order = Array.init n Fun.id in
    (match weights with
    | None -> ()
    | Some w ->
      if Array.length w <> n then
        invalid_arg "Parallel.Steal.run: weights length must match tasks";
      Array.sort
        (fun i j -> if w.(i) <> w.(j) then Stdlib.compare w.(j) w.(i) else Stdlib.compare i j)
        order);
    let load = Array.make st.s_jobs 0.0 in
    Array.iter
      (fun i ->
        let tgt = ref 0 in
        for d = 1 to st.s_jobs - 1 do
          if load.(d) < load.(!tgt) then tgt := d
        done;
        load.(!tgt) <-
          load.(!tgt) +. (match weights with None -> 1.0 | Some w -> max w.(i) 1e-9);
        push_bottom st.deques.(!tgt) tasks.(i))
      order

  let run pool ?(victim = default_victim) ?weights tasks =
    let n = Array.length tasks in
    if n = 0 then []
    else begin
      let jobs = pool.pool_jobs in
      let st =
        { s_jobs = jobs;
          deques = Array.init jobs (fun _ -> new_deque ());
          hungry = Atomic.make 0;
          outstanding = Atomic.make n;
          res_mutex = Mutex.create ();
          chunks = [];
          s_failure = None;
          s_victim = victim }
      in
      seed_deques st tasks weights;
      (* One worker loop per slot.  Under re-entrant submission
         [parallel_for] degrades to inline: slot 0 then drains every
         deque (stealing its way through them) and the rest exit
         immediately - same output, no parallelism. *)
      parallel_for pool ~n:jobs (fun w -> worker_loop st w);
      match st.s_failure with
      | Some e -> raise e
      | None ->
        List.stable_sort
          (fun (ka, _) (kb, _) -> compare_path ka kb)
          (List.concat st.chunks)
    end
end

(* ---------- fork/join maps ---------- *)

(* [jobs = 1] runs inline; otherwise one stealing task per element (no
   splitting), so uneven per-element costs balance across the deques.
   Chunks are keyed by index, so either way the output is index-ordered. *)
let map_array pool f xs =
  let n = Array.length xs in
  if pool.pool_jobs <= 1 || n = 0 then Array.map f xs
  else begin
    let tasks = Array.init n (fun i -> ([ i ], fun _ctx -> [ ([ i ], f xs.(i)) ])) in
    let out = Array.of_list (List.map snd (Steal.run pool tasks)) in
    assert (Array.length out = n);
    out
  end

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))
let filter_map pool f xs = List.filter_map Fun.id (map pool f xs)
let concat_map pool f xs = List.concat (map pool f xs)

(* ---------- the process-wide default pool ---------- *)

let env_jobs () =
  match Sys.getenv_opt "TILESCHED_JOBS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with Some j when j >= 1 -> j | _ -> 1)

let default_jobs = ref (env_jobs ())
let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create ~jobs:!default_jobs in
    default_pool := Some p;
    p

let set_default_jobs j =
  if j < 1 then invalid_arg "Parallel.set_default_jobs: jobs must be >= 1";
  (match !default_pool with
  | Some p when p.pool_jobs <> j ->
    shutdown p;
    default_pool := None
  | _ -> ());
  default_jobs := j
