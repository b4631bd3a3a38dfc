open Zgeom
open Lattice

type config = {
  width : int;
  height : int;
  prototile : Prototile.t;
  neighborhoods : (Vec.t -> Prototile.t) option;
  workload : Workload.spec;
  mac : Mac.factory;
  duration : int;
  seed : int64;
  energy_model : Energy.model;
  queue_capacity : int;
  capture : bool;
  loss_prob : float;
  trace : Trace.t option;
  faults : Faults.spec;
}

let default_config ~mac =
  {
    width = 10;
    height = 10;
    prototile = Prototile.chebyshev_ball ~dim:2 1;
    neighborhoods = None;
    workload = Workload.Periodic { interval = 50 };
    mac;
    duration = 2000;
    seed = 42L;
    energy_model = Energy.default;
    queue_capacity = 32;
    capture = false;
    loss_prob = 0.0;
    trace = None;
    faults = Faults.none;
  }

type result = {
  mac_name : string;
  num_nodes : int;
  stats : Stats.snapshot;
  drops : int;
  backlog : int;
  fairness : float;
  node_accounts : Energy.account array;
  deaths : (int * int) list;
  alive_at_end : int;
}

type event = Arrival of int (* node *)

let jain_index xs =
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0 else s *. s /. (float_of_int (Array.length xs) *. s2)

let run cfg =
  assert (cfg.width > 0 && cfg.height > 0 && cfg.duration >= 0);
  assert (0.0 <= cfg.loss_prob && cfg.loss_prob < 1.0);
  let n = cfg.width * cfg.height in
  let pos = Array.init n (fun i -> Vec.make2 (i mod cfg.width) (i / cfg.width)) in
  let index_of = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.add index_of v i) pos;
  (* reach.(i): grid nodes (other than i) inside i's interference range;
     heterogeneous deployments (D1) give each position its own prototile. *)
  let prototile_of =
    match cfg.neighborhoods with None -> fun _ -> cfg.prototile | Some f -> f
  in
  let reach =
    Array.init n (fun i ->
        List.filter_map
          (fun c ->
            match Hashtbl.find_opt index_of (Vec.add pos.(i) c) with
            | Some j when j <> i -> Some j
            | _ -> None)
          (Prototile.cells (prototile_of pos.(i))))
  in
  let root_rng = Prng.Xoshiro.create cfg.seed in
  let macs =
    Array.init n (fun i -> cfg.mac ~node_id:i ~pos:pos.(i) ~rng:(Prng.Xoshiro.split root_rng))
  in
  let gens = Array.init n (fun _ -> Workload.create cfg.workload (Prng.Xoshiro.split root_rng)) in
  let channel_rng = Prng.Xoshiro.split root_rng in
  (* The faults stream splits off last, so fault-free runs draw exactly
     the same per-node randomness as before the stream existed. *)
  let faults_rng = Prng.Xoshiro.split root_rng in
  let fault_events =
    ref (Faults.schedule cfg.faults ~rng:faults_rng ~num_nodes:n ~duration:cfg.duration)
  in
  let extra_cost =
    match cfg.faults.Faults.extra_cost with Some f -> f | None -> fun _ ~time:_ -> 0.0
  in
  let status = Array.make n `Alive in
  let accounts = Array.make n Energy.zero_account in
  let deaths = ref [] in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let stats = Stats.create () in
  let drops = ref 0 in
  let delivered_per_node = Array.make n 0.0 in
  let events : event Heap.t = Heap.create () in
  Array.iteri (fun i g -> Heap.push events (Workload.first_arrival g) (Arrival i)) gens;
  let busy_last = Array.make n false in
  let hitters = Array.make n [] in
  let trace e = match cfg.trace with Some t -> Trace.record t e | None -> () in
  let kill i ~time =
    if status.(i) <> `Dead then begin
      status.(i) <- `Dead;
      (* The node's buffered packets die with it; counting them as drops
         keeps arrivals = delivered + drops + backlog. *)
      drops := !drops + Queue.length queues.(i);
      Queue.clear queues.(i);
      deaths := (time, i) :: !deaths;
      trace (Trace.Died { node = i; time })
    end
  in
  for t = 0 to cfg.duration - 1 do
    (* 0. Scheduled faults (battery deaths are step 7, emergent). *)
    let rec apply_faults () =
      match !fault_events with
      | e :: rest when e.Faults.time <= t ->
        fault_events := rest;
        (match e.Faults.kind with
        | Faults.Death -> kill e.Faults.node ~time:t
        | Faults.Down -> if status.(e.Faults.node) = `Alive then status.(e.Faults.node) <- `Down
        | Faults.Up -> if status.(e.Faults.node) = `Down then status.(e.Faults.node) <- `Alive);
        apply_faults ()
      | _ -> ()
    in
    apply_faults ();
    (* 1. Deliver due arrival events.  Dead nodes stop sensing: their
       pending arrival is discarded and not rescheduled.  Down nodes
       keep sensing and queueing (only the radio is off). *)
    let rec drain () =
      match Heap.peek_key events with
      | Some k when k <= t ->
        (match Heap.pop events with
        | Some (_, Arrival i) ->
          if status.(i) <> `Dead then begin
            Stats.record_arrival stats;
            trace (Trace.Arrived { node = i; time = t });
            if Queue.length queues.(i) < cfg.queue_capacity then Queue.add t queues.(i)
            else begin
              incr drops;
              trace (Trace.Dropped { node = i; time = t })
            end;
            Heap.push events (Workload.next_arrival gens.(i) ~after:t) (Arrival i)
          end
        | None -> ());
        drain ()
      | _ -> ()
    in
    drain ();
    (* 2. MAC decisions (alive nodes only: down and dead radios are off). *)
    let transmitting = Array.make n false in
    let transmitters = ref [] in
    for i = 0 to n - 1 do
      if status.(i) = `Alive then begin
        let ctx =
          { Mac.time = t; has_packet = not (Queue.is_empty queues.(i));
            channel_busy_last = busy_last.(i) }
        in
        if ctx.Mac.has_packet && macs.(i).Mac.decide ctx then begin
          transmitting.(i) <- true;
          transmitters := i :: !transmitters
        end
      end
    done;
    (* 3. Propagation: which transmissions reach each node. *)
    Array.fill hitters 0 n [];
    List.iter (fun s -> List.iter (fun r -> hitters.(r) <- s :: hitters.(r)) reach.(s)) !transmitters;
    (* 4. Per-receiver decoding: a reception survives interference when
       the sender is the only hitter (or, with capture, the unique
       nearest); a surviving reception may still fade away. *)
    let survives_interference r s =
      (not transmitting.(r))
      &&
      match hitters.(r) with
      | [ s' ] -> s' = s
      | many when cfg.capture ->
        let d x = Vec.norm_inf (Vec.sub pos.(x) pos.(r)) in
        let ds = d s in
        List.for_all (fun x -> x = s || d x > ds) many
      | _ -> false
    in
    (* 5. Outcomes.  Intended receivers are the alive ones: a broadcast
       with every intended receiver gone counts as (vacuously)
       delivered. *)
    List.iter
      (fun s ->
        Stats.record_attempt stats;
        let interfered = ref 0 in
        let faded = ref 0 in
        List.iter
          (fun r ->
            if status.(r) = `Alive then
              if not (survives_interference r s) then incr interfered
              else if cfg.loss_prob > 0.0 && Prng.Xoshiro.bernoulli channel_rng cfg.loss_prob
              then incr faded)
          reach.(s);
        if !interfered = 0 && !faded = 0 then begin
          let created = Queue.pop queues.(s) in
          Stats.record_delivery stats ~latency:(t - created);
          delivered_per_node.(s) <- delivered_per_node.(s) +. 1.0;
          trace (Trace.Sent { node = s; time = t; outcome = `Delivered });
          macs.(s).Mac.feedback `Delivered
        end
        else begin
          if !interfered > 0 then Stats.record_collision stats else Stats.record_fade stats;
          Stats.record_receiver_loss stats (!interfered + !faded);
          trace
            (Trace.Sent
               { node = s; time = t; outcome = (if !interfered > 0 then `Collided else `Faded) });
          macs.(s).Mac.feedback `Collided
        end)
      !transmitters;
    (* 6. Carrier state and per-node energy (alive nodes only; every
       transmitter is alive, so hitters of an alive node are real). *)
    let slot_total = ref 0.0 in
    for i = 0 to n - 1 do
      if status.(i) = `Alive then begin
        busy_last.(i) <- hitters.(i) <> [] || transmitting.(i);
        let role =
          if transmitting.(i) then `Tx else if hitters.(i) <> [] then `Rx else `Idle
        in
        let extra = extra_cost pos.(i) ~time:t in
        let before = accounts.(i).Energy.consumed in
        accounts.(i) <- Energy.charge cfg.energy_model accounts.(i) role ~extra;
        slot_total := !slot_total +. (accounts.(i).Energy.consumed -. before)
      end
      else busy_last.(i) <- false
    done;
    Stats.add_energy stats !slot_total;
    (* 7. Battery depletion: a node whose account crosses the capacity
       dies at the end of the slot. *)
    (match cfg.faults.Faults.battery with
    | None -> ()
    | Some capacity ->
      for i = 0 to n - 1 do
        if status.(i) <> `Dead && accounts.(i).Energy.consumed >= capacity then kill i ~time:t
      done)
  done;
  let backlog = Array.fold_left (fun acc q -> acc + Queue.length q) 0 queues in
  let mac_name = if n > 0 then macs.(0).Mac.name else "none" in
  let alive_at_end =
    Array.fold_left (fun acc st -> if st <> `Dead then acc + 1 else acc) 0 status
  in
  { mac_name; num_nodes = n; stats = Stats.snapshot stats; drops = !drops; backlog;
    fairness = jain_index delivered_per_node; node_accounts = accounts;
    deaths = List.rev !deaths; alive_at_end }

let pp_result fmt r =
  Format.fprintf fmt "@[<v>%s (%d nodes): %a drops=%d backlog=%d fairness=%.3f%t@]" r.mac_name
    r.num_nodes Stats.pp_snapshot r.stats r.drops r.backlog r.fairness (fun fmt ->
      if r.deaths <> [] then
        Format.fprintf fmt " deaths=%d alive=%d" (List.length r.deaths) r.alive_at_end)

let conservation_ok r =
  r.stats.Stats.arrivals = r.stats.Stats.delivered + r.drops + r.backlog

let energy_conservation_ok ?(eps = 1e-9) model r =
  let per_node_ok =
    Array.for_all (fun acc -> Energy.account_consistent ~eps model acc) r.node_accounts
  in
  let total =
    Array.fold_left (fun s acc -> s +. acc.Energy.consumed) 0.0 r.node_accounts
  in
  per_node_ok
  && Float.abs (total -. r.stats.Stats.energy) <= eps *. (1.0 +. Float.abs total)

let first_death r = match r.deaths with [] -> None | (t, _) :: _ -> Some t

let run_sweep ?pool ?trace_of cfg ~seeds =
  let pool = match pool with Some pl -> pl | None -> Parallel.default () in
  (* Runs are independent (all state is created inside [run], randomness
     comes from per-node streams split off the run seed), so seeds can go
     to separate domains.  A trace sink is the one piece of cross-run
     mutable state, so the shared [cfg.trace] is ignored; [trace_of]
     supplies a per-seed sink instead, giving each run a single-writer
     log - sweeps with traces stay deterministic. *)
  let trace_of = match trace_of with Some f -> f | None -> fun _ -> None in
  Parallel.map pool (fun seed -> run { cfg with seed; trace = trace_of seed }) seeds
