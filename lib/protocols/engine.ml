module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Obs = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters
module Placement = Rumor_agents.Placement
module Pool = Rumor_par.Pool
module Par = Rumor_par.Parallel_for

(* The synchronous round kernels over flat state: a Bitset per informed set
   (1 bit per vertex or agent), a dense frontier/position array, and
   growable Curve_buf curves, so per-run memory is O(n + m + rounds run)
   words and the inner loops touch only flat arrays.

   Determinism contract (extends PR 5's replication contract to intra-round
   parallelism):

   - [shards = 1] (the default) consumes the caller's [rng] in one fixed
     order, so every field of the result — curves, contact counts, tau
     arrays, observation streams — is a pure function of the seed.  The
     golden fixture (test/golden_digests.ml) pins this order.

   - [shards = S > 1] re-keys randomness per round: the round's random
     choices are drawn from [Rng.split_n rng S], child [s] covering the
     [s]-th contiguous shard of the frontier (Parallel_for geometry), and
     all state updates happen in a sequential merge pass in frontier order
     after the shards join.  The result is a pure function of (seed, S) —
     the pool's [--jobs] degree only schedules work and can never change a
     bit of the output. *)

let get_pool = function Some p -> p | None -> Pool.create ~jobs:1

(* Tracing shims.  Hot round loops go through these instead of
   [Trace.with_span] so that a disabled run ([trace = None]) stays
   allocation-free: each shim is a bare option match, and the [~arg:...]
   [Some] cell for span payloads is only built inside the [Some] branch.
   The disabled path is pinned by an allocation test in test/test_engine.ml. *)

let[@inline] span_begin trace name =
  match trace with None -> () | Some tr -> Trace.begin_span tr name

let[@inline] span_begin_arg trace name arg =
  match trace with None -> () | Some tr -> Trace.begin_span tr ~arg name

let[@inline] span_end trace =
  match trace with None -> () | Some tr -> Trace.end_span tr

let contact_buckets =
  [| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]

(* Closes the round span, samples the informed-count series, and bumps the
   scalar registry (rounds, contacts, contacts-per-round histogram). *)
let[@inline] trace_round_end trace ~informed ~contacts_delta =
  match trace with
  | None -> ()
  | Some tr ->
      Trace.end_span tr;
      Trace.counter tr "informed" informed;
      let cs = Trace.counters tr in
      Counters.incr (Counters.counter cs "rounds");
      Counters.add (Counters.counter cs "contacts") contacts_delta;
      Counters.observe
        (Counters.histogram cs "contacts_per_round" ~buckets:contact_buckets)
        (float_of_int contacts_delta)

let check_common ~who ~n ~source ~max_rounds ~shards =
  if source < 0 || source >= n then invalid_arg (who ^ ": source out of range");
  if max_rounds < 0 then invalid_arg (who ^ ": negative round cap");
  if shards < 1 then invalid_arg (who ^ ": shards < 1")

(* An optional per-vertex informing-round output: every vertex starts
   uninformed ([max_int]) except the source, informed at round 0. *)
let init_tau ~who ~n ~source = function
  | Some tau ->
      if Array.length tau <> n then invalid_arg (who ^ ": tau length <> n");
      Array.fill tau 0 n max_int;
      tau.(source) <- 0
  | None -> ()

(* ------------------------------------------------------------------ push *)

(* lint: hot *)
let push ?traffic ?obs ?trace ?(failure_prob = 0.0) ?tau ?(shards = 1) ?pool
    rng g ~source ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.push" ~n ~source ~max_rounds ~shards;
  if not (failure_prob >= 0.0 && failure_prob < 1.0) then
    invalid_arg "Engine.push: failure_prob outside [0, 1)";
  init_tau ~who:"Engine.push" ~n ~source tau;
  let informed = Bitset.create n in
  (* order.(0 .. count-1) lists informed vertices in informing order; the
     first [active] of them push this round *)
  let order = Array.make n 0 in
  Bitset.add informed source;
  order.(0) <- source;
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  let want_failures = not (Float.equal failure_prob 0.0) in
  (* one contact's worth of merge, shared by both paths *)
  let deliver ~round u v delivered =
    incr contacts;
    Obs.contact obs u v;
    (match traffic with Some tr -> Traffic.record tr u v | None -> ());
    if delivered && not (Bitset.mem informed v) then begin
      Bitset.add informed v;
      (match tau with Some tau -> tau.(v) <- round | None -> ());
      order.(!count) <- v;
      incr count
    end
  in
  if shards = 1 then
    while !count < n && !t < max_rounds do
      incr t;
      Obs.round_start obs !t;
      span_begin_arg trace "push.round" !t;
      let c0 = !contacts in
      let active = !count in
      for i = 0 to active - 1 do
        let u = order.(i) in
        let v = Graph.random_neighbor g rng u in
        let delivered = (not want_failures) || not (Rng.bernoulli rng failure_prob) in
        deliver ~round:!t u v delivered
      done;
      Curve_buf.push curve !count;
      trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
      Obs.round_end obs ~round:!t ~informed:!count ~contacts:!contacts
    done
  else begin
    let pool = get_pool pool in
    let picks = Array.make n 0 in
    let failed = if want_failures then Bytes.make n '\000' else Bytes.empty in
    while !count < n && !t < max_rounds do
      incr t;
      Obs.round_start obs !t;
      span_begin_arg trace "push.round" !t;
      let c0 = !contacts in
      let active = !count in
      let rngs = Rng.split_n rng shards in
      (* shards read only the frozen active prefix of [order] and write
         disjoint slots of [picks]/[failed]; all shared-state updates wait
         for the sequential merge below *)
      let (_ : unit array) =
        Par.parallel_for ?trace ~label:"push.draw" pool ~n:active ~shards (* lint: allow R10 — label Some + shard closure: per round, not per contact *)
          (fun ~shard ~lo ~hi ->
            let r = rngs.(shard) in
            for i = lo to hi - 1 do
              picks.(i) <- Graph.random_neighbor g r order.(i);
              if want_failures then
                Bytes.set failed i (if Rng.bernoulli r failure_prob then '\001' else '\000')
            done)
      in
      span_begin trace "push.merge";
      for i = 0 to active - 1 do
        let delivered = (not want_failures) || Char.code (Bytes.get failed i) = 0 in
        deliver ~round:!t order.(i) picks.(i) delivered
      done;
      span_end trace;
      Curve_buf.push curve !count;
      trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
      Obs.round_end obs ~round:!t ~informed:!count ~contacts:!contacts
    done
  end;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* ------------------------------------------------------------- push-pull *)

(* lint: hot *)
let push_pull ?traffic ?obs ?trace ?(shards = 1) ?pool rng g ~source
    ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.push_pull" ~n ~source ~max_rounds ~shards;
  (* [before] is the informed set at the top of the round (the snapshot the
     push/pull eligibility test reads); [informed] is live *)
  let informed = Bitset.create n in
  let before = Bitset.create n in
  Bitset.add informed source;
  let count = ref 1 in
  let contacts = ref 0 in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let t = ref 0 in
  let exchange u v =
    incr contacts;
    Obs.contact obs u v;
    (match traffic with Some tr -> Traffic.record tr u v | None -> ());
    let u_before = Bitset.mem before u and v_before = Bitset.mem before v in
    if u_before && not (Bitset.mem informed v) then begin
      Bitset.add informed v;
      incr count
    end
    else if v_before && not (Bitset.mem informed u) then begin
      Bitset.add informed u;
      incr count
    end
  in
  if shards = 1 then
    while !count < n && !t < max_rounds do
      incr t;
      let round = !t in
      Obs.round_start obs round;
      span_begin_arg trace "push_pull.round" round;
      let c0 = !contacts in
      Bitset.snapshot ~src:informed ~dst:before;
      for u = 0 to n - 1 do
        exchange u (Graph.random_neighbor g rng u)
      done;
      Curve_buf.push curve !count;
      trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
      Obs.round_end obs ~round ~informed:!count ~contacts:!contacts
    done
  else begin
    let pool = get_pool pool in
    let picks = Array.make n 0 in
    while !count < n && !t < max_rounds do
      incr t;
      let round = !t in
      Obs.round_start obs round;
      span_begin_arg trace "push_pull.round" round;
      let c0 = !contacts in
      let rngs = Rng.split_n rng shards in
      let (_ : unit array) =
        Par.parallel_for ?trace ~label:"push_pull.draw" pool ~n ~shards (* lint: allow R10 — label Some + shard closure: per round, not per contact *)
          (fun ~shard ~lo ~hi ->
            let r = rngs.(shard) in
            for u = lo to hi - 1 do
              picks.(u) <- Graph.random_neighbor g r u
            done)
      in
      span_begin trace "push_pull.merge";
      Bitset.snapshot ~src:informed ~dst:before;
      for u = 0 to n - 1 do
        exchange u picks.(u)
      done;
      span_end trace;
      Curve_buf.push curve !count;
      trace_round_end trace ~informed:!count ~contacts_delta:(!contacts - c0);
      Obs.round_end obs ~round ~informed:!count ~contacts:!contacts
    done
  end;
  let rounds_run = !t in
  let broadcast_time = if !count = n then Some rounds_run else None in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* --------------------------------------------------------- walker motion *)

let place_agents ~who rng g agents =
  let pos = Placement.place rng agents g in
  if Array.length pos = 0 then invalid_arg (who ^ ": no agents");
  (* a graph with positive min degree (O(1): cached degree stats) cannot
     hold an isolated vertex, so the O(k) per-agent scan is pure overhead *)
  if Graph.min_degree g = 0 then
    Array.iter
      (fun v ->
        if Graph.degree g v = 0 then invalid_arg (who ^ ": agent on isolated vertex"))
      pos;
  pos

(* One synchronized walker round over a flat position array, consuming [rng]
   in exactly Walkers.step's order: per agent, the lazy coin (if lazy) then
   the neighbor draw. *)
(* lint: hot *)
let move_agents_seq ?traffic ?obs ~lazy_walk rng g pos =
  for a = 0 to Array.length pos - 1 do
    let u = pos.(a) in
    let v =
      if lazy_walk && Rng.bool rng then u else Graph.random_neighbor g rng u
    in
    pos.(a) <- v;
    (match traffic with
    | Some tr when v <> u -> Traffic.record tr u v
    | _ -> ());
    Obs.walker_move obs ~agent:a ~from_:u ~to_:v
  done

(* Sharded variant: destinations are drawn into [moves] with one split child
   per shard, then applied (and reported) sequentially in agent order. *)
(* lint: hot *)
let move_agents_sharded ?traffic ?obs ?trace ~lazy_walk ~shards pool rng g pos
    moves =
  let k = Array.length pos in
  let rngs = Rng.split_n rng shards in
  let (_ : unit array) =
    Par.parallel_for ?trace ~label:"walk.draw" pool ~n:k ~shards
      (fun ~shard ~lo ~hi ->
        let r = rngs.(shard) in
        for a = lo to hi - 1 do
          let u = pos.(a) in
          moves.(a) <-
            (if lazy_walk && Rng.bool r then u else Graph.random_neighbor g r u)
        done)
  in
  span_begin trace "walk.apply";
  for a = 0 to k - 1 do
    let u = pos.(a) and v = moves.(a) in
    pos.(a) <- v;
    (match traffic with
    | Some tr when v <> u -> Traffic.record tr u v
    | _ -> ());
    Obs.walker_move obs ~agent:a ~from_:u ~to_:v
  done;
  span_end trace

(* -------------------------------------------------------- visit-exchange *)

(* Count-compressed VE round loop: walker state lives in Sparse_walkers'
   per-vertex (uninformed, informed) counts, so both spread phases are
   O(occupied) sweeps.  Not bit-identical to the dense kernel (agent
   identity is erased; A10 gates the distributional agreement); fires the
   aggregate occupancy hook instead of per-agent contact/walker_move. *)
(* lint: hot *)
let visit_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let n = Graph.n g in
  let w =
    Sparse_walkers.create ~who:"Engine.visit_exchange" ~lazy_walk rng g agents
  in
  let k = Sparse_walkers.agent_count w in
  let vertex_informed = Bitset.create n in
  Bitset.add vertex_informed source;
  let informed_vertices = ref 1 in
  (* round 0: every walker standing on the source is informed *)
  let informed_agents = ref (Sparse_walkers.inform_all_at w source) in
  let contacts = ref !informed_agents in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let all_agents_round = ref (if !informed_agents = k then 0 else -1) in
  let last_vertex_round = ref 0 in
  let t = ref 0 in
  while (!informed_vertices < n || !all_agents_round < 0) && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "visit_exchange.round" round;
    let c0 = !contacts in
    span_begin trace "walk";
    Sparse_walkers.step rng w;
    span_end trace;
    span_begin trace "spread";
    let occ = Sparse_walkers.occupied_count w in
    (* phase 2: a vertex holding a walker informed in a previous round gets
       informed (conversions below only land in the informed counts after
       this sweep, so they cannot inform a vertex until next round) *)
    for i = 0 to occ - 1 do
      let v = Sparse_walkers.occupied_vertex w i in
      if
        Sparse_walkers.informed_at w v > 0
        && not (Bitset.mem vertex_informed v)
      then begin
        Bitset.add vertex_informed v;
        incr informed_vertices;
        incr contacts;
        last_vertex_round := round
      end
    done;
    (* phase 3: every walker standing on an informed vertex is informed *)
    for i = 0 to occ - 1 do
      let v = Sparse_walkers.occupied_vertex w i in
      if Bitset.mem vertex_informed v then begin
        let c = Sparse_walkers.inform_all_at w v in
        informed_agents := !informed_agents + c;
        contacts := !contacts + c
      end
    done;
    span_end trace;
    Obs.occupancy obs ~round ~occupied:occ ~walkers:k;
    if !informed_agents = k && !all_agents_round < 0 then
      all_agents_round := round;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some !last_vertex_round else None
  in
  let all_agents_informed =
    if !all_agents_round < 0 then None else Some !all_agents_round
  in
  Run_result.make ~all_agents_informed ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* lint: hot *)
let visit_exchange_dense ?traffic ?obs ?trace ?tau ~lazy_walk ~shards ?pool rng
    g ~source ~agents ~max_rounds () =
  let n = Graph.n g in
  let pos = place_agents ~who:"Engine.visit_exchange" rng g agents in
  let k = Array.length pos in
  let vertex_informed = Bitset.create n in
  let agent_informed = Bitset.create k in
  let agent_before = Bitset.create k in
  let contacts = ref 0 in
  (* round 0: the source is informed, and so is every agent standing on it *)
  Bitset.add vertex_informed source;
  let informed_vertices = ref 1 in
  let informed_agents = ref 0 in
  for a = 0 to k - 1 do
    if pos.(a) = source then begin
      Bitset.add agent_informed a;
      incr informed_agents;
      incr contacts
    end
  done;
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  (* -1 = not all informed yet; an int sentinel instead of [int option ref]
     so flipping it in the round loop never allocates a [Some] cell *)
  let all_agents_round = ref (if !informed_agents = k then 0 else -1) in
  (* the round the most recent vertex was informed; its final value is the
     completion round when all vertices end up informed *)
  let last_vertex_round = ref 0 in
  let moves = if shards = 1 then [||] else Array.make k 0 in
  let pool = if shards = 1 then None else Some (get_pool pool) in
  let t = ref 0 in
  while (!informed_vertices < n || !all_agents_round < 0) && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "visit_exchange.round" round;
    let c0 = !contacts in
    (* phase 1: all agents step in parallel *)
    (match pool with
    | None ->
        span_begin trace "walk";
        move_agents_seq ?traffic ?obs ~lazy_walk rng g pos;
        span_end trace
    | Some pool ->
        move_agents_sharded ?traffic ?obs ?trace ~lazy_walk ~shards pool rng g
          pos moves);
    span_begin trace "spread";
    (* phase 2: agents informed in a previous round inform their vertex *)
    Bitset.snapshot ~src:agent_informed ~dst:agent_before;
    for a = 0 to k - 1 do
      if Bitset.mem agent_before a then begin
        let v = pos.(a) in
        if not (Bitset.mem vertex_informed v) then begin
          Bitset.add vertex_informed v;
          (match tau with Some tau -> tau.(v) <- round | None -> ());
          incr informed_vertices;
          incr contacts;
          last_vertex_round := round;
          Obs.contact obs a v
        end
      end
    done;
    (* phase 3: uninformed agents standing on an informed vertex (informed
       in any round <= this one) become informed *)
    for a = 0 to k - 1 do
      if (not (Bitset.mem agent_informed a)) && Bitset.mem vertex_informed pos.(a)
      then begin
        Bitset.add agent_informed a;
        incr informed_agents;
        incr contacts;
        Obs.contact obs pos.(a) a
      end
    done;
    span_end trace;
    if !informed_agents = k && !all_agents_round < 0 then
      all_agents_round := round;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some !last_vertex_round else None
  in
  let all_agents_informed =
    if !all_agents_round < 0 then None else Some !all_agents_round
  in
  Run_result.make ~all_agents_informed ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

let visit_exchange ?traffic ?obs ?trace ?(lazy_walk = false)
    ?(walkers = Sparse_walkers.Dense) ?tau ?(shards = 1) ?pool rng g ~source
    ~agents ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.visit_exchange" ~n ~source ~max_rounds ~shards;
  init_tau ~who:"Engine.visit_exchange" ~n ~source tau;
  if Sparse_walkers.use_sparse walkers agents g then begin
    if Option.is_some traffic then
      invalid_arg "Engine.visit_exchange: traffic recording requires dense walkers";
    if Option.is_some tau then
      invalid_arg "Engine.visit_exchange: tau recording requires dense walkers";
    visit_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
      ~max_rounds ()
  end
  else
    visit_exchange_dense ?traffic ?obs ?trace ?tau ~lazy_walk ~shards ?pool rng
      g ~source ~agents ~max_rounds ()

(* --------------------------------------------------------- meet-exchange *)

(* Count-compressed ME round loop.  A meeting needs >= 1 previously informed
   and >= 1 uninformed walker on the same vertex — exactly what the two
   count arrays expose, because conversions only enter the informed counts
   after the sweep (so "previously informed" is whatever the informed array
   holds right after the scatter).  Source hand-off converts everyone on a
   still-active source, matching the dense kernel. *)
(* lint: hot *)
let meet_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
    ~max_rounds () =
  let w =
    Sparse_walkers.create ~who:"Engine.meet_exchange" ~lazy_walk rng g agents
  in
  let k = Sparse_walkers.agent_count w in
  (* round 0: walkers standing on the source are informed *)
  let informed = ref (Sparse_walkers.inform_all_at w source) in
  let contacts = ref !informed in
  let source_active = ref (!informed = 0) in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve !informed;
  let t = ref 0 in
  while !informed < k && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "meet_exchange.round" round;
    let c0 = !contacts in
    span_begin trace "walk";
    Sparse_walkers.step rng w;
    span_end trace;
    span_begin trace "spread";
    let occ = Sparse_walkers.occupied_count w in
    for i = 0 to occ - 1 do
      let v = Sparse_walkers.occupied_vertex w i in
      if !source_active && v = source then begin
        (* hand-off: the first walkers to visit the source all pick the
           rumor up, informed companions or not *)
        let c = Sparse_walkers.inform_all_at w v in
        informed := !informed + c;
        contacts := !contacts + c;
        source_active := false
      end
      else if Sparse_walkers.informed_at w v > 0 then begin
        let c = Sparse_walkers.inform_all_at w v in
        informed := !informed + c;
        contacts := !contacts + c
      end
    done;
    span_end trace;
    Obs.occupancy obs ~round ~occupied:occ ~walkers:k;
    Curve_buf.push curve !informed;
    trace_round_end trace ~informed:!informed ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !informed = k then Some rounds_run else None in
  Run_result.make ~all_agents_informed:broadcast_time ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

(* lint: hot *)
let meet_exchange_dense ?traffic ?obs ?trace ~lazy_walk ~shards ?pool rng g
    ~source ~agents ~max_rounds () =
  let n = Graph.n g in
  let pos = place_agents ~who:"Engine.meet_exchange" rng g agents in
  let k = Array.length pos in
  let agent_informed = Bitset.create k in
  let agent_before = Bitset.create k in
  (* counting-sort buckets, same layout and (stable) agent order as
     Walkers.Buckets, with the cursor array reused across rounds *)
  let starts = Array.make (n + 1) 0 in
  let cursor = Array.make (n + 1) 0 in
  let ids = Array.make k 0 in
  let refresh_buckets () =
    Array.fill starts 0 (n + 1) 0;
    Array.iter (fun v -> starts.(v + 1) <- starts.(v + 1) + 1) pos;
    for v = 0 to n - 1 do
      starts.(v + 1) <- starts.(v + 1) + starts.(v)
    done;
    Array.blit starts 0 cursor 0 (n + 1);
    Array.iteri
      (fun a v ->
        ids.(cursor.(v)) <- a;
        cursor.(v) <- cursor.(v) + 1)
      pos
  in
  let contacts = ref 0 in
  let informed = ref 0 in
  (* round 0: agents standing on the source are informed *)
  for a = 0 to k - 1 do
    if pos.(a) = source then begin
      Bitset.add agent_informed a;
      incr informed;
      incr contacts;
      Obs.contact obs source a
    end
  done;
  let source_active = ref (!informed = 0) in
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve !informed;
  let moves = if shards = 1 then [||] else Array.make k 0 in
  let pool = if shards = 1 then None else Some (get_pool pool) in
  (* hoisted out of the per-vertex meeting scan below: a fresh [ref] per
     vertex is one allocation per occupied vertex per round *)
  let witness = ref false in
  let t = ref 0 in
  while !informed < k && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "meet_exchange.round" round;
    let c0 = !contacts in
    (match pool with
    | None ->
        span_begin trace "walk";
        move_agents_seq ?traffic ?obs ~lazy_walk rng g pos;
        span_end trace
    | Some pool ->
        move_agents_sharded ?traffic ?obs ?trace ~lazy_walk ~shards pool rng g
          pos moves);
    span_begin trace "buckets";
    refresh_buckets ();
    span_end trace;
    span_begin trace "spread";
    (* the witness test below is "informed in a previous round": snapshot
       before this round's source hand-off so its pickups don't qualify *)
    Bitset.snapshot ~src:agent_informed ~dst:agent_before;
    (* source hand-off: the first agents to visit the source become informed
       (all of them if simultaneous); they start spreading only next round *)
    if !source_active && starts.(source + 1) - starts.(source) > 0 then begin
      for i = starts.(source) to starts.(source + 1) - 1 do
        let a = ids.(i) in
        if not (Bitset.mem agent_informed a) then begin
          Bitset.add agent_informed a;
          incr informed;
          incr contacts;
          Obs.contact obs source a
        end
      done;
      source_active := false
    end;
    (* meetings: a vertex holding some previously informed agent informs
       every agent standing on it *)
    for v = 0 to n - 1 do
      if starts.(v + 1) - starts.(v) >= 2 then begin
        witness := false;
        for i = starts.(v) to starts.(v + 1) - 1 do
          if Bitset.mem agent_before ids.(i) then witness := true
        done;
        if !witness then
          for i = starts.(v) to starts.(v + 1) - 1 do
            let a = ids.(i) in
            if not (Bitset.mem agent_informed a) then begin
              Bitset.add agent_informed a;
              incr informed;
              incr contacts;
              Obs.contact obs v a
            end
          done
      end
    done;
    span_end trace;
    Curve_buf.push curve !informed;
    trace_round_end trace ~informed:!informed ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time = if !informed = k then Some rounds_run else None in
  Run_result.make ~all_agents_informed:broadcast_time ~broadcast_time
    ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()

let meet_exchange ?traffic ?obs ?trace ?lazy_walk
    ?(walkers = Sparse_walkers.Dense) ?(shards = 1) ?pool rng g ~source
    ~agents ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.meet_exchange" ~n ~source ~max_rounds ~shards;
  (* an omitted [lazy_walk] resolves by testing bipartiteness: the
     non-lazy process cannot complete on a bipartite graph *)
  let lazy_walk =
    match lazy_walk with
    | Some b -> b
    | None -> Rumor_graph.Algo.is_bipartite g
  in
  if Sparse_walkers.use_sparse walkers agents g then begin
    if Option.is_some traffic then
      invalid_arg "Engine.meet_exchange: traffic recording requires dense walkers";
    meet_exchange_sparse ?obs ?trace ~lazy_walk rng g ~source ~agents
      ~max_rounds ()
  end
  else
    meet_exchange_dense ?traffic ?obs ?trace ~lazy_walk ~shards ?pool rng g
      ~source ~agents ~max_rounds ()

(* --------------------------------------------------------------- combined *)

(* The Combined protocol: the push-pull frontier half and the visit-exchange
   walker half composed in one round loop, consuming the rng in one fixed
   order at [shards = 1] (placement draws, then per round: n push-pull
   picks, k walker moves). *)
(* lint: hot *)
let combined ?obs ?trace ?(lazy_walk = false) ?(shards = 1) ?pool rng g
    ~source ~agents ~max_rounds () =
  let n = Graph.n g in
  check_common ~who:"Engine.combined" ~n ~source ~max_rounds ~shards;
  let pos = place_agents ~who:"Engine.combined" rng g agents in
  let k = Array.length pos in
  let vertex_time = Array.make n max_int in
  let agent_time = Array.make k max_int in
  vertex_time.(source) <- 0;
  let informed_vertices = ref 1 in
  let contacts = ref 0 in
  for a = 0 to k - 1 do
    if pos.(a) = source then begin
      agent_time.(a) <- 0;
      incr contacts
    end
  done;
  let curve = Curve_buf.create ~hint:max_rounds in
  Curve_buf.push curve 1;
  let picks = if shards = 1 then [||] else Array.make n 0 in
  let moves = if shards = 1 then [||] else Array.make k 0 in
  let pool = if shards = 1 then None else Some (get_pool pool) in
  (* hoisted closures: allocated once per run, not per round *)
  let inform_vertex round v =
    if vertex_time.(v) = max_int then begin
      vertex_time.(v) <- round;
      incr informed_vertices
    end
  in
  let exchange round u v =
    incr contacts;
    Obs.contact obs u v;
    let u_before = vertex_time.(u) < round
    and v_before = vertex_time.(v) < round in
    if u_before && not v_before then inform_vertex round v
    else if v_before && not u_before then inform_vertex round u
  in
  let t = ref 0 in
  while !informed_vertices < n && !t < max_rounds do
    incr t;
    let round = !t in
    Obs.round_start obs round;
    span_begin_arg trace "combined.round" round;
    let c0 = !contacts in
    (* push-pull half: every vertex calls a random neighbor; exchanges use
       the informed-before-this-round state *)
    (match pool with
    | None ->
        span_begin trace "push_pull";
        for u = 0 to n - 1 do
          exchange round u (Graph.random_neighbor g rng u)
        done;
        span_end trace
    | Some pool ->
        let rngs = Rng.split_n rng shards in
        let (_ : unit array) =
          Par.parallel_for ?trace ~label:"combined.draw" pool ~n ~shards (* lint: allow R10 — label Some + shard closure: per round, not per contact *)
            (fun ~shard ~lo ~hi ->
              let r = rngs.(shard) in
              for u = lo to hi - 1 do
                picks.(u) <- Graph.random_neighbor g r u
              done)
        in
        span_begin trace "push_pull.merge";
        for u = 0 to n - 1 do
          exchange round u picks.(u)
        done;
        span_end trace);
    (* visit-exchange half: agents step, previously informed agents inform
       their vertex, uninformed agents learn from informed vertices *)
    (match pool with
    | None ->
        span_begin trace "walk";
        move_agents_seq ?obs ~lazy_walk rng g pos;
        span_end trace
    | Some pool ->
        move_agents_sharded ?obs ?trace ~lazy_walk ~shards pool rng g pos
          moves);
    span_begin trace "spread";
    for a = 0 to k - 1 do
      if agent_time.(a) < round then begin
        let v = pos.(a) in
        if vertex_time.(v) = max_int then begin
          incr contacts;
          Obs.contact obs a v
        end;
        inform_vertex round v
      end
    done;
    for a = 0 to k - 1 do
      if agent_time.(a) = max_int && vertex_time.(pos.(a)) <= round then begin
        agent_time.(a) <- round;
        incr contacts;
        Obs.contact obs pos.(a) a
      end
    done;
    span_end trace;
    Curve_buf.push curve !informed_vertices;
    trace_round_end trace ~informed:!informed_vertices
      ~contacts_delta:(!contacts - c0);
    Obs.round_end obs ~round ~informed:!informed_vertices ~contacts:!contacts
  done;
  let rounds_run = !t in
  let broadcast_time =
    if !informed_vertices = n then Some rounds_run else None
  in
  Run_result.make ~broadcast_time ~rounds_run
    ~informed_curve:(Curve_buf.contents curve)
    ~contacts:!contacts ()
