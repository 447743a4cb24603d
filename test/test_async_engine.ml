(* Tests for Rumor_protocols.Async_engine: the behaviour of continuous-time
   push, push-pull and meet-exchange, batch and queue-backend independence,
   caps, the [?obs] hooks, the sparse meet-exchange path, and argument
   validation.  Bit-for-bit reproduction
   of the reference runs — results, curves and the full observation
   stream, on either queue backend — is pinned by test_golden.ml. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Async_engine = Rumor_protocols.Async_engine
module Instrument = Rumor_obs.Instrument

let families () =
  [
    ("complete16", Gen.complete 16);
    ("torus6x6", Gen.torus ~rows:6 ~cols:6);
    ("path12", Gen.path 12);
    ("star9", Gen.star ~leaves:9);
    ("er40", Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15);
    ("reg3x20", Gen_random.random_regular_connected (Rng.of_int 777) ~n:20 ~d:3);
  ]

let seeds = [ 1; 42; 9001 ]

let check_push_result label (a : P.Async_push.result) (b : P.Async_push.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_push.broadcast_time
    b.P.Async_push.broadcast_time;
  Alcotest.(check int) (label ^ ": rings") a.P.Async_push.rings b.P.Async_push.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_push.informed b.P.Async_push.informed;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_push.curve b.P.Async_push.curve

let check_meet_result label (a : P.Async_meet_exchange.result)
    (b : P.Async_meet_exchange.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_meet_exchange.broadcast_time
    b.P.Async_meet_exchange.broadcast_time;
  Alcotest.(check int)
    (label ^ ": rings") a.P.Async_meet_exchange.rings b.P.Async_meet_exchange.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_meet_exchange.informed
    b.P.Async_meet_exchange.informed;
  Alcotest.(check int)
    (label ^ ": agents") a.P.Async_meet_exchange.agents b.P.Async_meet_exchange.agents;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_meet_exchange.curve b.P.Async_meet_exchange.curve

(* ------------------------------------------------- push / push-pull *)

let push ?(variant = P.Async_push.Async_push) ?(max_time = 1e6) seed g source =
  Async_engine.push (Rng.of_int seed) g ~variant ~source ~max_time

let test_push_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      List.iter
        (fun variant ->
          let r = push ~variant 311 g s in
          Alcotest.(check bool) "completed" true (r.P.Async_push.broadcast_time <> None);
          Alcotest.(check int) "all informed" (Graph.n g) r.P.Async_push.informed)
        [ P.Async_push.Async_push; P.Async_push.Async_push_pull ])
    [ (Gen.complete 16, 0); (Gen.cycle 10, 0); (Gen.star ~leaves:12, 3) ]

let test_push_k2 () =
  match (push 312 (Gen.complete 2) 0).P.Async_push.broadcast_time with
  | None -> Alcotest.fail "did not complete"
  | Some t -> Alcotest.(check bool) "positive continuous time" true (t > 0.0)

let test_push_time_cap () =
  let r = push ~max_time:0.5 313 (Gen.path 200) 0 in
  Alcotest.(check bool) "capped" true (Option.is_none r.P.Async_push.broadcast_time);
  Alcotest.(check bool) "partial progress recorded" true (r.P.Async_push.informed >= 1)

let test_push_rings_counted () =
  Alcotest.(check bool) "rings positive" true
    ((push 314 (Gen.complete 8) 0).P.Async_push.rings > 0)

let test_push_deterministic_by_seed () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  check_push_result "seed 315" (push 315 g 0) (push 315 g 0)

let mean_time variant g seeds =
  let total = ref 0.0 in
  List.iter
    (fun s ->
      match (push ~variant s g 0).P.Async_push.broadcast_time with
      | Some t -> total := !total +. t
      | None -> Alcotest.fail "run capped unexpectedly")
    seeds;
  !total /. float_of_int (List.length seeds)

let test_async_sync_push_equivalence_on_regular () =
  (* Sauerwald [41]: on regular graphs asynchronous push matches synchronous
     push asymptotically.  Compare means over seeds; allow a factor 2. *)
  let rng = Rng.of_int 318 in
  let g = Gen_random.random_regular_connected rng ~n:512 ~d:9 in
  let seeds = List.init 10 (fun i -> 3180 + i) in
  let async_mean = mean_time P.Async_push.Async_push g seeds in
  let sync_mean =
    let total =
      List.fold_left
        (fun acc s ->
          acc
          + P.Run_result.time_exn
              (P.Engine.push (Rng.of_int s) g ~source:0 ~max_rounds:100_000 ()))
        0 seeds
    in
    float_of_int total /. float_of_int (List.length seeds)
  in
  let ratio = async_mean /. sync_mean in
  Alcotest.(check bool)
    (Printf.sprintf "async %.1f vs sync %.1f (ratio %.2f) within 2x" async_mean
       sync_mean ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_push_pull_faster_than_push_on_star () =
  (* the pull half dominates on the star in the async model too *)
  let g = Gen.star ~leaves:128 in
  let seeds = List.init 5 (fun i -> 3190 + i) in
  let pp = mean_time P.Async_push.Async_push_pull g seeds in
  let p = mean_time P.Async_push.Async_push g seeds in
  Alcotest.(check bool)
    (Printf.sprintf "async push-pull %.1f << async push %.1f" pp p)
    true (pp *. 10.0 < p)

let test_push_batch_independent () =
  let g = Gen_random.erdos_renyi (Rng.of_int 5) ~n:48 ~p:0.2 in
  let run batch =
    Async_engine.push ~batch (Rng.of_int 31) g ~variant:P.Async_push.Async_push
      ~source:0 ~max_time:1e6
  in
  let reference = run 4096 in
  List.iter
    (fun batch ->
      check_push_result (Printf.sprintf "batch=%d" batch) reference (run batch))
    [ 1; 7; 65536 ]

(* ------------------------------------------------------- meet-exchange *)

let meet ?lazy_walk ?walkers ?batch ?(agents = Placement.Linear 1.0)
    ?(max_time = 1e6) seed g source =
  Async_engine.meet_exchange ?lazy_walk ?walkers ?batch (Rng.of_int seed) g
    ~source ~agents ~max_time

let test_meet_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      let r = meet 481 g s in
      Alcotest.(check bool) "completed" true
        (r.P.Async_meet_exchange.broadcast_time <> None);
      Alcotest.(check int) "all informed" r.P.Async_meet_exchange.agents
        r.P.Async_meet_exchange.informed)
    [ (Gen.complete 16, 0); (Gen.cycle 9, 2); (Gen.torus ~rows:4 ~cols:4, 0) ]

let test_meet_no_parity_trap_on_k2 () =
  (* two agents, one per vertex of K2: the synchronous non-lazy process
     never finishes (they swap in lockstep); continuous time breaks the
     symmetry and they meet in O(1) expected time *)
  let g = Gen.complete 2 in
  for seed = 0 to 9 do
    match (meet ~agents:Placement.One_per_vertex (4820 + seed) g 0)
            .P.Async_meet_exchange.broadcast_time
    with
    | None -> Alcotest.fail "continuous meetx stalled on K2"
    | Some t -> Alcotest.(check bool) "fast" true (t < 100.0)
  done

let test_meet_no_parity_trap_on_star () =
  let r = meet 483 (Gen.star ~leaves:16) 0 in
  Alcotest.(check bool) "completes without laziness" true
    (r.P.Async_meet_exchange.broadcast_time <> None)

let test_meet_agents_on_source_start_informed () =
  let r = meet ~agents:(Placement.All_at (0, 5)) 484 (Gen.complete 8) 0 in
  (match r.P.Async_meet_exchange.broadcast_time with
  | Some t -> Alcotest.(check (float 1e-9)) "instant broadcast" 0.0 t
  | None -> Alcotest.fail "did not complete");
  Alcotest.(check int) "all five informed" 5 r.P.Async_meet_exchange.informed

let test_meet_time_cap () =
  let r = meet ~agents:(Placement.Stationary 2) ~max_time:0.5 485 (Gen.path 100) 0 in
  Alcotest.(check bool) "capped" true
    (Option.is_none r.P.Async_meet_exchange.broadcast_time)

let test_meet_deterministic_by_seed () =
  let g = Gen.complete 12 in
  check_meet_result "seed 486" (meet 486 g 0) (meet 486 g 0)

let test_meet_comparable_to_discrete_on_clique () =
  (* on a non-bipartite dense graph the continuous and (non-lazy) discrete
     processes should take similar times *)
  let g = Gen.complete 64 in
  let mean_cont =
    let total = ref 0.0 in
    for seed = 0 to 9 do
      match (meet (4870 + seed) g 0).P.Async_meet_exchange.broadcast_time with
      | Some t -> total := !total +. t
      | None -> Alcotest.fail "capped"
    done;
    !total /. 10.0
  in
  let mean_disc =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        P.Engine.meet_exchange ~lazy_walk:false (Rng.of_int (4880 + seed)) g ~source:0
          ~agents:(Placement.Linear 1.0) ~max_rounds:100_000 ()
      in
      total := !total + P.Run_result.time_exn r
    done;
    float_of_int !total /. 10.0
  in
  let ratio = mean_cont /. mean_disc in
  Alcotest.(check bool)
    (Printf.sprintf "continuous %.1f vs discrete %.1f within 3x" mean_cont mean_disc)
    true
    (ratio > 0.33 && ratio < 3.0)

let test_meet_exchange_batch_independent () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let run batch =
    Async_engine.meet_exchange ~batch (Rng.of_int 23) g ~source:0
      ~agents:(Placement.Stationary 10) ~max_time:20_000.0
  in
  let reference = run 4096 in
  List.iter
    (fun batch ->
      check_meet_result (Printf.sprintf "me batch=%d" batch) reference (run batch))
    [ 1; 7; 65536 ]

(* ------------------------------------------- queues, caps and hooks *)

let queues = [ ("heap", Async_engine.Heap); ("calendar", Async_engine.Calendar) ]
let variants = [ P.Async_push.Async_push; P.Async_push.Async_push_pull ]
let agent_specs = [ Placement.Stationary 12; Placement.One_per_vertex ]

(* records the exact hook-event sequence, not just counts *)
let stream_obs () =
  let events = ref [] in
  let obs =
    Instrument.make
      ~on_contact:(fun u v -> events := (0, u, v, 0) :: !events)
      ~on_walker_move:(fun ~agent ~from_ ~to_ ->
        events := (1, agent, from_, to_) :: !events)
      ()
  in
  (obs, events)

let test_push_queues_agree () =
  (* both backends drain in (time, insertion order): the queue is invisible *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun variant ->
              let run queue =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.push ~obs ~queue (Rng.of_int seed) g ~variant ~source:0
                    ~max_time:1e6
                in
                (r, List.rev !events)
              in
              let heap, heap_events = run Async_engine.Heap in
              let cal, cal_events = run Async_engine.Calendar in
              let label = Printf.sprintf "%s seed=%d" name seed in
              check_push_result label heap cal;
              Alcotest.(check bool)
                (label ^ ": obs stream") true (heap_events = cal_events))
            variants)
        seeds)
    (families ())

let test_meet_queues_agree () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun agents ->
              let run queue =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.meet_exchange ~obs ~queue (Rng.of_int seed) g ~source:0
                    ~agents ~max_time:20_000.0
                in
                (r, List.rev !events)
              in
              let heap, heap_events = run Async_engine.Heap in
              let cal, cal_events = run Async_engine.Calendar in
              let label = Printf.sprintf "me %s seed=%d" name seed in
              check_meet_result label heap cal;
              Alcotest.(check bool)
                (label ^ ": obs stream") true (heap_events = cal_events))
            agent_specs)
        seeds)
    (families ())

let test_capped_push_is_a_prefix () =
  (* the cap only stops the clock: up to it, a capped run is the uncapped
     run, and its curve ends at the last integer mark <= max_time *)
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun (qname, queue) ->
              let run max_time =
                Async_engine.push ~queue (Rng.of_int seed) g
                  ~variant:P.Async_push.Async_push ~source:0 ~max_time
              in
              let full = run 1e6 and capped = run 2.5 in
              let label = Printf.sprintf "%s %s seed=%d" name qname seed in
              match full.P.Async_push.broadcast_time with
              | Some t when t <= 2.5 ->
                  check_push_result (label ^ ": finished early") full capped
              | _ ->
                  Alcotest.(check (option (float 0.0))) (label ^ ": capped") None
                    capped.P.Async_push.broadcast_time;
                  Alcotest.(check (array int)) (label ^ ": curve prefix")
                    (Array.sub full.P.Async_push.curve 0 3) capped.P.Async_push.curve;
                  Alcotest.(check bool) (label ^ ": fewer rings") true
                    (capped.P.Async_push.rings <= full.P.Async_push.rings);
                  Alcotest.(check bool) (label ^ ": informed between marks 2 and 3") true
                    (capped.P.Async_push.informed >= capped.P.Async_push.curve.(2)
                    && capped.P.Async_push.informed <= full.P.Async_push.curve.(3)))
            queues)
        seeds)
    [ ("path12", Gen.path 12); ("torus6x6", Gen.torus ~rows:6 ~cols:6) ]

let test_meet_omitted_lazy_is_bipartiteness () =
  List.iter
    (fun (name, g, bipartite) ->
      List.iter
        (fun seed ->
          let me ?lazy_walk () =
            Async_engine.meet_exchange ?lazy_walk (Rng.of_int seed) g ~source:0
              ~agents:Placement.One_per_vertex ~max_time:20_000.0
          in
          check_meet_result
            (Printf.sprintf "%s seed=%d omitted lazy_walk" name seed)
            (me ~lazy_walk:bipartite ()) (me ()))
        seeds)
    [
      ("K2", Gen.complete 2, true);
      ("star9", Gen.star ~leaves:9, true);
      ("complete16", Gen.complete 16, false);
      ("cycle9", Gen.cycle 9, false);
    ]

let test_obs_does_not_perturb_runs () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun variant ->
          let run ?obs () =
            Async_engine.push ?obs (Rng.of_int 24) g ~variant ~source:0 ~max_time:1e6
          in
          let obs, _ = stream_obs () in
          check_push_result (name ^ " observed") (run ()) (run ~obs ()))
        variants;
      let run ?obs () =
        Async_engine.meet_exchange ?obs (Rng.of_int 24) g ~source:0
          ~agents:(Placement.Stationary 12) ~max_time:20_000.0
      in
      let obs, _ = stream_obs () in
      check_meet_result (name ^ " me observed") (run ()) (run ~obs ()))
    (families ())

let test_hooks_agree_with_the_result () =
  (* push fires one contact per ring, along an edge; meet-exchange one walker
     move per ring (an edge step, or a stay when lazy) and one contact per
     informed agent *)
  List.iter
    (fun (name, g) ->
      let step_ok ~lazy_walk u v = (lazy_walk && u = v) || Graph.mem_edge g u v in
      List.iter
        (fun variant ->
          let obs, events = stream_obs () in
          let r =
            Async_engine.push ~obs (Rng.of_int 25) g ~variant ~source:0 ~max_time:1e6
          in
          Alcotest.(check int) (name ^ ": one contact per ring") r.P.Async_push.rings
            (List.length !events);
          List.iter
            (fun (_, u, v, _) ->
              if not (step_ok ~lazy_walk:false u v) then
                Alcotest.failf "%s: contact %d -> %d is not an edge" name u v)
            !events)
        variants;
      let lazy_walk = Rumor_graph.Algo.is_bipartite g in
      let obs, events = stream_obs () in
      let r =
        Async_engine.meet_exchange ~obs ~lazy_walk (Rng.of_int 25) g ~source:0
          ~agents:(Placement.Stationary 12) ~max_time:20_000.0
      in
      let moves = List.filter (fun (kind, _, _, _) -> kind = 1) !events in
      Alcotest.(check int)
        (name ^ ": one walker move per ring") r.P.Async_meet_exchange.rings
        (List.length moves);
      Alcotest.(check int) (name ^ ": one contact per informed agent")
        r.P.Async_meet_exchange.informed
        (List.length !events - List.length moves);
      List.iter
        (fun (_, _, u, v) ->
          if not (step_ok ~lazy_walk u v) then
            Alcotest.failf "%s: walker step %d -> %d is not a walk step" name u v)
        moves)
    (families ())

(* ------------------------------------------------- run_result projection *)

let test_to_run_result () =
  let g = Gen.complete 16 in
  let r =
    Async_engine.push (Rng.of_int 3) g ~variant:P.Async_push.Async_push ~source:0
      ~max_time:1e6
  in
  let rr = P.Async_push.to_run_result r in
  (match (r.P.Async_push.broadcast_time, rr.P.Run_result.broadcast_time) with
  | Some t, Some m ->
      Alcotest.(check int) "rounded up" (int_of_float (Float.ceil t)) m
  | _ -> Alcotest.fail "expected completion");
  let curve = rr.P.Run_result.informed_curve in
  Alcotest.(check int) "rounds_run is curve length - 1"
    (Array.length curve - 1) rr.P.Run_result.rounds_run;
  Alcotest.(check int) "curve starts at 1" 1 curve.(0);
  Alcotest.(check int) "curve ends informed" 16 curve.(Array.length curve - 1);
  Alcotest.(check int) "contacts = rings" r.P.Async_push.rings
    rr.P.Run_result.contacts;
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_queue_stats_out () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  let stats = ref None in
  let (_ : P.Async_push.result) =
    Async_engine.push ~queue:Async_engine.Calendar ~stats (Rng.of_int 2) g
      ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6
  in
  (match !stats with
  | Some s ->
      Alcotest.(check bool) "buckets >= 16" true
        (s.Rumor_des.Calendar_queue.buckets >= 16);
      Alcotest.(check bool) "width positive" true
        (s.Rumor_des.Calendar_queue.width > 0.0)
  | None -> Alcotest.fail "calendar stats missing");
  let (_ : P.Async_push.result) =
    Async_engine.push ~queue:Async_engine.Heap ~stats (Rng.of_int 2) g
      ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6
  in
  Alcotest.(check bool) "no stats on heap" true (Option.is_none !stats)

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:9 ~max_time:10.0));
  Alcotest.(check bool) "bad max_time" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:0 ~max_time:0.0));
  Alcotest.(check bool) "bad batch" true
    (bad (fun () ->
         Async_engine.push ~batch:0 (Rng.of_int 1) g
           ~variant:P.Async_push.Async_push ~source:0 ~max_time:10.0));
  Alcotest.(check bool) "meet bad source" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:(-1)
           ~agents:Placement.One_per_vertex ~max_time:10.0));
  Alcotest.(check bool) "meet bad max_time" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:0
           ~agents:Placement.One_per_vertex ~max_time:0.0));
  Alcotest.(check bool) "meet bad batch" true
    (bad (fun () ->
         Async_engine.meet_exchange ~batch:(-3) (Rng.of_int 1) g ~source:0
           ~agents:Placement.One_per_vertex ~max_time:10.0))

(* The sparse meet-exchange path uses one aggregate rate-k clock, picks
   the ringing walker as a uniform slot of a walker-position array, and
   keeps one informed bit per vertex (every vertex's walkers are all
   informed or all uninformed).  It is seed-deterministic but not
   bit-identical to the dense per-agent-clock path, so here we check
   completion, conservation of the agent count and determinism; the law
   is gated against dense below. *)
let test_meet_exchange_sparse () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let run () =
            Async_engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_time:1e6
          in
          let r = run () in
          Alcotest.(check bool)
            (Printf.sprintf "sparse %s seed=%d: completes" name seed)
            true
            (r.P.Async_meet_exchange.broadcast_time <> None);
          Alcotest.(check int)
            (name ^ ": agent count") 14 r.P.Async_meet_exchange.agents;
          Alcotest.(check int)
            (name ^ ": all agents informed") 14 r.P.Async_meet_exchange.informed;
          check_meet_result (Printf.sprintf "sparse %s seed=%d" name seed) r
            (run ()))
        seeds)
    (families ())

(* Distributional gate for the sparse kernel: it samples the same process
   as the dense one, so mean broadcast times must agree.  A two-sample
   z-test on independent seeds at two-sided alpha = 0.001 (|z| < 3.29),
   [gate_reps] runs a side.  The gate also requires those runs to resolve
   a 5% bias: the minimum detectable relative bias, z_crit * SE / mean
   (the bias the test flags half of the time), must be at most 0.05 on
   every graph.  Results do not depend on the clock batch; a small one
   keeps these short runs from pre-drawing 4096 gaps each. *)
let gate_z = 3.29
let gate_reps = 4000
let gate_max_bias = 0.05

let broadcast_stats ~walkers ~seed0 g =
  let acc = Rumor_prob.Stats.create () in
  for i = 0 to gate_reps - 1 do
    let r =
      meet ~batch:32 ~walkers ~agents:(Placement.Stationary 14) (seed0 + i) g 0
    in
    match r.P.Async_meet_exchange.broadcast_time with
    | Some t -> Rumor_prob.Stats.add acc t
    | None -> Alcotest.fail "capped"
  done;
  acc

let test_sparse_meet_law_matches_dense () =
  let module Stats = Rumor_prob.Stats in
  List.iter
    (fun (name, g) ->
      let d = broadcast_stats ~walkers:P.Sparse_walkers.Dense ~seed0:100_000 g in
      let s = broadcast_stats ~walkers:P.Sparse_walkers.Sparse ~seed0:200_000 g in
      let se = Float.hypot (Stats.std_error d) (Stats.std_error s) in
      let z = (Stats.mean s -. Stats.mean d) /. se in
      let bias = gate_z *. se /. Stats.mean d in
      Printf.printf
        "%s: dense %.4f sparse %.4f (%d runs each)  z = %+.2f  detectable \
         bias %.1f%%\n"
        name (Stats.mean d) (Stats.mean s) gate_reps z (100.0 *. bias);
      Alcotest.(check bool)
        (Printf.sprintf "%s: |z| = %.2f < %.2f" name (Float.abs z) gate_z)
        true
        (Float.abs z < gate_z);
      Alcotest.(check bool)
        (Printf.sprintf "%s: detectable bias %.3f <= %.2f" name bias
           gate_max_bias)
        true (bias <= gate_max_bias))
    [
      ("K8", Gen.complete 8);
      ("C9", Gen.cycle 9);
      ("S7", Gen.star ~leaves:7);
      ("torus4x4", Gen.torus ~rows:4 ~cols:4);
    ]

(* The sparse ring loop allocates nothing of its own: per ring, no more
   minor words than a bare loop issuing the same calls (clock gap, slot
   draw, lazy coin, neighbor draw), plus 0.5 for the amortized set-up
   (placement is ~0.1 words per ring here): a capped run on a long cycle
   rings ~5 * 10^5 times. *)
let test_sparse_ring_loop_allocation () =
  let g = Gen.cycle 4096 in
  let k = 64 and seed = 7 and max_time = 8000.0 in
  let minor_words f =
    let before = Gc.minor_words () in
    let x = f () in
    (Gc.minor_words () -. before, x)
  in
  let w_kernel, r =
    minor_words (fun () ->
        meet ~lazy_walk:true ~walkers:P.Sparse_walkers.Sparse
          ~agents:(Placement.Stationary k) ~max_time seed g 0)
  in
  let rings = r.P.Async_meet_exchange.rings in
  Alcotest.(check bool) "capped" true
    (Option.is_none r.P.Async_meet_exchange.broadcast_time);
  let w_calls, _ =
    minor_words (fun () ->
        let rng = Rng.of_int seed in
        let clock = Rumor_des.Exp_stream.create (Rng.split rng) in
        let rate = float_of_int k in
        let now = ref 0.0 and u = ref 0 and slots = ref 0 in
        for _ = 1 to rings do
          now := !now +. (Rumor_des.Exp_stream.next clock /. rate);
          slots := !slots + Rng.int rng k;
          if not (Rng.bool rng) then u := Graph.random_neighbor g rng !u
        done;
        Sys.opaque_identity (!now, !u, !slots))
  in
  let per_ring w = w /. float_of_int rings in
  Printf.printf "%d rings: kernel %.2f words/ring, same calls %.2f\n" rings
    (per_ring w_kernel) (per_ring w_calls);
  Alcotest.(check bool)
    (Printf.sprintf "kernel %.2f <= calls %.2f + 0.5 words/ring"
       (per_ring w_kernel) (per_ring w_calls))
    true
    (per_ring w_kernel <= per_ring w_calls +. 0.5)

let test_sparse_edge_cases () =
  let dense = meet ~walkers:P.Sparse_walkers.Dense in
  let sparse = meet ~walkers:P.Sparse_walkers.Sparse in
  (* everyone starts on the source: informed at time 0, no ring *)
  let g8 = Gen.complete 8 in
  let on_source = Placement.All_at (0, 5) in
  let r = sparse ~agents:on_source 484 g8 0 in
  Alcotest.(check (option (float 0.0)))
    "all on source: instant" (Some 0.0) r.P.Async_meet_exchange.broadcast_time;
  Alcotest.(check int) "all on source: no ring" 0 r.P.Async_meet_exchange.rings;
  check_meet_result "all on source: sparse = dense" (dense ~agents:on_source 484 g8 0) r;
  (* everyone starts off the source: someone must walk there first *)
  for seed = 0 to 9 do
    let off = Placement.All_at (3, 6) in
    List.iter
      (fun (label, walkers) ->
        let r = meet ~walkers ~agents:off (4900 + seed) g8 0 in
        let label = Printf.sprintf "%s off source seed=%d" label seed in
        (match r.P.Async_meet_exchange.broadcast_time with
        | Some t -> Alcotest.(check bool) (label ^ ": t > 0") true (t > 0.0)
        | None -> Alcotest.fail (label ^ ": stalled"));
        Alcotest.(check bool) (label ^ ": rings") true (r.P.Async_meet_exchange.rings > 0);
        Alcotest.(check int) (label ^ ": informed") 6 r.P.Async_meet_exchange.informed)
      [ ("dense", P.Sparse_walkers.Dense); ("sparse", P.Sparse_walkers.Sparse) ]
  done;
  (* bipartite graphs, lazy or not: continuous time has no parity trap *)
  List.iter
    (fun (name, g, agents) ->
      List.iter
        (fun lazy_walk ->
          for seed = 0 to 9 do
            let r = sparse ~lazy_walk ~agents (4950 + seed) g 0 in
            match r.P.Async_meet_exchange.broadcast_time with
            | Some t ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s lazy=%b seed=%d fast" name lazy_walk seed)
                  true (t < 100.0)
            | None -> Alcotest.fail (name ^ ": stalled")
          done)
        [ true; false ])
    [
      ("K2", Gen.complete 2, Placement.One_per_vertex);
      ("star16", Gen.star ~leaves:16, Placement.Linear 1.0);
    ]

let suite =
  [
    Alcotest.test_case "push: completes on small graphs" `Quick
      test_push_completes_on_small_graphs;
    Alcotest.test_case "push: K2" `Quick test_push_k2;
    Alcotest.test_case "push: time cap" `Quick test_push_time_cap;
    Alcotest.test_case "push: rings counted" `Quick test_push_rings_counted;
    Alcotest.test_case "push: deterministic by seed" `Quick
      test_push_deterministic_by_seed;
    Alcotest.test_case "push: async ~ sync on regular graphs" `Quick
      test_async_sync_push_equivalence_on_regular;
    Alcotest.test_case "push-pull beats push on the star" `Quick
      test_push_pull_faster_than_push_on_star;
    Alcotest.test_case "push is batch-independent" `Quick test_push_batch_independent;
    Alcotest.test_case "meet-exchange: completes on small graphs" `Quick
      test_meet_completes_on_small_graphs;
    Alcotest.test_case "meet-exchange: no parity trap on K2" `Quick
      test_meet_no_parity_trap_on_k2;
    Alcotest.test_case "meet-exchange: no parity trap on the star" `Quick
      test_meet_no_parity_trap_on_star;
    Alcotest.test_case "meet-exchange: agents on source start informed" `Quick
      test_meet_agents_on_source_start_informed;
    Alcotest.test_case "meet-exchange: time cap" `Quick test_meet_time_cap;
    Alcotest.test_case "meet-exchange: deterministic by seed" `Quick
      test_meet_deterministic_by_seed;
    Alcotest.test_case "meet-exchange: comparable to discrete on the clique" `Quick
      test_meet_comparable_to_discrete_on_clique;
    Alcotest.test_case "meet-exchange is batch-independent" `Quick
      test_meet_exchange_batch_independent;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_meet_exchange_sparse;
    Alcotest.test_case "sparse meet-exchange law matches dense" `Quick
      test_sparse_meet_law_matches_dense;
    Alcotest.test_case "sparse ring loop allocates only in rng calls" `Quick
      test_sparse_ring_loop_allocation;
    Alcotest.test_case "sparse meet-exchange edge cases match dense" `Quick
      test_sparse_edge_cases;
    Alcotest.test_case "push/push-pull: heap and calendar agree" `Quick
      test_push_queues_agree;
    Alcotest.test_case "meet-exchange: heap and calendar agree" `Quick
      test_meet_queues_agree;
    Alcotest.test_case "capped push is a prefix of the uncapped run" `Quick
      test_capped_push_is_a_prefix;
    Alcotest.test_case "meet-exchange: omitted lazy_walk is bipartiteness" `Quick
      test_meet_omitted_lazy_is_bipartiteness;
    Alcotest.test_case "observing does not perturb runs" `Quick
      test_obs_does_not_perturb_runs;
    Alcotest.test_case "hooks agree with the result" `Quick
      test_hooks_agree_with_the_result;
    Alcotest.test_case "to_run_result projection" `Quick test_to_run_result;
    Alcotest.test_case "calendar stats out-parameter" `Quick test_queue_stats_out;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
