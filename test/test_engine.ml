(* Tests for Rumor_protocols.Engine: the behaviour of each synchronous
   kernel (push, push-pull, visit-exchange, meet-exchange, combined), the
   agreement of a run's result with its [?tau], [?obs] and [?traffic]
   outputs, the sparse walker paths, and the sharded paths, which must be a
   pure function of (seed, shards) — never of the pool's jobs.  Bit-for-bit
   reproduction of the reference runs at shards = 1 is pinned by
   test_golden.ml. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Gen_random = Rumor_graph.Gen_random
module Algo = Rumor_graph.Algo
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result
module Traffic = Rumor_protocols.Traffic
module Instrument = Rumor_obs.Instrument
module Pool = Rumor_par.Pool

let check_same_result label (a : Run_result.t) (b : Run_result.t) =
  Alcotest.(check (option int))
    (label ^ ": broadcast_time") a.Run_result.broadcast_time b.Run_result.broadcast_time;
  Alcotest.(check int) (label ^ ": rounds_run") a.Run_result.rounds_run
    b.Run_result.rounds_run;
  Alcotest.(check int) (label ^ ": contacts") a.Run_result.contacts b.Run_result.contacts;
  Alcotest.(check (array int))
    (label ^ ": informed_curve") a.Run_result.informed_curve b.Run_result.informed_curve;
  Alcotest.(check (option int))
    (label ^ ": all_agents_informed") a.Run_result.all_agents_informed
    b.Run_result.all_agents_informed

(* graph families for the sweeps: regular and not, bipartite and not, dense
   and sparse *)
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

(* ----------------------------------------------------------------- push *)

let push ?traffic seed g source =
  Engine.push ?traffic (Rng.of_int seed) g ~source ~max_rounds:1_000_000 ()

let test_push_k2_exact () =
  let r = push 101 (Gen.complete 2) 0 in
  Alcotest.(check (option int)) "K2 takes exactly 1 round" (Some 1) r.Run_result.broadcast_time;
  Alcotest.(check int) "one contact" 1 r.Run_result.contacts

let test_push_single_vertex () =
  let r = push 102 (Graph.of_edges ~n:1 []) 0 in
  Alcotest.(check (option int)) "already done" (Some 0) r.Run_result.broadcast_time;
  Alcotest.(check int) "no rounds" 0 r.Run_result.rounds_run

let test_push_complete_graph () =
  let r = push 103 (Gen.complete 64) 5 in
  Alcotest.(check bool) "completed" true (Run_result.completed r);
  (* push doubles the informed set at best: at least log2 n rounds *)
  Alcotest.(check bool) "at least log2 n" true (Run_result.time_exn r >= 6)

let test_push_time_at_least_eccentricity () =
  List.iter
    (fun (g, s) ->
      let r = push 104 g s in
      let ecc = Algo.eccentricity g s in
      Alcotest.(check bool)
        (Printf.sprintf "T=%d >= ecc=%d" (Run_result.time_exn r) ecc)
        true
        (Run_result.time_exn r >= ecc))
    [
      (Gen.path 20, 0);
      (Gen.cycle 15, 3);
      (Gen.torus ~rows:5 ~cols:5, 0);
      (Gen.complete_binary_tree ~levels:5, 0);
    ]

let test_push_curve_shape () =
  let r = push 105 (Gen.complete 32) 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 32 curve.(Array.length curve - 1);
  Alcotest.(check int) "length = rounds + 1" (r.Run_result.rounds_run + 1)
    (Array.length curve);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone";
    (* each informed vertex informs at most one new vertex per round *)
    if curve.(i) > 2 * curve.(i - 1) then Alcotest.fail "curve more than doubled"
  done

let test_push_contacts_counted () =
  (* every previously informed vertex sends exactly one message per round *)
  let r = push 106 (Gen.complete 16) 0 in
  let curve = r.Run_result.informed_curve in
  let expected = ref 0 in
  for i = 0 to Array.length curve - 2 do
    expected := !expected + curve.(i)
  done;
  Alcotest.(check int) "contacts = sum of active counts" !expected r.Run_result.contacts

let test_push_round_cap () =
  let r = Engine.push (Rng.of_int 107) (Gen.path 100) ~source:0 ~max_rounds:5 () in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "ran exactly cap" 5 r.Run_result.rounds_run;
  Alcotest.(check bool) "time_exn raises" true
    (try
       ignore (Run_result.time_exn r);
       false
     with Invalid_argument _ -> true)

let test_push_zero_cap () =
  let r = Engine.push (Rng.of_int 108) (Gen.complete 4) ~source:0 ~max_rounds:0 () in
  Alcotest.(check (option int)) "capped immediately" None r.Run_result.broadcast_time

let test_push_tau () =
  let g = Gen.star ~leaves:6 in
  let tau = Array.make (Graph.n g) 0 in
  let (_ : Run_result.t) =
    Engine.push ~tau (Rng.of_int 110) g ~source:0 ~max_rounds:100_000 ()
  in
  Alcotest.(check int) "source at round 0" 0 tau.(0);
  Array.iteri
    (fun v t ->
      if t = max_int then Alcotest.failf "vertex %d never informed" v;
      if v <> 0 && t < 1 then Alcotest.failf "leaf %d informed too early" v)
    tau;
  (* informing times on the star are distinct for leaves: center pushes to
     exactly one leaf per round *)
  let times = Array.to_list (Array.sub tau 1 6) in
  Alcotest.(check int) "distinct leaf times" 6
    (List.length (List.sort_uniq Int.compare times))

let test_push_star_is_coupon_collector_slow () =
  (* E[T] = n H_n; with n = 64 leaves that is ~ 300, far above log n *)
  let g = Gen.star ~leaves:64 in
  let total = ref 0 in
  for seed = 1 to 10 do
    total := !total + Run_result.time_exn (push (1100 + seed) g 0)
  done;
  let mean = float_of_int !total /. 10.0 in
  Alcotest.(check bool) (Printf.sprintf "mean %.0f is >> log n" mean) true (mean > 100.0)

let test_push_failure_prob_zero_is_plain () =
  let g = Gen.complete 32 in
  let r1 = Engine.push (Rng.of_int 113) g ~source:0 ~max_rounds:100_000 () in
  let r2 =
    Engine.push ~failure_prob:0.0 (Rng.of_int 113) g ~source:0 ~max_rounds:100_000 ()
  in
  Alcotest.(check (option int)) "identical stream with p = 0"
    r1.Run_result.broadcast_time r2.Run_result.broadcast_time

let test_push_failure_prob_slows_by_inverse_rate () =
  (* with each transmission lost w.p. p, effective progress scales by
     (1 - p): [22]'s robustness result.  Check the mean ratio is in a
     generous band around 1 / (1 - p). *)
  let g = Gen.complete 128 in
  let mean failure_prob =
    let total = ref 0 in
    for seed = 0 to 19 do
      let r =
        Engine.push ~failure_prob (Rng.of_int (1140 + seed)) g ~source:0
          ~max_rounds:100_000 ()
      in
      total := !total + Run_result.time_exn r
    done;
    float_of_int !total /. 20.0
  in
  let ratio = mean 0.5 /. mean 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within [1.3, 3.0]" ratio)
    true
    (ratio > 1.3 && ratio < 3.0)

let test_push_deterministic_given_seed () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  check_same_result "push torus seed 111" (push 111 g 0) (push 111 g 0)

let test_push_traffic_recording () =
  let g = Gen.complete 8 in
  let traffic = Traffic.create g in
  let r = push ~traffic 112 g 0 in
  Alcotest.(check int) "one traffic record per contact" r.Run_result.contacts
    (Traffic.total traffic)

let prop_push_completes_on_connected_regular =
  QCheck.Test.make ~count:20 ~name:"push completes on random regular graphs"
    QCheck.(int_range 4 40)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 13) in
      let g = Gen_random.random_regular_connected rng ~n ~d:3 in
      Run_result.completed (Engine.push rng g ~source:0 ~max_rounds:100_000 ()))

(* ------------------------------------------------------------ push-pull *)

let push_pull seed g source =
  Engine.push_pull (Rng.of_int seed) g ~source ~max_rounds:1_000_000 ()

let test_push_pull_k2_exact () =
  let r = push_pull 121 (Gen.complete 2) 0 in
  Alcotest.(check (option int)) "one round" (Some 1) r.Run_result.broadcast_time

let test_push_pull_star_from_center_one_round () =
  (* every leaf pulls from the center in round 1 *)
  let g = Gen.star ~leaves:30 in
  for seed = 0 to 9 do
    Alcotest.(check (option int)) "one round from center" (Some 1)
      (push_pull (1210 + seed) g 0).Run_result.broadcast_time
  done

let test_push_pull_star_from_leaf_two_rounds () =
  (* Lemma 2(b): at most 2 rounds from a leaf *)
  let g = Gen.star ~leaves:30 in
  for seed = 0 to 9 do
    Alcotest.(check bool) "at most 2 rounds" true
      (Run_result.time_exn (push_pull (1220 + seed) g 3) <= 2)
  done

let test_push_pull_contacts_n_per_round () =
  let r = push_pull 122 (Gen.complete 20) 0 in
  Alcotest.(check int) "n contacts per round" (20 * r.Run_result.rounds_run)
    r.Run_result.contacts

let test_push_pull_time_at_least_eccentricity () =
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "T >= ecc" true
        (Run_result.time_exn (push_pull 123 g s) >= Algo.eccentricity g s))
    [ (Gen.path 25, 0); (Gen.cycle 20, 0); (Gen.complete_binary_tree ~levels:5, 0) ]

let test_push_pull_curve_monotone () =
  let r = push_pull 124 (Gen.torus ~rows:6 ~cols:6) 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 36 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_push_pull_round_cap () =
  let r = Engine.push_pull (Rng.of_int 125) (Gen.path 200) ~source:0 ~max_rounds:3 () in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "rounds" 3 r.Run_result.rounds_run

let test_push_pull_beats_push_on_star () =
  (* push-pull needs O(1) rounds on the star, push needs Omega(n log n) *)
  let g = Gen.star ~leaves:128 in
  let pp = Run_result.time_exn (push_pull 126 g 0) in
  let p = Run_result.time_exn (push 126 g 0) in
  Alcotest.(check bool) (Printf.sprintf "push-pull %d << push %d" pp p) true (pp * 20 < p)

let test_push_pull_no_double_counting () =
  (* a vertex must not be counted informed twice: final curve value is n *)
  let curve = (push_pull 127 (Gen.complete 10) 0).Run_result.informed_curve in
  Alcotest.(check int) "exactly n at the end" 10 curve.(Array.length curve - 1)

let prop_push_pull_completes_on_regular =
  QCheck.Test.make ~count:15 ~name:"push-pull completes on random regular graphs"
    QCheck.(int_range 5 30)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 31) in
      let g = Gen_random.random_regular_connected rng ~n ~d:4 in
      Run_result.completed (Engine.push_pull rng g ~source:0 ~max_rounds:100_000 ()))

(* ------------------------------------------------------- visit-exchange *)

let visit ?lazy_walk ?tau ?(agents = Placement.Linear 1.0) seed g source =
  Engine.visit_exchange ?lazy_walk ?tau (Rng.of_int seed) g ~source ~agents
    ~max_rounds:1_000_000 ()

(* the run plus its per-vertex informing rounds *)
let visit_tau ?(agents = Placement.Linear 1.0) seed g source =
  let tau = Array.make (Graph.n g) 0 in
  let r = visit ~tau ~agents seed g source in
  (r, tau)

let test_visit_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "completed" true (Run_result.completed (visit 131 g s)))
    [
      (Gen.complete 2, 0);
      (Gen.complete 20, 3);
      (Gen.cycle 12, 0);
      (Gen.star ~leaves:15, 0);
      (Gen.torus ~rows:4 ~cols:4, 5);
    ]

let test_visit_source_tau_zero () =
  let _, tau = visit_tau 132 (Gen.complete 10) 4 in
  Alcotest.(check int) "source informed at 0" 0 tau.(4)

let test_visit_tau_respects_distance () =
  (* information travels along edges one hop per round, so t_v >= dist(s, v) *)
  List.iter
    (fun (g, s) ->
      let _, tau = visit_tau 133 g s in
      let dist = Algo.bfs_distances g s in
      Array.iteri
        (fun v tv ->
          if tv < dist.(v) then
            Alcotest.failf "vertex %d informed at %d < distance %d" v tv dist.(v))
        tau)
    [ (Gen.path 15, 0); (Gen.cycle 16, 0); (Gen.torus ~rows:5 ~cols:5, 0) ]

let test_visit_agents_on_source_informed_at_zero () =
  let r =
    Engine.visit_exchange (Rng.of_int 134) (Gen.star ~leaves:8) ~source:0
      ~agents:(Placement.All_at (0, 5)) ~max_rounds:10_000 ()
  in
  Alcotest.(check (option int)) "every agent informed at round 0" (Some 0)
    r.Run_result.all_agents_informed

let test_visit_agents_eventually_informed () =
  let r = visit 135 (Gen.torus ~rows:4 ~cols:4) 0 in
  Alcotest.(check bool) "all agents informed" true
    (Option.is_some r.Run_result.all_agents_informed)

let test_visit_all_agents_informed_at_broadcast () =
  let r = visit 136 (Gen.complete 16) 0 in
  match r.Run_result.all_agents_informed with
  | None -> Alcotest.fail "agents never all informed"
  | Some a ->
      Alcotest.(check bool) "agents done by broadcast round" true
        (a <= Run_result.time_exn r)

let test_visit_single_agent_covers () =
  (* one agent on a small cycle: broadcast equals a cover-time-like quantity
     but must terminate *)
  let r = visit ~agents:(Placement.Stationary 1) 137 (Gen.cycle 6) 0 in
  Alcotest.(check bool) "completed" true (Run_result.completed r)

let test_visit_curve_monotone_and_bounded () =
  let curve = (visit 138 (Gen.complete 25) 0).Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone";
    if curve.(i) > 25 then Alcotest.fail "curve exceeds n"
  done

let test_visit_round_cap () =
  let r =
    Engine.visit_exchange (Rng.of_int 139) (Gen.path 100) ~source:0
      ~agents:(Placement.Stationary 2) ~max_rounds:4 ()
  in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "rounds" 4 r.Run_result.rounds_run

let test_visit_lazy_walks_complete () =
  let r = visit ~lazy_walk:true 140 (Gen.star ~leaves:12) 0 in
  Alcotest.(check bool) "completed with lazy walks" true (Run_result.completed r)

let test_visit_deterministic_by_seed () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  check_same_result "visit torus seed 141" (visit 141 g 0) (visit 141 g 0)

let test_visit_more_agents_not_slower () =
  let g = Gen.complete 64 in
  let mean agents =
    let seeds = List.init 10 (fun i -> 1420 + i) in
    let total =
      List.fold_left (fun acc s -> acc + Run_result.time_exn (visit ~agents s g 0)) 0 seeds
    in
    float_of_int total /. float_of_int (List.length seeds)
  in
  let few = mean (Placement.Stationary 16) and many = mean (Placement.Stationary 256) in
  Alcotest.(check bool)
    (Printf.sprintf "16 agents %.1f >= 256 agents %.1f" few many)
    true (few >= many)

let test_visit_source_out_of_range () =
  Alcotest.(check bool) "bad source rejected" true
    (try
       ignore (visit 143 (Gen.complete 4) 9);
       false
     with Invalid_argument _ -> true)

let prop_visit_tau_distance_bound =
  QCheck.Test.make ~count:15 ~name:"visitx vertex times dominate BFS distance"
    QCheck.(int_range 4 25)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 37) in
      let g = Gen_random.random_regular_connected rng ~n ~d:4 in
      let tau = Array.make n 0 in
      let r =
        Engine.visit_exchange ~tau rng g ~source:0 ~agents:(Placement.Linear 1.0)
          ~max_rounds:100_000 ()
      in
      let dist = Algo.bfs_distances g 0 in
      let ok = ref true in
      Array.iteri (fun v tv -> if tv < dist.(v) then ok := false) tau;
      !ok && Run_result.completed r)

(* -------------------------------------------------------- meet-exchange *)

let meet ?lazy_walk ?obs ?(max_rounds = 100_000) seed g ~source ~agents =
  Engine.meet_exchange ?lazy_walk ?obs (Rng.of_int seed) g ~source ~agents ~max_rounds ()

let test_meet_agents_at_source_informed_at_zero () =
  let r = meet 151 (Gen.complete 8) ~source:2 ~agents:(Placement.All_at (2, 4)) in
  Alcotest.(check int) "all four informed at round 0" 4 r.Run_result.informed_curve.(0);
  Alcotest.(check (option int)) "broadcast at 0" (Some 0) r.Run_result.broadcast_time;
  Alcotest.(check (option int)) "all agents at 0" (Some 0) r.Run_result.all_agents_informed

let test_meet_first_visitor_picks_up () =
  (* all agents start away from the source, so the pickup happens at >= 1 *)
  let r = meet 152 (Gen.complete 8) ~source:0 ~agents:(Placement.All_at (3, 5)) in
  Alcotest.(check int) "nobody informed at round 0" 0 r.Run_result.informed_curve.(0);
  Alcotest.(check bool) "rumor picked up" true (Run_result.completed r)

let test_meet_completes_on_non_bipartite () =
  List.iter
    (fun (g, s) ->
      let r =
        meet ~max_rounds:1_000_000 153 g ~source:s ~agents:(Placement.Linear 1.0)
      in
      Alcotest.(check bool) "completed" true (Run_result.completed r))
    [ (Gen.complete 16, 0); (Gen.cycle 9, 2); (Gen.lollipop ~clique_size:5 ~tail_len:3, 0) ]

let test_meet_bipartite_non_lazy_can_stall () =
  (* on K2 with one agent per vertex and non-lazy walks, the two agents swap
     forever and never meet *)
  let r =
    meet ~lazy_walk:false ~max_rounds:1000 154 (Gen.complete 2) ~source:0
      ~agents:Placement.One_per_vertex
  in
  Alcotest.(check (option int)) "never completes" None r.Run_result.broadcast_time

let test_meet_bipartite_lazy_completes () =
  let r =
    meet ~lazy_walk:true 155 (Gen.complete 2) ~source:0 ~agents:Placement.One_per_vertex
  in
  Alcotest.(check bool) "lazy walks complete" true (Run_result.completed r)

let test_meet_default_detects_bipartite () =
  (* the star is bipartite; an omitted lazy_walk must choose lazy walks *)
  let r = meet 156 (Gen.star ~leaves:16) ~source:0 ~agents:(Placement.Linear 1.0) in
  Alcotest.(check bool) "completed via auto-lazy" true (Run_result.completed r)

let test_meet_curve_counts_agents () =
  let r = meet 157 (Gen.complete 12) ~source:0 ~agents:(Placement.Stationary 20) in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "final curve = all agents" 20 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_meet_no_informing_before_pickup () =
  (* Every agent is informed by exactly one contact.  The first round with
     any contact is the pickup, and all of its contacts come from the
     source: nobody holds the rumor before the pickup, so no meeting can
     inform anyone in that round or earlier. *)
  let contacts = ref [] and round = ref 0 in
  let obs =
    Instrument.make
      ~on_round_start:(fun r -> round := r)
      ~on_contact:(fun u a -> contacts := (!round, u, a) :: !contacts)
      ()
  in
  let r =
    meet ~obs ~max_rounds:1_000_000 158 (Gen.cycle 9) ~source:0
      ~agents:(Placement.Stationary 6)
  in
  let contacts = List.rev !contacts in
  let agents = List.sort_uniq Int.compare (List.map (fun (_, _, a) -> a) contacts) in
  Alcotest.(check int) "one contact per informed agent" 6 (List.length contacts);
  Alcotest.(check int) "each agent informed once" 6 (List.length agents);
  Alcotest.(check int) "contacts counted" 6 r.Run_result.contacts;
  match contacts with
  | [] -> Alcotest.fail "no pickup"
  | (pickup, _, _) :: _ ->
      List.iter
        (fun (t, u, a) ->
          if t = pickup && u <> 0 then
            Alcotest.failf "agent %d informed by vertex %d in the pickup round" a u)
        contacts

let test_meet_all_agents_eventually_informed () =
  let r = meet 159 (Gen.complete 10) ~source:0 ~agents:(Placement.Stationary 15) in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "all 15 informed" 15 curve.(Array.length curve - 1);
  Alcotest.(check bool) "all_agents_informed set" true
    (Option.is_some r.Run_result.all_agents_informed)

let test_meet_round_cap () =
  let r = meet ~max_rounds:2 160 (Gen.cycle 15) ~source:0 ~agents:(Placement.Stationary 2) in
  Alcotest.(check int) "rounds" 2 r.Run_result.rounds_run

let test_meet_all_agents_equals_broadcast () =
  let r = meet 161 (Gen.complete 9) ~source:0 ~agents:(Placement.Stationary 12) in
  Alcotest.(check (option int)) "all_agents_informed mirrors broadcast"
    r.Run_result.broadcast_time r.Run_result.all_agents_informed

let prop_meet_completes_with_lazy_walks =
  QCheck.Test.make ~count:15 ~name:"meetx with lazy walks completes everywhere"
    QCheck.(int_range 4 20)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 41) in
      let g = Gen_random.random_regular_connected rng ~n ~d:4 in
      Run_result.completed
        (Engine.meet_exchange ~lazy_walk:true rng g ~source:0
           ~agents:(Placement.Linear 1.0) ~max_rounds:1_000_000 ()))

(* ------------------------------------------------------------- combined *)

let combined ?(max_rounds = 1_000_000) seed g source =
  Engine.combined (Rng.of_int seed) g ~source ~agents:(Placement.Linear 1.0) ~max_rounds ()

let test_combined_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "completed" true (Run_result.completed (combined 171 g s)))
    [ (Gen.complete 2, 0); (Gen.cycle 11, 0); (Gen.star ~leaves:9, 2) ]

let test_combined_fast_on_double_star () =
  (* the component that defeats push-pull: combined must stay logarithmic *)
  let ds = Gen_paper.double_star ~leaves_per_star:256 in
  for seed = 0 to 4 do
    let r = combined (1720 + seed) ds.Gen_paper.ds_graph ds.Gen_paper.ds_leaf_a in
    Alcotest.(check bool)
      (Printf.sprintf "double star time %d small" (Run_result.time_exn r))
      true
      (Run_result.time_exn r <= 40)
  done

let test_combined_fast_on_heavy_tree () =
  (* the component that defeats visit-exchange *)
  let ht = Gen_paper.heavy_binary_tree ~levels:9 in
  for seed = 0 to 4 do
    let r = combined (1730 + seed) ht.Gen_paper.ht_graph ht.Gen_paper.ht_first_leaf in
    Alcotest.(check bool)
      (Printf.sprintf "heavy tree time %d small" (Run_result.time_exn r))
      true
      (Run_result.time_exn r <= 60)
  done

let test_combined_curve_monotone () =
  let curve = (combined 172 (Gen.torus ~rows:5 ~cols:5) 0).Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 25 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_combined_round_cap () =
  let r = combined ~max_rounds:2 173 (Gen.path 100) 0 in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time

let test_combined_source_out_of_range () =
  Alcotest.(check bool) "bad source rejected" true
    (try
       ignore (combined 174 (Gen.complete 3) 8);
       false
     with Invalid_argument _ -> true)

(* ----------------------------------------------- sparse walker kernels *)

(* Sparse runs follow a different sample path than dense (A10 gates the
   distribution); here we check the exact invariants: completion, seed determinism, the
   occupancy hook, and the dense-only restrictions. *)

let sparse = Engine.visit_exchange ~walkers:P.Sparse_walkers.Sparse

let test_sparse_visit_exchange_completes () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let r =
            sparse (Rng.of_int seed) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
          in
          Alcotest.(check bool) (name ^ ": completed") true (Run_result.completed r);
          Alcotest.(check bool)
            (name ^ ": all agents informed")
            true
            (r.Run_result.all_agents_informed <> None);
          let curve = r.Run_result.informed_curve in
          Alcotest.(check int)
            (name ^ ": curve ends at n")
            (Graph.n g)
            curve.(Array.length curve - 1);
          (* seed-deterministic: the same run twice is identical *)
          let r2 =
            sparse (Rng.of_int seed) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
          in
          check_same_result (Printf.sprintf "sparse ve %s seed=%d" name seed) r r2)
        seeds)
    (families ())

let test_sparse_meet_exchange_completes () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let r =
            Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_rounds:20_000 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "sparse me %s seed=%d: all informed" name seed)
            true
            (r.Run_result.all_agents_informed <> None);
          let r2 =
            Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_rounds:20_000 ()
          in
          check_same_result (Printf.sprintf "sparse me %s seed=%d" name seed) r r2)
        seeds)
    (families ())

let test_sparse_occupancy_hook () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let rec_ = Instrument.Recorder.create () in
  let (_ : Run_result.t) =
    sparse
      ~obs:(Instrument.Recorder.instrument rec_)
      (Rng.of_int 3) g ~source:0 ~agents:(Placement.Stationary 30)
      ~max_rounds:100_000 ()
  in
  Alcotest.(check bool) "occupancy events fired" true
    (Instrument.Recorder.occupancy_events rec_ > 0);
  (match Instrument.Recorder.last_occupied rec_ with
  | None -> Alcotest.fail "no occupancy recorded"
  | Some occ ->
      Alcotest.(check bool) "occupied in range" true (occ >= 1 && occ <= 25));
  (* dense kernels do not fire the aggregate hook *)
  let rec_d = Instrument.Recorder.create () in
  let (_ : Run_result.t) =
    Engine.visit_exchange
      ~obs:(Instrument.Recorder.instrument rec_d)
      (Rng.of_int 3) g ~source:0 ~agents:(Placement.Stationary 30)
      ~max_rounds:100_000 ()
  in
  Alcotest.(check int) "dense fires none" 0
    (Instrument.Recorder.occupancy_events rec_d)

let test_sparse_rejects_traffic () =
  let g = Gen.complete 8 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ve traffic + sparse" true
    (bad (fun () ->
         sparse ~traffic:(Traffic.create g) (Rng.of_int 1) g ~source:0
           ~agents:(Placement.Stationary 6) ~max_rounds:10 ()));
  Alcotest.(check bool) "ve tau + sparse" true
    (bad (fun () ->
         sparse ~tau:(Array.make 8 0) (Rng.of_int 1) g ~source:0
           ~agents:(Placement.Stationary 6) ~max_rounds:10 ()));
  Alcotest.(check bool) "me traffic + sparse" true
    (bad (fun () ->
         Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
           ~traffic:(Traffic.create g) (Rng.of_int 1) g ~source:0
           ~agents:(Placement.Stationary 6) ~max_rounds:10 ()))

(* ------------------------------------------------- views of one run agree *)

(* A kernel reports a run several ways at once: the Run_result, the [?tau]
   array, the [?obs] hooks and the [?traffic] loads.  These tests check that
   the views agree with each other, and that asking for an extra view never
   changes the run itself. *)

let walker_specs =
  [ ("stat12", Placement.Stationary 12); ("opv", Placement.One_per_vertex) ]

let informed_by tau t =
  Array.fold_left (fun acc x -> if x <= t then acc + 1 else acc) 0 tau

let check_tau_agrees label g ~source (r : Run_result.t) tau =
  Alcotest.(check int) (label ^ ": source at round 0") 0 tau.(source);
  let dist = Algo.bfs_distances g source in
  Array.iteri
    (fun v tv ->
      if tv < dist.(v) then
        Alcotest.failf "%s: vertex %d informed at %d < distance %d" label v tv dist.(v))
    tau;
  Array.iteri
    (fun t c ->
      Alcotest.(check int) (Printf.sprintf "%s: informed by round %d" label t) c
        (informed_by tau t))
    r.Run_result.informed_curve;
  Alcotest.(check int) (label ^ ": last informing round") (Run_result.time_exn r)
    (Array.fold_left max 0 tau)

let test_push_tau_agrees_with_curve () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let tau = Array.make (Graph.n g) 0 in
          let r = Engine.push ~tau (Rng.of_int seed) g ~source:0 ~max_rounds:100_000 () in
          check_tau_agrees (Printf.sprintf "push %s seed=%d" name seed) g ~source:0 r tau)
        seeds)
    (families ())

let test_visit_tau_agrees_with_curve () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (an, agents) ->
          List.iter
            (fun seed ->
              let tau = Array.make (Graph.n g) 0 in
              let r =
                Engine.visit_exchange ~tau (Rng.of_int seed) g ~source:0 ~agents
                  ~max_rounds:100_000 ()
              in
              check_tau_agrees
                (Printf.sprintf "visit-exchange %s %s seed=%d" name an seed)
                g ~source:0 r tau)
            seeds)
        walker_specs)
    (families ())

let test_walkers_auto_below_threshold_is_dense () =
  List.iter
    (fun (name, g) ->
      let agents = Placement.Stationary 12 in
      Alcotest.(check bool) (name ^ ": below the threshold") true
        (Placement.count agents g < P.Sparse_walkers.auto_threshold);
      List.iter
        (fun seed ->
          let label = Printf.sprintf "%s seed=%d" name seed in
          let ve walkers =
            Engine.visit_exchange ~walkers (Rng.of_int seed) g ~source:0 ~agents
              ~max_rounds:100_000 ()
          in
          check_same_result ("ve auto " ^ label) (ve P.Sparse_walkers.Dense)
            (ve P.Sparse_walkers.Auto);
          let me walkers =
            Engine.meet_exchange ~walkers (Rng.of_int seed) g ~source:0 ~agents
              ~max_rounds:20_000 ()
          in
          check_same_result ("me auto " ^ label) (me P.Sparse_walkers.Dense)
            (me P.Sparse_walkers.Auto))
        seeds)
    (families ())

(* An instrument logging, at every round end, the round, its informed
   count, the cumulative contact count it reports, and how many
   [on_contact] hooks have fired inside rounds 1 .. round so far; [moves]
   collects the (from, to) of every walker step. *)
type round_log = {
  obs : Instrument.t;
  started : int ref;
  ends : (int * int * int * int) list ref;
  moves : (int * int) list ref;
}

let round_log () =
  let started = ref 0 and fired = ref 0 and ends = ref [] and moves = ref [] in
  let in_round = ref false in
  let obs =
    Instrument.make
      ~on_round_start:(fun _ ->
        incr started;
        in_round := true)
      ~on_contact:(fun _ _ -> if !in_round then incr fired)
      ~on_round_end:(fun ~round ~informed ~contacts ->
        in_round := false;
        ends := (round, informed, contacts, !fired) :: !ends)
      ~on_walker_move:(fun ~agent:_ ~from_ ~to_ -> moves := (from_, to_) :: !moves)
      ()
  in
  { obs; started; ends; moves }

(* The round hooks replay the result: rounds 1 .. rounds_run in order, each
   round's informed count, and a cumulative contact count that grows by
   exactly the contacts announced during the round and ends at the
   result's.  Round 0 has no round hooks, so its contacts ([initial]) are
   the constant difference between the two counts. *)
let check_rounds_agree label ~initial (r : Run_result.t) log =
  let rounds = r.Run_result.rounds_run in
  Alcotest.(check int) (label ^ ": rounds started") rounds !(log.started);
  let ends = List.rev !(log.ends) in
  Alcotest.(check int) (label ^ ": rounds ended") rounds (List.length ends);
  List.iteri
    (fun i (round, informed, contacts, fired) ->
      if round <> i + 1 then Alcotest.failf "%s: round %d ended in slot %d" label round i;
      if informed <> r.Run_result.informed_curve.(round) then
        Alcotest.failf "%s: round %d reports %d informed, the curve %d" label round
          informed r.Run_result.informed_curve.(round);
      if contacts - fired <> initial then
        Alcotest.failf "%s: round %d reports %d contacts after %d announced ones" label
          round contacts fired)
    ends;
  match List.rev ends with
  | (_, _, contacts, _) :: _ ->
      Alcotest.(check int) (label ^ ": final contact count") r.Run_result.contacts
        contacts
  | [] ->
      Alcotest.(check int) (label ^ ": no rounds, no contacts") initial
        r.Run_result.contacts

let test_vertex_obs_stream_agrees () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let label kernel = Printf.sprintf "%s %s seed=%d" kernel name seed in
          let log = round_log () in
          let r =
            Engine.push ~obs:log.obs (Rng.of_int seed) g ~source:0 ~max_rounds:100_000 ()
          in
          check_rounds_agree (label "push") ~initial:0 r log;
          let log = round_log () in
          let r =
            Engine.push_pull ~obs:log.obs (Rng.of_int seed) g ~source:0
              ~max_rounds:100_000 ()
          in
          check_rounds_agree (label "push-pull") ~initial:0 r log)
        seeds)
    (families ())

(* every agent steps once per round: along an edge, or in place when lazy *)
let check_walks label g ~lazy_walk ~agents (r : Run_result.t) log =
  Alcotest.(check int) (label ^ ": one move per agent per round")
    (agents * r.Run_result.rounds_run) (List.length !(log.moves));
  List.iter
    (fun (u, v) ->
      if not ((lazy_walk && u = v) || Graph.mem_edge g u v) then
        Alcotest.failf "%s: step %d -> %d is not a walk step" label u v)
    !(log.moves)

let test_walker_obs_stream_agrees () =
  let k = 12 in
  let agents = Placement.Stationary k in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun lazy_walk ->
          let label kernel = Printf.sprintf "%s %s lazy=%b" kernel name lazy_walk in
          let log = round_log () in
          let r =
            Engine.visit_exchange ~obs:log.obs ~lazy_walk (Rng.of_int 8) g ~source:0
              ~agents ~max_rounds:100_000 ()
          in
          (* visit-exchange's round 0 informs the agents standing on the
             source; round 1's k steps start from the initial positions *)
          let on_source =
            List.filteri (fun i (u, _) -> i < k && u = 0) (List.rev !(log.moves))
            |> List.length
          in
          check_rounds_agree (label "visit-exchange") ~initial:on_source r log;
          check_walks (label "visit-exchange") g ~lazy_walk ~agents:k r log;
          (* meet-exchange needs lazy walks to finish on bipartite graphs;
             its curve counts agents, so round 0's contacts are curve.(0) *)
          if lazy_walk || not (Algo.is_bipartite g) then begin
            let log = round_log () in
            let r =
              Engine.meet_exchange ~obs:log.obs ~lazy_walk (Rng.of_int 8) g ~source:0
                ~agents ~max_rounds:20_000 ()
            in
            check_rounds_agree (label "meet-exchange")
              ~initial:r.Run_result.informed_curve.(0) r log;
            check_walks (label "meet-exchange") g ~lazy_walk ~agents:k r log
          end)
        [ false; true ])
    (families ())

type observed_kernel = ?obs:Instrument.t -> Rng.t -> Graph.t -> Run_result.t
type metered_kernel = ?traffic:Traffic.t -> Rng.t -> Graph.t -> Run_result.t

let test_obs_does_not_perturb_runs () =
  let agents = Placement.Stationary 12 in
  let kernels : (string * observed_kernel) list =
    [
      ("push", fun ?obs rng g -> Engine.push ?obs rng g ~source:0 ~max_rounds:100_000 ());
      ("push-pull", fun ?obs rng g ->
          Engine.push_pull ?obs rng g ~source:0 ~max_rounds:100_000 ());
      ("visit-exchange", fun ?obs rng g ->
          Engine.visit_exchange ?obs rng g ~source:0 ~agents ~max_rounds:100_000 ());
      ("meet-exchange", fun ?obs rng g ->
          Engine.meet_exchange ?obs rng g ~source:0 ~agents ~max_rounds:20_000 ());
      ("combined", fun ?obs rng g ->
          Engine.combined ?obs rng g ~source:0 ~agents ~max_rounds:100_000 ());
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun ((kernel, run) : string * observed_kernel) ->
          let plain = run (Rng.of_int 21) g in
          let obs = Instrument.Recorder.instrument (Instrument.Recorder.create ()) in
          let observed = run ~obs (Rng.of_int 21) g in
          check_same_result (Printf.sprintf "%s %s observed" kernel name) plain observed)
        kernels)
    (families ())

let test_traffic_does_not_perturb_runs () =
  let agents = Placement.Stationary 12 in
  let kernels : (string * metered_kernel) list =
    [
      ("push", fun ?traffic rng g ->
          Engine.push ?traffic rng g ~source:0 ~max_rounds:100_000 ());
      ("push-pull", fun ?traffic rng g ->
          Engine.push_pull ?traffic rng g ~source:0 ~max_rounds:100_000 ());
      ("visit-exchange", fun ?traffic rng g ->
          Engine.visit_exchange ?traffic rng g ~source:0 ~agents ~max_rounds:100_000 ());
      ("meet-exchange", fun ?traffic rng g ->
          Engine.meet_exchange ?traffic rng g ~source:0 ~agents ~max_rounds:20_000 ());
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun ((kernel, run) : string * metered_kernel) ->
          let plain = run (Rng.of_int 22) g in
          let metered = run ~traffic:(Traffic.create g) (Rng.of_int 22) g in
          check_same_result (Printf.sprintf "%s %s metered" kernel name) plain metered)
        kernels)
    (families ())

let test_call_traffic_totals_contacts () =
  (* every call of push-pull, and every push call whether or not its payload
     is lost, is one use of one edge *)
  List.iter
    (fun (name, g) ->
      let metered run =
        let traffic = Traffic.create g in
        let r = run traffic in
        (r, Traffic.loads traffic)
      in
      let pp traffic =
        Engine.push_pull ~traffic (Rng.of_int 9) g ~source:0 ~max_rounds:100_000 ()
      in
      let r, loads = metered pp in
      Alcotest.(check int) (name ^ ": push-pull loads total the contacts")
        r.Run_result.contacts (Array.fold_left ( + ) 0 loads);
      Alcotest.(check int) (name ^ ": push-pull calls n per round")
        (Graph.n g * r.Run_result.rounds_run) r.Run_result.contacts;
      Alcotest.(check (array int)) (name ^ ": loads fixed by the seed") loads
        (snd (metered pp));
      let r, loads =
        metered (fun traffic ->
            Engine.push ~traffic ~failure_prob:0.3 (Rng.of_int 9) g ~source:0
              ~max_rounds:100_000 ())
      in
      Alcotest.(check int) (name ^ ": failing push loads total the contacts")
        r.Run_result.contacts (Array.fold_left ( + ) 0 loads))
    (families ())

let test_walker_traffic_counts_edge_steps () =
  (* walker traffic is one use per step along an edge; lazy stays are free *)
  List.iter
    (fun (name, g) ->
      let agents = Placement.Stationary 12 in
      let steps = ref 0 in
      let obs =
        Instrument.make
          ~on_walker_move:(fun ~agent:_ ~from_ ~to_ -> if from_ <> to_ then incr steps)
          ()
      in
      List.iter
        (fun (kernel, run) ->
          steps := 0;
          let traffic = Traffic.create g in
          let (_ : Run_result.t) = run traffic in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: traffic = edge steps" kernel name)
            !steps (Traffic.total traffic))
        [
          ("visit-exchange", fun traffic ->
              Engine.visit_exchange ~obs ~traffic ~lazy_walk:true (Rng.of_int 10) g
                ~source:0 ~agents ~max_rounds:100_000 ());
          ("meet-exchange", fun traffic ->
              Engine.meet_exchange ~obs ~traffic ~lazy_walk:true (Rng.of_int 10) g
                ~source:0 ~agents ~max_rounds:20_000 ());
        ])
    (families ())

let test_meet_omitted_lazy_is_bipartiteness () =
  List.iter
    (fun (name, g, bipartite) ->
      Alcotest.(check bool) (name ^ ": bipartite") bipartite (Algo.is_bipartite g);
      List.iter
        (fun seed ->
          let me ?lazy_walk () =
            Engine.meet_exchange ?lazy_walk (Rng.of_int seed) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:20_000 ()
          in
          check_same_result
            (Printf.sprintf "%s seed=%d omitted lazy_walk" name seed)
            (me ~lazy_walk:bipartite ()) (me ()))
        seeds)
    [
      ("complete16", Gen.complete 16, false);
      ("cycle9", Gen.cycle 9, false);
      ("torus6x6", Gen.torus ~rows:6 ~cols:6, true);
      ("star9", Gen.star ~leaves:9, true);
    ]

(* --------------------------------------------- sharded-path determinism *)

let sharded_runs ~shards ~jobs =
  let pool = Pool.create ~jobs in
  (* connected with min degree 4: push_pull draws a neighbor for every
     vertex, so the sharded sweep needs no isolated vertices *)
  let g = Gen.torus ~rows:8 ~cols:8 in
  [
    ("push", Engine.push ~shards ~pool (Rng.of_int 11) g ~source:0 ~max_rounds:100_000 ());
    ( "push_pull",
      Engine.push_pull ~shards ~pool (Rng.of_int 11) g ~source:0 ~max_rounds:100_000 () );
    ( "visit_exchange",
      Engine.visit_exchange ~shards ~pool (Rng.of_int 11) g ~source:0
        ~agents:(Placement.Stationary 20) ~max_rounds:100_000 () );
    ( "meet_exchange",
      Engine.meet_exchange ~shards ~pool (Rng.of_int 11) g ~source:0
        ~agents:(Placement.Stationary 20) ~max_rounds:20_000 () );
  ]

let test_sharded_jobs_invariant () =
  (* shards = 4 must give the same answer whether the pool runs 1 or 4 jobs *)
  List.iter2
    (fun (name, r1) (name2, r4) ->
      Alcotest.(check string) "same kernel" name name2;
      check_same_result (name ^ " jobs 1 vs 4") r1 r4)
    (sharded_runs ~shards:4 ~jobs:1)
    (sharded_runs ~shards:4 ~jobs:4)

let test_sharded_runs_complete () =
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) (name ^ " completes sharded") true (Run_result.completed r))
    (sharded_runs ~shards:3 ~jobs:2)

let test_sharded_push_same_distribution_shape () =
  (* sharded randomness differs from sequential, but the curve must still be
     a valid push curve: monotone, at-most-doubling, ending at n *)
  let g = Gen.complete 32 in
  let r =
    Engine.push ~shards:4 ~pool:(Pool.create ~jobs:1) (Rng.of_int 13) g ~source:0
      ~max_rounds:100_000 ()
  in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 32 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone";
    if curve.(i) > 2 * curve.(i - 1) then Alcotest.fail "curve more than doubled"
  done

(* -------------------------------------------- huge-cap allocation bound *)

let test_huge_cap_completes () =
  (* max_rounds = max_int must be safe: memory is O(rounds run), not O(cap) *)
  let g = Gen.path 40 in
  let before = Gc.allocated_bytes () in
  let r = Engine.push (Rng.of_int 17) g ~source:0 ~max_rounds:max_int () in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "completed" true (Run_result.completed r);
  (* a complete path-40 run allocates well under a megabyte; an O(cap)
     curve would be ~70 TB here *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation bounded (%.0f bytes)" allocated)
    true
    (allocated < 1_000_000.0)

let test_huge_cap_walkers () =
  let g = Gen.complete 8 in
  let r =
    Engine.meet_exchange (Rng.of_int 19) g ~source:0
      ~agents:(Placement.Stationary 6) ~max_rounds:max_int ()
  in
  Alcotest.(check bool) "completed" true (Run_result.completed r)

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () -> Engine.push (Rng.of_int 1) g ~source:9 ~max_rounds:10 ()));
  Alcotest.(check bool) "negative cap" true
    (bad (fun () -> Engine.push_pull (Rng.of_int 1) g ~source:0 ~max_rounds:(-1) ()));
  Alcotest.(check bool) "zero shards" true
    (bad (fun () -> Engine.push ~shards:0 (Rng.of_int 1) g ~source:0 ~max_rounds:10 ()));
  Alcotest.(check bool) "bad failure prob" true
    (bad (fun () ->
         Engine.push ~failure_prob:1.0 (Rng.of_int 1) g ~source:0 ~max_rounds:10 ()));
  Alcotest.(check bool) "short tau" true
    (bad (fun () ->
         Engine.push ~tau:(Array.make 2 0) (Rng.of_int 1) g ~source:0 ~max_rounds:10 ()));
  Alcotest.(check bool) "visit-exchange short tau" true
    (bad (fun () ->
         Engine.visit_exchange ~tau:(Array.make 2 0) (Rng.of_int 1) g ~source:0
           ~agents:(Placement.Stationary 3) ~max_rounds:10 ()))

(* ------------------------------------------------------------ curve buf *)

let test_curve_buf () =
  let b = P.Curve_buf.create ~hint:max_int in
  Alcotest.(check int) "empty" 0 (P.Curve_buf.length b);
  for i = 0 to 999 do
    P.Curve_buf.push b (i * i)
  done;
  Alcotest.(check int) "length" 1000 (P.Curve_buf.length b);
  Alcotest.(check int) "get" (25 * 25) (P.Curve_buf.get b 25);
  P.Curve_buf.set_last b 7;
  let c = P.Curve_buf.contents b in
  Alcotest.(check int) "contents length" 1000 (Array.length c);
  Alcotest.(check int) "set_last" 7 c.(999);
  Alcotest.(check int) "tiny hint ok" 0 (P.Curve_buf.length (P.Curve_buf.create ~hint:0))

(* ------------------------------------- disabled-trace fast path is free *)

let test_disabled_trace_allocation_free () =
  (* Two disjoint edges: push from 0 can never reach {2, 3}, so the run is
     capped after exactly max_rounds rounds, and running two caps that
     differ by many rounds isolates the marginal allocation per round.
     Random draws dominate that figure (two neighbor draws per round here),
     so the engine's marginal cost is compared against a bare loop making
     the same draws rather than against an absolute bound: the per-draw
     cost cancels and what remains is the engine's own per-round overhead,
     which the disabled [?trace] plumbing must not grow — a with_span
     closure or per-round [Some] cells at the three trace sites per round
     would move it. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let allocated f cap =
    let before = Gc.allocated_bytes () in
    f cap;
    Gc.allocated_bytes () -. before
  in
  let marginal f =
    ignore (allocated f 16);
    (* warm-up pays one-time allocation *)
    (allocated f 12_000 -. allocated f 2_000) /. 10_000.0
  in
  let engine =
    marginal (fun cap ->
        let r = Engine.push (Rng.of_int 5) g ~source:0 ~max_rounds:cap () in
        if Run_result.completed r || r.Run_result.rounds_run <> cap then
          Alcotest.fail "run not capped after max_rounds")
  in
  let draws =
    marginal (fun cap ->
        let rng = Rng.of_int 5 in
        for _ = 1 to cap do
          ignore (Graph.random_neighbor g rng 0 : int);
          ignore (Graph.random_neighbor g rng 1 : int)
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "engine per-round allocation overhead %.1f B (engine %.1f, draws %.1f) \
        < 256 B"
       (engine -. draws) engine draws)
    true
    (engine -. draws < 256.0)

let suite =
  [
    Alcotest.test_case "push: K2 exact" `Quick test_push_k2_exact;
    Alcotest.test_case "push: single vertex" `Quick test_push_single_vertex;
    Alcotest.test_case "push: complete graph" `Quick test_push_complete_graph;
    Alcotest.test_case "push: time >= eccentricity" `Quick
      test_push_time_at_least_eccentricity;
    Alcotest.test_case "push: informed curve shape" `Quick test_push_curve_shape;
    Alcotest.test_case "push: contacts counted" `Quick test_push_contacts_counted;
    Alcotest.test_case "push: round cap" `Quick test_push_round_cap;
    Alcotest.test_case "push: zero cap" `Quick test_push_zero_cap;
    Alcotest.test_case "push: informing rounds (tau)" `Quick test_push_tau;
    Alcotest.test_case "push: star is coupon-collector slow" `Quick
      test_push_star_is_coupon_collector_slow;
    Alcotest.test_case "push: failure prob 0 is plain push" `Quick
      test_push_failure_prob_zero_is_plain;
    Alcotest.test_case "push: failures slow by ~1/(1-p)" `Quick
      test_push_failure_prob_slows_by_inverse_rate;
    Alcotest.test_case "push: deterministic by seed" `Quick
      test_push_deterministic_given_seed;
    Alcotest.test_case "push: traffic recording" `Quick test_push_traffic_recording;
    QCheck_alcotest.to_alcotest prop_push_completes_on_connected_regular;
    Alcotest.test_case "push-pull: K2 exact" `Quick test_push_pull_k2_exact;
    Alcotest.test_case "push-pull: star from center, 1 round" `Quick
      test_push_pull_star_from_center_one_round;
    Alcotest.test_case "push-pull: star from leaf, <= 2 rounds" `Quick
      test_push_pull_star_from_leaf_two_rounds;
    Alcotest.test_case "push-pull: n contacts per round" `Quick
      test_push_pull_contacts_n_per_round;
    Alcotest.test_case "push-pull: time >= eccentricity" `Quick
      test_push_pull_time_at_least_eccentricity;
    Alcotest.test_case "push-pull: curve monotone" `Quick test_push_pull_curve_monotone;
    Alcotest.test_case "push-pull: round cap" `Quick test_push_pull_round_cap;
    Alcotest.test_case "push-pull: beats push on the star" `Quick
      test_push_pull_beats_push_on_star;
    Alcotest.test_case "push-pull: no double counting" `Quick
      test_push_pull_no_double_counting;
    QCheck_alcotest.to_alcotest prop_push_pull_completes_on_regular;
    Alcotest.test_case "visit-exchange: completes on small graphs" `Quick
      test_visit_completes_on_small_graphs;
    Alcotest.test_case "visit-exchange: source informed at round 0" `Quick
      test_visit_source_tau_zero;
    Alcotest.test_case "visit-exchange: tau respects distance" `Quick
      test_visit_tau_respects_distance;
    Alcotest.test_case "visit-exchange: agents on source informed at 0" `Quick
      test_visit_agents_on_source_informed_at_zero;
    Alcotest.test_case "visit-exchange: agents eventually informed" `Quick
      test_visit_agents_eventually_informed;
    Alcotest.test_case "visit-exchange: all agents done by broadcast" `Quick
      test_visit_all_agents_informed_at_broadcast;
    Alcotest.test_case "visit-exchange: single agent covers" `Quick
      test_visit_single_agent_covers;
    Alcotest.test_case "visit-exchange: curve monotone and bounded" `Quick
      test_visit_curve_monotone_and_bounded;
    Alcotest.test_case "visit-exchange: round cap" `Quick test_visit_round_cap;
    Alcotest.test_case "visit-exchange: lazy walks complete" `Quick
      test_visit_lazy_walks_complete;
    Alcotest.test_case "visit-exchange: deterministic by seed" `Quick
      test_visit_deterministic_by_seed;
    Alcotest.test_case "visit-exchange: more agents not slower" `Quick
      test_visit_more_agents_not_slower;
    Alcotest.test_case "visit-exchange: source out of range" `Quick
      test_visit_source_out_of_range;
    QCheck_alcotest.to_alcotest prop_visit_tau_distance_bound;
    Alcotest.test_case "meet-exchange: agents at source informed at 0" `Quick
      test_meet_agents_at_source_informed_at_zero;
    Alcotest.test_case "meet-exchange: first visitor picks up" `Quick
      test_meet_first_visitor_picks_up;
    Alcotest.test_case "meet-exchange: completes on non-bipartite" `Quick
      test_meet_completes_on_non_bipartite;
    Alcotest.test_case "meet-exchange: bipartite non-lazy stalls" `Quick
      test_meet_bipartite_non_lazy_can_stall;
    Alcotest.test_case "meet-exchange: bipartite lazy completes" `Quick
      test_meet_bipartite_lazy_completes;
    Alcotest.test_case "meet-exchange: default detects bipartite" `Quick
      test_meet_default_detects_bipartite;
    Alcotest.test_case "meet-exchange: curve counts agents" `Quick
      test_meet_curve_counts_agents;
    Alcotest.test_case "meet-exchange: no informing before pickup" `Quick
      test_meet_no_informing_before_pickup;
    Alcotest.test_case "meet-exchange: all agents eventually informed" `Quick
      test_meet_all_agents_eventually_informed;
    Alcotest.test_case "meet-exchange: round cap" `Quick test_meet_round_cap;
    Alcotest.test_case "meet-exchange: all_agents_informed mirrors broadcast" `Quick
      test_meet_all_agents_equals_broadcast;
    QCheck_alcotest.to_alcotest prop_meet_completes_with_lazy_walks;
    Alcotest.test_case "combined: completes on small graphs" `Quick
      test_combined_completes_on_small_graphs;
    Alcotest.test_case "combined: fast on double star" `Quick
      test_combined_fast_on_double_star;
    Alcotest.test_case "combined: fast on heavy tree" `Quick
      test_combined_fast_on_heavy_tree;
    Alcotest.test_case "combined: curve monotone" `Quick test_combined_curve_monotone;
    Alcotest.test_case "combined: round cap" `Quick test_combined_round_cap;
    Alcotest.test_case "combined: source out of range" `Quick
      test_combined_source_out_of_range;
    Alcotest.test_case "push: tau agrees with the curve" `Quick
      test_push_tau_agrees_with_curve;
    Alcotest.test_case "visit-exchange: tau agrees with the curve" `Quick
      test_visit_tau_agrees_with_curve;
    Alcotest.test_case "auto below threshold is dense" `Quick
      test_walkers_auto_below_threshold_is_dense;
    Alcotest.test_case "push/push-pull: obs stream agrees with the result" `Quick
      test_vertex_obs_stream_agrees;
    Alcotest.test_case "walker obs stream agrees with the result" `Quick
      test_walker_obs_stream_agrees;
    Alcotest.test_case "observing does not perturb runs" `Quick
      test_obs_does_not_perturb_runs;
    Alcotest.test_case "metering traffic does not perturb runs" `Quick
      test_traffic_does_not_perturb_runs;
    Alcotest.test_case "call traffic totals the contacts" `Quick
      test_call_traffic_totals_contacts;
    Alcotest.test_case "walker traffic counts edge steps" `Quick
      test_walker_traffic_counts_edge_steps;
    Alcotest.test_case "meet-exchange: omitted lazy_walk is bipartiteness" `Quick
      test_meet_omitted_lazy_is_bipartiteness;
    Alcotest.test_case "sharded: jobs cannot change output" `Quick
      test_sharded_jobs_invariant;
    Alcotest.test_case "sharded runs complete" `Quick test_sharded_runs_complete;
    Alcotest.test_case "sharded push curve shape" `Quick
      test_sharded_push_same_distribution_shape;
    Alcotest.test_case "max_int cap: O(rounds) allocation" `Quick test_huge_cap_completes;
    Alcotest.test_case "disabled trace allocation-free" `Quick
      test_disabled_trace_allocation_free;
    Alcotest.test_case "max_int cap: walkers" `Quick test_huge_cap_walkers;
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "curve buffer" `Quick test_curve_buf;
    Alcotest.test_case "sparse visit-exchange completes deterministically" `Quick
      test_sparse_visit_exchange_completes;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_sparse_meet_exchange_completes;
    Alcotest.test_case "sparse occupancy hook" `Quick test_sparse_occupancy_hook;
    Alcotest.test_case "sparse rejects traffic and tau" `Quick
      test_sparse_rejects_traffic;
  ]
