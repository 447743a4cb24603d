(* Quickstart: build a graph, run all four protocols, compare broadcast
   times.

     dune exec examples/quickstart.exe

   This is the 60-second tour of the public API:
   - Rumor_graph.Gen_random / Gen_basic / Gen_paper build graphs;
   - Rumor_protocols.Engine.{push, push_pull, visit_exchange,
     meet_exchange} run one protocol each and return a Run_result.t;
   - everything is deterministic given the Rng seed. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module P = Rumor_protocols
open Rumor_agents.Placement

let () =
  (* a random 10-regular graph on 1024 vertices: the setting of Theorem 1,
     where all four protocols finish in O(log n) rounds *)
  let rng = Rng.of_int 42 in
  let g = Rumor_graph.Gen_random.random_regular_connected rng ~n:1024 ~d:10 in
  let source = 0 in
  Format.printf "graph: %a@." Graph.pp g;
  Format.printf "source: vertex %d@.@." source;

  (* the paper's default agent population: |A| = n agents started from the
     stationary distribution *)
  let agents = Linear 1.0 in
  let max_rounds = 100_000 in

  let show name (r : P.Run_result.t) =
    Format.printf "  %-14s %a@." name P.Run_result.pp r
  in
  Format.printf "broadcast times (ln n = %.1f):@." (log (float_of_int (Graph.n g)));
  show "push" (P.Engine.push (Rng.of_int 1) g ~source ~max_rounds ());
  show "push-pull" (P.Engine.push_pull (Rng.of_int 2) g ~source ~max_rounds ());
  show "visit-exchange"
    (P.Engine.visit_exchange (Rng.of_int 3) g ~source ~agents ~max_rounds ());
  show "meet-exchange"
    (P.Engine.meet_exchange (Rng.of_int 4) g ~source ~agents ~max_rounds ());

  (* the informed-count curve shows the classic logistic shape *)
  let r = P.Engine.push (Rng.of_int 5) g ~source ~max_rounds () in
  Format.printf "@.push informed-count curve:@.";
  Array.iteri
    (fun t c ->
      let bar = String.make (60 * c / Graph.n g) '#' in
      Format.printf "  round %2d %5d %s@." t c bar)
    r.P.Run_result.informed_curve
