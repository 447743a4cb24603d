(* The double-star separation (Fig 1(b), Lemma 3).

     dune exec examples/double_star_demo.exe

   Two stars joined by a single center-center edge.  push-pull picks that
   bridge with probability O(1/n) per round, so it needs Omega(n) rounds in
   expectation; the agent-based protocols cross it with constant probability
   per round and finish in O(log n).  This example sweeps the graph size and
   prints the growing separation, then zooms into one run to show *where*
   push-pull loses: the round at which the rumor first crosses the bridge. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen_paper = Rumor_graph.Gen_paper
module P = Rumor_protocols
open Rumor_agents.Placement

let mean_time protocol_run seeds =
  let total = ref 0 in
  List.iter (fun s -> total := !total + P.Run_result.time_exn (protocol_run s)) seeds;
  float_of_int !total /. float_of_int (List.length seeds)

let () =
  Format.printf "double-star sweep (source: a leaf of star a):@.";
  Format.printf "  %8s %12s %12s %12s@." "n" "push-pull" "visit-exch" "meet-exch";
  List.iter
    (fun leaves ->
      let ds = Gen_paper.double_star ~leaves_per_star:leaves in
      let g = ds.Gen_paper.ds_graph and s = ds.Gen_paper.ds_leaf_a in
      let seeds = List.init 7 (fun i -> (leaves * 100) + i) in
      let pp =
        mean_time
          (fun seed -> P.Engine.push_pull (Rng.of_int seed) g ~source:s ~max_rounds:1_000_000 ())
          seeds
      in
      let vx =
        mean_time
          (fun seed ->
            P.Engine.visit_exchange (Rng.of_int seed) g ~source:s ~agents:(Linear 1.0)
              ~max_rounds:100_000 ())
          seeds
      in
      let mx =
        mean_time
          (fun seed ->
            P.Engine.meet_exchange (Rng.of_int seed) g ~source:s ~agents:(Linear 1.0)
              ~max_rounds:100_000 ())
          seeds
      in
      Format.printf "  %8d %12.1f %12.1f %12.1f@." (Graph.n g) pp vx mx)
    [ 64; 128; 256; 512; 1024 ];

  (* zoom: when does the rumor cross the bridge? *)
  let ds = Gen_paper.double_star ~leaves_per_star:512 in
  let g = ds.Gen_paper.ds_graph in
  let b = ds.Gen_paper.ds_center_b in
  Format.printf "@.bridge-crossing round on n=%d (rumor reaching center b):@." (Graph.n g);
  let pp_cross =
    (* push-pull's broadcast time bounds its crossing round from above *)
    let r =
      P.Engine.push_pull (Rng.of_int 9) g ~source:ds.Gen_paper.ds_leaf_a
        ~max_rounds:1_000_000 ()
    in
    P.Run_result.time_exn r
  in
  (* visit-exchange's per-vertex informing rounds give b's exact time *)
  let tau = Array.make (Graph.n g) 0 in
  let (_ : P.Run_result.t) =
    P.Engine.visit_exchange ~tau (Rng.of_int 9) g ~source:ds.Gen_paper.ds_leaf_a
      ~agents:(Linear 1.0) ~max_rounds:100_000 ()
  in
  Format.printf "  push-pull finishes (upper bound on crossing): round %d@." pp_cross;
  Format.printf "  visit-exchange informs center b at:           round %d@." tau.(b);
  Format.printf
    "@.the separation is the paper's local-fairness argument: agents use every@.";
  Format.printf "edge (including the bridge) at the same per-round rate.@."
