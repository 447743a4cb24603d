(* The full protocol zoo on one graph.

     dune exec examples/protocol_zoo.exe

   Runs every information-spreading process in the library — the paper's
   four protocols, the hybrid, and the related-work processes (quasirandom
   push, COBRA walks, the frog model, asynchronous push) — on the same
   random regular graph, printing broadcast times and informed-curve
   sparklines.  A compact tour of the whole public API. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module P = Rumor_protocols
module Protocol = Rumor_sim.Protocol
module Sparkline = Rumor_sim.Sparkline
open Rumor_agents.Placement

let () =
  let rng = Rng.of_int 2024 in
  let n = 1024 in
  let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:10 in
  Format.printf "graph: %a   (ln n = %.1f)@.@." Graph.pp g (log (float_of_int n));

  let specs =
    [
      Protocol.push;
      Protocol.push_pull;
      Protocol.pull;
      Protocol.quasi_push;
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
      Protocol.combined ();
      Protocol.cobra ();
      Protocol.frog ();
    ]
  in
  Format.printf "%-16s %6s %5s  %-40s@." "protocol" "rounds" "t50" "informed curve";
  List.iteri
    (fun i spec ->
      let r = Protocol.run spec (Rng.of_int (100 + i)) g ~source:0 ~max_rounds:100_000 in
      let time =
        match r.P.Run_result.broadcast_time with
        | Some t -> string_of_int t
        | None -> ">" ^ string_of_int r.P.Run_result.rounds_run
      in
      let half =
        match Rumor_sim.Curve_stats.half_time r with
        | Some h -> string_of_int h
        | None -> "-"
      in
      Format.printf "%-16s %6s %5s  %s@." (Protocol.name spec) time half
        (Sparkline.render_ints ~width:40 r.P.Run_result.informed_curve))
    specs;

  (* the asynchronous variants live outside the synchronous dispatcher *)
  Format.printf "@.asynchronous variants (continuous time):@.";
  List.iter
    (fun (name, variant) ->
      let r =
        P.Async_engine.push (Rng.of_int 999) g ~variant ~source:0 ~max_time:1e6
      in
      match r.P.Async_push.broadcast_time with
      | Some t ->
          Format.printf "  %-18s %.1f time units (%d clock rings)@." name t
            r.P.Async_push.rings
      | None -> Format.printf "  %-18s did not complete@." name)
    [
      ("async push", P.Async_push.Async_push);
      ("async push-pull", P.Async_push.Async_push_pull);
    ];

  (* and the dynamic population variant, under churn *)
  Format.printf "@.visit-exchange under 20%% churn per round (with births):@.";
  let o =
    P.Dynamic_visit_exchange.run (Rng.of_int 7) g ~source:0 ~agents:(Linear 1.0)
      ~churn:0.2 ~replace:true ~max_rounds:100_000 ()
  in
  Format.printf "  %a; %d births, %d deaths, final population %d@."
    P.Run_result.pp o.P.Dynamic_visit_exchange.result
    o.P.Dynamic_visit_exchange.births o.P.Dynamic_visit_exchange.deaths
    o.P.Dynamic_visit_exchange.final_population
