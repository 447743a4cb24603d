(* Tests for Rumor_sim.Protocol: uniform dispatch. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Protocol = Rumor_sim.Protocol
module Run_result = Rumor_protocols.Run_result

let test_names () =
  Alcotest.(check string) "push" "push" (Protocol.name Protocol.push);
  Alcotest.(check string) "push-pull" "push-pull" (Protocol.name Protocol.push_pull);
  Alcotest.(check string) "visitx" "visit-exchange"
    (Protocol.name (Protocol.visit_exchange ()));
  Alcotest.(check string) "meetx" "meet-exchange"
    (Protocol.name (Protocol.meet_exchange ()));
  Alcotest.(check string) "combined" "combined" (Protocol.name (Protocol.combined ()));
  Alcotest.(check string) "quasi" "quasi-push" (Protocol.name Protocol.quasi_push);
  Alcotest.(check string) "cobra" "cobra" (Protocol.name (Protocol.cobra ()));
  Alcotest.(check string) "frog" "frog" (Protocol.name (Protocol.frog ()));
  Alcotest.(check string) "flood" "flood" (Protocol.name Protocol.flood);
  Alcotest.(check string) "async-push" "async-push"
    (Protocol.name Protocol.async_push);
  Alcotest.(check string) "async-push-pull" "async-push-pull"
    (Protocol.name Protocol.async_push_pull);
  Alcotest.(check string) "async-meetx" "async-meet-exchange"
    (Protocol.name (Protocol.async_meet_exchange ()))

let test_dispatch_matches_direct_push () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let via_dispatch =
    Protocol.run Protocol.push (Rng.of_int 201) g ~source:0 ~max_rounds:10_000
  in
  let direct =
    Rumor_protocols.Engine.push (Rng.of_int 201) g ~source:0 ~max_rounds:10_000 ()
  in
  Alcotest.(check (option int)) "same result" direct.Run_result.broadcast_time
    via_dispatch.Run_result.broadcast_time

let test_all_protocols_complete () =
  let g = Gen.complete 16 in
  List.iter
    (fun spec ->
      let r = Protocol.run spec (Rng.of_int 202) g ~source:0 ~max_rounds:100_000 in
      Alcotest.(check bool) (Protocol.name spec ^ " completes") true
        (Run_result.completed r))
    [
      Protocol.push;
      Protocol.push_pull;
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
      Protocol.combined ();
      Protocol.quasi_push;
      Protocol.cobra ();
      Protocol.frog ();
      Protocol.flood;
      Protocol.async_push;
      Protocol.async_push_pull;
      Protocol.async_meet_exchange ();
    ]

(* the async specs dispatch to Async_engine with [max_rounds] as the time
   horizon, projected through [to_run_result]; [run_engine] is [run] *)
let test_async_dispatch_matches_engine () =
  let module P = Rumor_protocols in
  let g = Gen.torus ~rows:5 ~cols:5 in
  List.iter
    (fun (spec, direct) ->
      let a = Protocol.run spec (Rng.of_int 205) g ~source:0 ~max_rounds:10_000 in
      let b = direct (Rng.of_int 205) in
      let c =
        Protocol.run_engine spec (Rng.of_int 205) g ~source:0 ~max_rounds:10_000
      in
      let label = Protocol.name spec in
      List.iter
        (fun (what, (x : Run_result.t)) ->
          Alcotest.(check (option int))
            (label ^ what ^ ": broadcast_time") x.Run_result.broadcast_time
            a.Run_result.broadcast_time;
          Alcotest.(check (array int))
            (label ^ what ^ ": curve") x.Run_result.informed_curve
            a.Run_result.informed_curve;
          Alcotest.(check int) (label ^ what ^ ": contacts") x.Run_result.contacts
            a.Run_result.contacts)
        [ (" direct", b); (" run_engine", c) ])
    [
      ( Protocol.async_push,
        fun rng ->
          P.Async_push.to_run_result
            (P.Async_engine.push rng g ~variant:P.Async_push.Async_push ~source:0
               ~max_time:10_000.0) );
      ( Protocol.async_push_pull,
        fun rng ->
          P.Async_push.to_run_result
            (P.Async_engine.push rng g ~variant:P.Async_push.Async_push_pull
               ~source:0 ~max_time:10_000.0) );
      ( Protocol.async_meet_exchange (),
        fun rng ->
          P.Async_meet_exchange.to_run_result
            (P.Async_engine.meet_exchange rng g ~source:0
               ~agents:(Placement.Linear 1.0) ~max_time:10_000.0) );
    ]

let test_lazy_auto_on_bipartite () =
  (* the star is bipartite: Lazy_auto must pick lazy walks and complete *)
  let g = Gen.star ~leaves:16 in
  let spec =
    Protocol.Meet_exchange { agents = Placement.Linear 1.0; laziness = Protocol.Lazy_auto }
  in
  let r = Protocol.run spec (Rng.of_int 203) g ~source:0 ~max_rounds:100_000 in
  Alcotest.(check bool) "completes via auto laziness" true (Run_result.completed r)

let test_lazy_off_on_bipartite_stalls () =
  let g = Gen.complete 2 in
  let spec =
    Protocol.Meet_exchange { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_off }
  in
  let r = Protocol.run spec (Rng.of_int 204) g ~source:0 ~max_rounds:500 in
  Alcotest.(check (option int)) "stalls without laziness" None
    r.Run_result.broadcast_time

let test_alpha_scales_agent_count () =
  (* visit-exchange with alpha = 4 should be at least as fast on average as
     alpha = 0.25 on a clique; weak but deterministic-in-expectation check *)
  let g = Gen.complete 64 in
  let mean alpha =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Protocol.run (Protocol.visit_exchange ~alpha ()) (Rng.of_int (2050 + seed)) g
          ~source:0 ~max_rounds:100_000
      in
      total := !total + Run_result.time_exn r
    done;
    float_of_int !total
  in
  Alcotest.(check bool) "denser agents no slower" true (mean 4.0 <= mean 0.25)

(* [shards_used] is 1 exactly where a requested shard count cannot change
   the run: there [~shards:2] reproduces [~shards:1] result for result. *)
let test_shards_used () =
  let g = Gen.torus ~rows:4 ~cols:4 in
  let specs =
    [
      Protocol.push; Protocol.push_pull; Protocol.visit_exchange ();
      Protocol.meet_exchange (); Protocol.combined (); Protocol.pull;
      Protocol.quasi_push; Protocol.cobra (); Protocol.frog (); Protocol.flood;
      Protocol.async_push; Protocol.async_push_pull;
      Protocol.async_meet_exchange ();
    ]
  in
  (* walker kernels shard only in their dense representation *)
  let sharded walkers =
    [ "push"; "push-pull"; "combined" ]
    @ if walkers = Protocol.Dense then [ "visit-exchange"; "meet-exchange" ] else []
  in
  List.iter
    (fun walkers ->
      List.iter
        (fun spec ->
          let name =
            Printf.sprintf "%s/%s" (Protocol.name spec)
              (Protocol.walkers_name walkers)
          in
          let used = Protocol.shards_used ~walkers ~shards:2 spec g in
          let expect =
            if List.mem (Protocol.name spec) (sharded walkers) then 2 else 1
          in
          Alcotest.(check int) name expect used;
          Alcotest.(check int) (name ^ " default") 1
            (Protocol.shards_used ~walkers spec g);
          if used = 1 then begin
            let run shards =
              Protocol.run ~walkers ~shards spec (Rng.of_int 77) g ~source:0
                ~max_rounds:10_000
            in
            Alcotest.(check bool) (name ^ " ignores shards") true (run 1 = run 2)
          end)
        specs)
    [ Protocol.Dense; Protocol.Sparse ]

let suite =
  [
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "dispatch matches direct call" `Quick test_dispatch_matches_direct_push;
    Alcotest.test_case "async dispatch matches engine" `Quick
      test_async_dispatch_matches_engine;
    Alcotest.test_case "all protocols complete" `Quick test_all_protocols_complete;
    Alcotest.test_case "lazy auto on bipartite" `Quick test_lazy_auto_on_bipartite;
    Alcotest.test_case "lazy off stalls on bipartite" `Quick test_lazy_off_on_bipartite_stalls;
    Alcotest.test_case "shards_used" `Quick test_shards_used;
    Alcotest.test_case "alpha scales agents" `Quick test_alpha_scales_agent_count;
  ]
