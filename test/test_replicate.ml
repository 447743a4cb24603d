(* Tests for Rumor_sim.Replicate. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol

let push_on_clique ~trace:_ ~rep:_ rng =
  Rumor_protocols.Engine.push rng (Gen.complete 32) ~source:0 ~max_rounds:10_000 ()

let test_rep_count () =
  let m = Replicate.measure ~seed:211 ~reps:7 push_on_clique in
  Alcotest.(check int) "seven measurements" 7 (Array.length m.Replicate.times);
  Alcotest.(check int) "none capped" 0 m.Replicate.capped

let test_reproducible () =
  let m1 = Replicate.measure ~seed:212 ~reps:5 push_on_clique in
  let m2 = Replicate.measure ~seed:212 ~reps:5 push_on_clique in
  Alcotest.(check (array (float 1e-9))) "same times" m1.Replicate.times m2.Replicate.times

let test_seed_changes_results () =
  let m1 = Replicate.measure ~seed:213 ~reps:8 push_on_clique in
  let m2 = Replicate.measure ~seed:214 ~reps:8 push_on_clique in
  Alcotest.(check bool) "different seeds differ" true
    (m1.Replicate.times <> m2.Replicate.times)

let test_replications_vary () =
  let m = Replicate.measure ~seed:215 ~reps:10 push_on_clique in
  let distinct =
    Array.to_list m.Replicate.times
    |> List.sort_uniq Float.compare
    |> List.length
  in
  Alcotest.(check bool) "not all identical" true (distinct > 1)

let test_capped_counted () =
  let f ~trace:_ ~rep:_ rng =
    Rumor_protocols.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()
  in
  let m = Replicate.measure ~seed:216 ~reps:4 f in
  Alcotest.(check int) "all capped" 4 m.Replicate.capped;
  Array.iter
    (fun t -> Alcotest.(check (float 1e-9)) "capped time = cap" 2.0 t)
    m.Replicate.times

let test_invalid_reps () =
  try
    ignore (Replicate.measure ~seed:217 ~reps:0 push_on_clique);
    Alcotest.fail "zero reps accepted"
  with Invalid_argument _ -> ()

let test_broadcast_times_wrapper () =
  let m =
    Replicate.broadcast_times ~seed:218 ~reps:5
      ~graph:(fun _rng -> (Gen.complete 16, 0))
      ~spec:Protocol.push ~max_rounds:10_000 ()
  in
  Alcotest.(check int) "five reps" 5 (Array.length m.Replicate.times);
  Alcotest.(check bool) "mean positive" true (Replicate.mean m > 0.0);
  Alcotest.(check bool) "median positive" true (Replicate.median m > 0.0);
  Alcotest.(check bool) "max >= mean" true (Replicate.max_time m >= Replicate.mean m)

let test_graph_resampled_per_replication () =
  (* with a random graph model, the per-rep generator drives graph sampling;
     reproducibility must still hold end to end *)
  let graph rng = (Rumor_graph.Gen_random.random_regular_connected rng ~n:32 ~d:4, 0) in
  let run () =
    Replicate.broadcast_times ~seed:219 ~reps:4 ~graph
      ~spec:(Protocol.visit_exchange ()) ~max_rounds:100_000 ()
  in
  let m1 = run () and m2 = run () in
  Alcotest.(check (array (float 1e-9))) "reproducible with random graphs"
    m1.Replicate.times m2.Replicate.times

(* [?engine] is accepted and ignored: both values give identical
   measurements AND an identical sink stream (records carry the informed
   curve, so this also pins per-round dynamics), up to per-rep timing. *)
let test_engine_label_ignored () =
  let detimed (r : Rumor_obs.Run_record.t) =
    Rumor_obs.Run_record.to_json
      {
        r with
        Rumor_obs.Run_record.wall_seconds = 0.0;
        gc = { minor_words = 0.0; major_words = 0.0; promoted_words = 0.0 };
      }
  in
  let graph rng =
    (Rumor_graph.Gen_random.random_regular_connected rng ~n:48 ~d:4, 0)
  in
  List.iter
    (fun spec ->
      let run ~engine =
        let records = ref [] in
        let m =
          Replicate.broadcast_times
            ~sink:(fun r -> records := r :: !records)
            ~graph_name:"rr:48,4" ~engine ~seed:220 ~reps:4 ~graph ~spec
            ~max_rounds:100_000 ()
        in
        (m, List.rev_map detimed !records)
      in
      let off, off_records = run ~engine:false in
      let on, on_records = run ~engine:true in
      Alcotest.(check (array (float 0.0)))
        (Protocol.name spec ^ ": times identical")
        off.Replicate.times on.Replicate.times;
      Alcotest.(check (list string))
        (Protocol.name spec ^ ": sink stream identical (sans timing)")
        off_records on_records)
    [
      Protocol.push;
      Protocol.push_pull;
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
      Protocol.pull;
    ]

let suite =
  [
    Alcotest.test_case "replication count" `Quick test_rep_count;
    Alcotest.test_case "reproducible" `Quick test_reproducible;
    Alcotest.test_case "seed changes results" `Quick test_seed_changes_results;
    Alcotest.test_case "replications vary" `Quick test_replications_vary;
    Alcotest.test_case "capped runs counted" `Quick test_capped_counted;
    Alcotest.test_case "invalid reps" `Quick test_invalid_reps;
    Alcotest.test_case "broadcast_times wrapper" `Quick test_broadcast_times_wrapper;
    Alcotest.test_case "random graphs reproducible" `Quick
      test_graph_resampled_per_replication;
    Alcotest.test_case "ignored ?engine: identical sink stream" `Quick
      test_engine_label_ignored;
  ]
