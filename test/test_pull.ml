(* Tests for Rumor_protocols.Pull. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Pull = Rumor_protocols.Pull
module Run_result = Rumor_protocols.Run_result

let run ?(max_rounds = 1_000_000) seed g source =
  Pull.run (Rng.of_int seed) g ~source ~max_rounds ()

let test_k2 () =
  let r = run 471 (Gen.complete 2) 0 in
  Alcotest.(check (option int)) "one round" (Some 1) r.Run_result.broadcast_time

let test_star_from_center_is_one_round () =
  (* every leaf pulls from the center in round 1, deterministically *)
  let g = Gen.star ~leaves:40 in
  for seed = 0 to 4 do
    let r = run (4720 + seed) g 0 in
    Alcotest.(check (option int)) "one round" (Some 1) r.Run_result.broadcast_time
  done

let test_star_from_leaf_slow_start () =
  (* from a leaf, the center must pull from the specific informed leaf:
     probability 1/l per round, so Omega(l) in expectation; just check it
     exceeds the push-pull time on the same instance *)
  let g = Gen.star ~leaves:64 in
  let total_pull = ref 0 and total_pp = ref 0 in
  for seed = 0 to 9 do
    total_pull := !total_pull + Run_result.time_exn (run (4730 + seed) g 3);
    let pp =
      Rumor_protocols.Engine.push_pull (Rng.of_int (4740 + seed)) g ~source:3
        ~max_rounds:1_000_000 ()
    in
    total_pp := !total_pp + Run_result.time_exn pp
  done;
  Alcotest.(check bool)
    (Printf.sprintf "pull %d >> push-pull %d" !total_pull !total_pp)
    true
    (!total_pull > 3 * !total_pp)

let test_completes_on_regular () =
  let rng = Rng.of_int 474 in
  let g = Rumor_graph.Gen_random.random_regular_connected rng ~n:128 ~d:8 in
  let r = run 475 g 0 in
  Alcotest.(check bool) "completed" true (Run_result.completed r)

let test_contacts_are_uninformed_counts () =
  let g = Gen.complete 16 in
  let r = run 476 g 0 in
  let curve = r.Run_result.informed_curve in
  let expected = ref 0 in
  for i = 0 to Array.length curve - 2 do
    expected := !expected + (16 - curve.(i))
  done;
  Alcotest.(check int) "one pull per uninformed vertex per round" !expected
    r.Run_result.contacts

let test_curve_monotone () =
  let r = run 477 (Gen.torus ~rows:5 ~cols:5) 0 in
  let curve = r.Run_result.informed_curve in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_round_cap () =
  let r = run ~max_rounds:2 478 (Gen.path 100) 0 in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time

let test_bad_source () =
  try
    ignore (run 479 (Gen.complete 3) 7);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "K2" `Quick test_k2;
    Alcotest.test_case "star from center: 1 round" `Quick test_star_from_center_is_one_round;
    Alcotest.test_case "star from leaf: slow start" `Quick test_star_from_leaf_slow_start;
    Alcotest.test_case "completes on regular graphs" `Quick test_completes_on_regular;
    Alcotest.test_case "contacts counted" `Quick test_contacts_are_uninformed_counts;
    Alcotest.test_case "curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "bad source" `Quick test_bad_source;
  ]
