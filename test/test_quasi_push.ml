(* Tests for Rumor_protocols.Quasi_push. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo
module Quasi = Rumor_protocols.Quasi_push
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

let run ?(max_rounds = 1_000_000) seed g source =
  Quasi.run (Rng.of_int seed) g ~source ~max_rounds ()

let test_k2 () =
  let r = run 411 (Gen.complete 2) 0 in
  Alcotest.(check (option int)) "one round" (Some 1) r.Run_result.broadcast_time

let test_completes () =
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "completed" true (Run_result.completed (run 412 g s)))
    [ (Gen.complete 20, 0); (Gen.cycle 15, 3); (Gen.hypercube ~dim:6, 0); (Gen.star ~leaves:10, 0) ]

let test_star_is_exactly_linear () =
  (* the center cycles through its leaves deterministically: exactly l
     rounds after the center is informed, independent of randomness *)
  let l = 20 in
  let g = Gen.star ~leaves:l in
  for seed = 0 to 4 do
    let r = run (4130 + seed) g 0 in
    Alcotest.(check (option int)) "exactly l rounds" (Some l) r.Run_result.broadcast_time
  done

let test_beats_random_push_on_star () =
  (* quasirandomness removes the coupon-collector log factor on the star *)
  let l = 64 in
  let g = Gen.star ~leaves:l in
  let quasi = Run_result.time_exn (run 414 g 0) in
  let random =
    Run_result.time_exn (Engine.push (Rng.of_int 414) g ~source:0 ~max_rounds:1_000_000 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "quasi %d < random %d" quasi random)
    true (quasi < random)

let test_cycle_deterministic_structure () =
  (* on the cycle, informed vertices spread at least one hop per round once
     both directions are engaged; time is Theta(n) and >= eccentricity *)
  let g = Gen.cycle 20 in
  let r = run 415 g 0 in
  Alcotest.(check bool) "at least ecc" true
    (Run_result.time_exn r >= Algo.eccentricity g 0)

let test_curve_monotone () =
  let r = run 416 (Gen.hypercube ~dim:7) 0 in
  let curve = r.Run_result.informed_curve in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_comparable_to_push_on_regular () =
  (* [19]: quasirandom matches random push on hypercubes and expanders *)
  let rng = Rng.of_int 417 in
  let g = Rumor_graph.Gen_random.random_regular_connected rng ~n:512 ~d:9 in
  let mean f =
    let total = ref 0 in
    for seed = 0 to 9 do
      total := !total + f (4170 + seed)
    done;
    float_of_int !total /. 10.0
  in
  let quasi = mean (fun s -> Run_result.time_exn (run s g 0)) in
  let random =
    mean (fun s ->
        Run_result.time_exn (Engine.push (Rng.of_int s) g ~source:0 ~max_rounds:100_000 ()))
  in
  let ratio = quasi /. random in
  Alcotest.(check bool)
    (Printf.sprintf "quasi %.1f vs random %.1f within 50%%" quasi random)
    true
    (ratio > 0.5 && ratio < 1.5)

let test_round_cap () =
  let r = run ~max_rounds:3 418 (Gen.path 100) 0 in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time

let test_bad_source () =
  try
    ignore (run 419 (Gen.complete 3) 5);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "K2" `Quick test_k2;
    Alcotest.test_case "completes" `Quick test_completes;
    Alcotest.test_case "star takes exactly l rounds" `Quick test_star_is_exactly_linear;
    Alcotest.test_case "beats random push on star" `Quick test_beats_random_push_on_star;
    Alcotest.test_case "cycle structure" `Quick test_cycle_deterministic_structure;
    Alcotest.test_case "curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "matches push on regular graphs" `Quick
      test_comparable_to_push_on_regular;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "bad source" `Quick test_bad_source;
  ]
