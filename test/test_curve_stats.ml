(* Tests for Rumor_sim.Curve_stats. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Curve_stats = Rumor_sim.Curve_stats
module Run_result = Rumor_protocols.Run_result

let synthetic ?(bt = Some 4) curve =
  Run_result.make ~broadcast_time:bt ~rounds_run:(Array.length curve - 1)
    ~informed_curve:curve ~contacts:0 ()

let test_time_to_fraction () =
  let r = synthetic [| 1; 2; 4; 8; 16 |] in
  Alcotest.(check (option int)) "full" (Some 4) (Curve_stats.time_to_fraction r 1.0);
  Alcotest.(check (option int)) "half" (Some 3) (Curve_stats.half_time r);
  Alcotest.(check (option int)) "quarter" (Some 2) (Curve_stats.time_to_fraction r 0.25);
  Alcotest.(check (option int)) "tiny fraction hits round 0" (Some 0)
    (Curve_stats.time_to_fraction r 0.01)

let test_fraction_bounds () =
  let r = synthetic [| 1; 2 |] in
  (try
     ignore (Curve_stats.time_to_fraction r 0.0);
     Alcotest.fail "q = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Curve_stats.time_to_fraction r 1.5);
    Alcotest.fail "q > 1 accepted"
  with Invalid_argument _ -> ()

let test_growth_rates () =
  let r = synthetic [| 1; 2; 6; 6 |] in
  let rates = Curve_stats.growth_rates r in
  Alcotest.(check int) "length" 3 (Array.length rates);
  Alcotest.(check (float 1e-9)) "double" 2.0 rates.(0);
  Alcotest.(check (float 1e-9)) "triple" 3.0 rates.(1);
  Alcotest.(check (float 1e-9)) "flat" 1.0 rates.(2);
  Alcotest.(check (float 1e-9)) "peak" 3.0 (Curve_stats.peak_growth r)

let test_flat_curve () =
  let r = synthetic ~bt:(Some 0) [| 5 |] in
  Alcotest.(check int) "no rates" 0 (Array.length (Curve_stats.growth_rates r));
  Alcotest.(check (float 1e-9)) "peak defaults to 1" 1.0 (Curve_stats.peak_growth r)

let test_on_real_run () =
  let g = Gen.complete 64 in
  let r =
    Rumor_protocols.Engine.push (Rng.of_int 601) g ~source:0 ~max_rounds:10_000 ()
  in
  let half = Curve_stats.half_time r in
  let full = Curve_stats.time_to_fraction r 1.0 in
  (match (half, full) with
  | Some h, Some f ->
      Alcotest.(check bool) "half before full" true (h <= f);
      Alcotest.(check (option int)) "full = broadcast time"
        r.Run_result.broadcast_time (Some f)
  | _ -> Alcotest.fail "milestones missing");
  (* push at most doubles *)
  Alcotest.(check bool) "peak growth <= 2" true (Curve_stats.peak_growth r <= 2.0)

let suite =
  [
    Alcotest.test_case "time to fraction" `Quick test_time_to_fraction;
    Alcotest.test_case "fraction bounds" `Quick test_fraction_bounds;
    Alcotest.test_case "growth rates" `Quick test_growth_rates;
    Alcotest.test_case "flat curve" `Quick test_flat_curve;
    Alcotest.test_case "on a real run" `Quick test_on_real_run;
  ]
