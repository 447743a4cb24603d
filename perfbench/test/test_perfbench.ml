(* The benchmark's own arithmetic: order statistics, the tail-percentile
   rule, per-op ratios, span self time and the operation tally. *)

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3.0 (Arith.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check feq "even" 2.5 (Arith.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check feq "single" 7.0 (Arith.median [| 7.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Arith.median: no samples") (fun () ->
      ignore (Arith.median [||]))

let test_percentile_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50 of 1..100" 50.0 (Arith.percentile xs 50.0);
  Alcotest.check feq "p90 of 1..100" 90.0 (Arith.percentile xs 90.0);
  Alcotest.check feq "p100 is the max" 100.0 (Arith.percentile xs 100.0);
  Alcotest.check feq "tiny p is the min" 1.0 (Arith.percentile xs 0.1);
  Alcotest.check_raises "p = 0 rejected" (Invalid_argument "Arith.percentile: p outside (0, 100]")
    (fun () -> ignore (Arith.percentile xs 0.0))

let test_beyond () =
  Alcotest.(check int) "p90 of 100 leaves 10" 10 (Arith.beyond ~n:100 90.0);
  Alcotest.(check int) "p99 of 1000 leaves 10" 10 (Arith.beyond ~n:1000 99.0);
  (* 99.9% of 10000 is 9990 exactly, whatever the float rounding of 99.9 *)
  Alcotest.(check int) "p99.9 of 10000 leaves 10" 10 (Arith.beyond ~n:10000 99.9);
  Alcotest.(check int) "p75 of 39 leaves 9" 9 (Arith.beyond ~n:39 75.0)

let test_tail_rule () =
  let pct = Alcotest.(option (float 0.0)) in
  Alcotest.check pct "39 samples: none" None (Arith.tail_percentile ~n:39);
  Alcotest.check pct "40 samples: p75" (Some 75.0) (Arith.tail_percentile ~n:40);
  Alcotest.check pct "99 samples: p75" (Some 75.0) (Arith.tail_percentile ~n:99);
  Alcotest.check pct "100 samples: p90" (Some 90.0) (Arith.tail_percentile ~n:100);
  Alcotest.check pct "999 samples: p90" (Some 90.0) (Arith.tail_percentile ~n:999);
  Alcotest.check pct "1000 samples: p99" (Some 99.0) (Arith.tail_percentile ~n:1000);
  Alcotest.check pct "10000 samples: p99.9" (Some 99.9) (Arith.tail_percentile ~n:10000);
  (* whatever is chosen has at least ten samples beyond it *)
  for n = 1 to 3000 do
    match Arith.tail_percentile ~n with
    | Some p -> Alcotest.(check bool) "ten beyond" true (Arith.beyond ~n p >= Arith.min_beyond)
    | None -> Alcotest.(check bool) "too few" true (n < 40)
  done

let test_timing () =
  let t = Arith.timing (Array.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "median" 50.5 t.median;
  Alcotest.(check int) "samples" 100 t.samples;
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "tail" (Some (90.0, 90.0)) t.tail;
  let few = Arith.timing [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "no tail" None few.tail

let test_per_op () =
  Alcotest.(check (option feq)) "words per op" (Some 28.0) (Arith.per_op ~total:280.0 ~ops:10);
  Alcotest.(check (option feq)) "no ops" None (Arith.per_op ~total:280.0 ~ops:0)

let test_self_time () =
  Alcotest.check feq "minus children" 3.0 (Arith.self_time ~dur:10.0 ~children:[ 3.0; 4.0 ]);
  Alcotest.check feq "leaf" 10.0 (Arith.self_time ~dur:10.0 ~children:[]);
  Alcotest.check feq "floored" 0.0 (Arith.self_time ~dur:1.0 ~children:[ 0.6; 0.6 ])

let span ?(tid = 0) ?(alloc_w = 0.0) name ~ts ~dur : Rumor_obs.Trace.event =
  { ph = `Span; name; ts_us = ts; dur_us = dur; tid; arg = None; value = 0; alloc_w; major_gcs = 0 }

let find spans name =
  match List.find_opt (fun (s : Spans.span) -> String.equal s.name name) (Array.to_list spans) with
  | Some s -> s
  | None -> Alcotest.failf "no span %s" name

let test_span_nesting () =
  (* a [0,100) { b [10,40) { c [15,20) }, d [50,90) } on track 0, e [0,100)
     on track 1, and f starting with a but shorter, so a's child *)
  let events =
    [
      span "c" ~ts:15.0 ~dur:5.0;
      span "a" ~ts:0.0 ~dur:100.0;
      span "d" ~ts:50.0 ~dur:40.0;
      span "e" ~tid:1 ~ts:0.0 ~dur:100.0;
      span "b" ~ts:10.0 ~dur:30.0;
      span "f" ~ts:0.0 ~dur:5.0;
      { (span "x" ~ts:1.0 ~dur:0.0) with ph = `Counter };
    ]
  in
  let spans = Spans.of_events events in
  Alcotest.(check int) "counters dropped" 6 (Array.length spans);
  let self name = (find spans name).Spans.self_s *. 1e6 in
  Alcotest.check feq "a self" 25.0 (self "a");
  Alcotest.check feq "b self" 25.0 (self "b");
  Alcotest.check feq "c self" 5.0 (self "c");
  Alcotest.check feq "d self" 40.0 (self "d");
  Alcotest.check feq "e on its own track" 100.0 (self "e");
  Alcotest.check feq "f is a's child" 5.0 (self "f");
  Alcotest.check feq "self total" 25e-6 (Spans.self_total "a" spans);
  Alcotest.check feq "total in seconds" 1e-4 (Spans.total "a" spans)

let test_busy_by_track () =
  let events =
    [
      span "call" ~ts:0.0 ~dur:100.0;
      span "rep" ~ts:0.0 ~dur:60.0;
      span "rep" ~ts:60.0 ~dur:30.0;
      span "rep" ~tid:1 ~ts:5.0 ~dur:50.0;
      span "rep" ~tid:1 ~ts:200.0 ~dur:50.0;
    ]
  in
  let spans = Spans.of_events events in
  let busy = Spans.busy_by_track ~name:"rep" ~outer:(find spans "call") ~tracks:[ 0; 1; 2 ] spans in
  Alcotest.(check (list (pair int (float 1e-12)))) "per track" [ (0, 90e-6); (1, 50e-6); (2, 0.0) ] busy

let test_tally () =
  let t =
    List.fold_left (fun t ok -> Arith.count_op t ~ok) Arith.empty_tally [ true; false; true; true ]
  in
  Alcotest.(check int) "attempted" 4 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  Alcotest.(check bool) "a failure is not ok" false (Arith.all_ok t);
  Alcotest.(check bool) "nothing attempted is not ok" false (Arith.all_ok Arith.empty_tally);
  Alcotest.(check bool) "clean" true (Arith.all_ok (Arith.count_op Arith.empty_tally ~ok:true))

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "timing" `Quick test_timing;
          Alcotest.test_case "per-op ratios" `Quick test_per_op;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "operation tally" `Quick test_tally;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and self time" `Quick test_span_nesting;
          Alcotest.test_case "busy time per track" `Quick test_busy_by_track;
        ] );
    ]
