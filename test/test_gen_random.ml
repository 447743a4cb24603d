(* Tests for Rumor_graph.Gen_random. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_random
module Algo = Rumor_graph.Algo

let test_erdos_renyi_extremes () =
  let rng = Rng.of_int 61 in
  let empty = Gen.erdos_renyi rng ~n:10 ~p:0.0 in
  Alcotest.(check int) "p=0 no edges" 0 (Graph.num_edges empty);
  let full = Gen.erdos_renyi rng ~n:10 ~p:1.0 in
  Alcotest.(check int) "p=1 complete" 45 (Graph.num_edges full);
  Graph.validate full

let test_erdos_renyi_density () =
  let rng = Rng.of_int 62 in
  let n = 300 and p = 0.05 in
  let stats = Rumor_prob.Stats.create () in
  for _ = 1 to 20 do
    let g = Gen.erdos_renyi rng ~n ~p in
    Graph.validate g;
    Rumor_prob.Stats.add_int stats (Graph.num_edges g)
  done;
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let mean = Rumor_prob.Stats.mean stats in
  Alcotest.(check bool)
    (Printf.sprintf "mean edges %.1f near %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.08 *. expected)

let test_erdos_renyi_invalid () =
  let rng = Rng.of_int 63 in
  try
    ignore (Gen.erdos_renyi rng ~n:5 ~p:1.5);
    Alcotest.fail "p > 1 accepted"
  with Invalid_argument _ -> ()

let test_gnm_exact () =
  let rng = Rng.of_int 64 in
  for m = 0 to 10 do
    let g = Gen.gnm rng ~n:6 ~m in
    Graph.validate g;
    Alcotest.(check int) "exact edge count" m (Graph.num_edges g)
  done

let test_gnm_invalid () =
  let rng = Rng.of_int 65 in
  try
    ignore (Gen.gnm rng ~n:4 ~m:7);
    Alcotest.fail "m too large accepted"
  with Invalid_argument _ -> ()

let test_random_regular_degrees () =
  let rng = Rng.of_int 66 in
  List.iter
    (fun (n, d) ->
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Alcotest.(check (option int))
        (Printf.sprintf "%d-regular on %d vertices" d n)
        (Some d) (Graph.regular_degree g))
    [ (10, 3); (50, 4); (100, 7); (64, 10); (200, 16) ]

let test_random_regular_invalid () =
  let rng = Rng.of_int 67 in
  (try
     ignore (Gen.random_regular rng ~n:5 ~d:3);
     Alcotest.fail "odd n*d accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Gen.random_regular rng ~n:5 ~d:5);
     Alcotest.fail "d >= n accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Gen.random_regular rng ~n:5 ~d:0);
    Alcotest.fail "d = 0 accepted"
  with Invalid_argument _ -> ()

let test_random_regular_connected () =
  let rng = Rng.of_int 68 in
  for _ = 1 to 5 do
    let g = Gen.random_regular_connected rng ~n:60 ~d:3 in
    Alcotest.(check bool) "connected" true (Algo.is_connected g);
    Alcotest.(check (option int)) "regular" (Some 3) (Graph.regular_degree g)
  done

let test_random_regular_samples_vary () =
  let rng = Rng.of_int 69 in
  let g1 = Gen.random_regular rng ~n:50 ~d:4 in
  let g2 = Gen.random_regular rng ~n:50 ~d:4 in
  let differs = ref false in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then differs := true);
  Alcotest.(check bool) "two samples differ" true !differs

let test_determinism_by_seed () =
  let sample seed =
    let rng = Rng.of_int seed in
    Gen.random_regular rng ~n:40 ~d:4
  in
  let g1 = sample 7 and g2 = sample 7 in
  let same = ref true in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then same := false);
  Alcotest.(check int) "same edge count" (Graph.num_edges g1) (Graph.num_edges g2);
  Alcotest.(check bool) "same edges from same seed" true !same

let prop_random_regular_simple =
  QCheck.Test.make ~count:30 ~name:"random regular graphs are simple and regular"
    QCheck.(pair (int_range 3 25) (int_range 0 1000))
    (fun (half, dseed) ->
      (* even n makes every 1 <= d <= n-1 a valid degree, including the
         dense regime served by complementation *)
      let n = 2 * half in
      let d = 1 + (dseed mod (n - 1)) in
      let rng = Rng.of_int ((n * 131) + d) in
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Graph.regular_degree g = Some d)

let test_random_regular_dense () =
  let rng = Rng.of_int 70 in
  (* d = n - 1 is the complete graph; other dense degrees go through the
     complement construction *)
  let g = Gen.random_regular rng ~n:8 ~d:7 in
  Alcotest.(check int) "K8 edges" 28 (Graph.num_edges g);
  List.iter
    (fun (n, d) ->
      let g = Gen.random_regular rng ~n ~d in
      Graph.validate g;
      Alcotest.(check (option int))
        (Printf.sprintf "dense %d-regular on %d" d n)
        (Some d) (Graph.regular_degree g))
    [ (10, 7); (12, 9); (20, 15); (16, 12) ]

(* Output pin for the configuration-model generator: the MD5 of the edge
   list plus the generator's next draw, so a change to the pairing, the
   defect detection or the switch repair that moves either the graph or the
   RNG stream fails here.  At d = 16 every sample needs dozens of switch
   repairs.  Recorded with the Hashtbl-based seen-set. *)
let random_regular_digest ~seed ~n ~d =
  let rng = Rng.of_int seed in
  let g = Gen.random_regular rng ~n ~d in
  let buf = Buffer.create (16 * Graph.num_edges g) in
  Graph.iter_edges g (fun u v -> Printf.bprintf buf "%d %d\n" u v);
  Printf.bprintf buf "next %d\n" (Rng.int rng 1_000_000_007);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let random_regular_golden =
  [
    (1, 2_000, "0be9c64992df5d7f5f7d51c9d7a5a1ce");
    (2, 2_000, "bc75907c8281963759cec0cfd5f080a3");
    (3, 2_000, "4bb45d0e135ef994f7859aeb4263d667");
    (1, 20_000, "3b53946b10b86c731c49890ea3d1b711");
    (2, 20_000, "06df66899d210057619b51cf4d80a569");
    (3, 20_000, "c64a0c883d4e6e4b0b537733cb647cfb");
  ]

let test_random_regular_golden () =
  List.iter
    (fun (seed, n, want) ->
      Alcotest.(check string)
        (Printf.sprintf "random-regular:%d,16 seed %d" n seed)
        want
        (random_regular_digest ~seed ~n ~d:16))
    random_regular_golden

let test_preferential_attachment_structure () =
  let rng = Rng.of_int 75 in
  let n = 400 and m = 3 in
  let g = Gen.preferential_attachment rng ~n ~m in
  Graph.validate g;
  Alcotest.(check int) "n" n (Graph.n g);
  (* seed clique C(m+1, 2) edges plus m per subsequent vertex *)
  Alcotest.(check int) "edge count"
    ((m * (m + 1) / 2) + (m * (n - m - 1)))
    (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Algo.is_connected g);
  Alcotest.(check bool) "min degree >= m" true (Graph.min_degree g >= m)

let test_preferential_attachment_has_hubs () =
  (* the degree distribution is heavy-tailed: the max degree far exceeds
     the mean (which is ~2m) *)
  let rng = Rng.of_int 76 in
  let g = Gen.preferential_attachment rng ~n:2000 ~m:3 in
  let mean_degree = float_of_int (Graph.total_degree g) /. 2000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d >> mean %.1f" (Graph.max_degree g) mean_degree)
    true
    (float_of_int (Graph.max_degree g) > 5.0 *. mean_degree)

let test_preferential_attachment_invalid () =
  let rng = Rng.of_int 77 in
  (try
     ignore (Gen.preferential_attachment rng ~n:5 ~m:0);
     Alcotest.fail "m = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Gen.preferential_attachment rng ~n:3 ~m:3);
    Alcotest.fail "n <= m accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "erdos-renyi extremes" `Quick test_erdos_renyi_extremes;
    Alcotest.test_case "preferential attachment structure" `Quick
      test_preferential_attachment_structure;
    Alcotest.test_case "preferential attachment hubs" `Quick
      test_preferential_attachment_has_hubs;
    Alcotest.test_case "preferential attachment invalid" `Quick
      test_preferential_attachment_invalid;
    Alcotest.test_case "erdos-renyi density" `Quick test_erdos_renyi_density;
    Alcotest.test_case "erdos-renyi invalid" `Quick test_erdos_renyi_invalid;
    Alcotest.test_case "gnm exact counts" `Quick test_gnm_exact;
    Alcotest.test_case "gnm invalid" `Quick test_gnm_invalid;
    Alcotest.test_case "random regular degrees" `Quick test_random_regular_degrees;
    Alcotest.test_case "random regular invalid" `Quick test_random_regular_invalid;
    Alcotest.test_case "random regular connected" `Quick test_random_regular_connected;
    Alcotest.test_case "samples vary" `Quick test_random_regular_samples_vary;
    Alcotest.test_case "determinism by seed" `Quick test_determinism_by_seed;
    Alcotest.test_case "dense regular graphs" `Quick test_random_regular_dense;
    Alcotest.test_case "random regular golden digests" `Quick test_random_regular_golden;
    QCheck_alcotest.to_alcotest prop_random_regular_simple;
  ]
