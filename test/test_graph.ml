(* Tests for Rumor_graph.Graph: CSR construction and accessors. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let test_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.num_edges g);
  Alcotest.(check int) "total degree" 6 (Graph.total_degree g);
  Alcotest.(check int) "arc count" 6 (Graph.arc_count g)

let test_degrees_and_neighbors () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check int) "hub degree" 3 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 2);
  Alcotest.(check (list int)) "sorted neighbors" [ 1; 2; 3 ]
    (List.init (Graph.degree g 0) (Graph.neighbor g 0));
  Alcotest.(check int) "leaf neighbor" 0 (Graph.neighbor g 3 0)

let test_mem_edge () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check bool) "present" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "symmetric" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "absent" false (Graph.mem_edge g 0 4);
  Alcotest.(check bool) "no self" false (Graph.mem_edge g 3 3)

let test_iter_edges_each_once () =
  let g = triangle () in
  let seen = ref [] in
  Graph.iter_edges g (fun u v ->
      Alcotest.(check bool) "u < v" true (u < v);
      seen := (u, v) :: !seen);
  Alcotest.(check int) "edge count" 3 (List.length !seen);
  Alcotest.(check bool) "all distinct" true
    (List.length
       (List.sort_uniq
          (fun (u1, v1) (u2, v2) ->
            match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
          !seen)
    = 3)

let test_fold_and_iter_neighbors () =
  let g = Graph.of_edges ~n:4 [ (1, 0); (1, 2); (1, 3) ] in
  let sum = Graph.fold_neighbors g 1 ( + ) 0 in
  Alcotest.(check int) "fold sum" 5 sum;
  let collected = ref [] in
  Graph.iter_neighbors g 1 (fun v -> collected := v :: !collected);
  Alcotest.(check (list int)) "iter order is sorted" [ 0; 2; 3 ] (List.rev !collected)

let test_edge_index_distinct () =
  let g = triangle () in
  let indices = ref [] in
  for u = 0 to 2 do
    Graph.iter_neighbors g u (fun v -> indices := Graph.edge_index g u v :: !indices)
  done;
  let distinct = List.sort_uniq Int.compare !indices in
  Alcotest.(check int) "one index per directed arc" 6 (List.length distinct);
  List.iter
    (fun i ->
      if i < 0 || i >= Graph.arc_count g then Alcotest.failf "index %d out of range" i)
    distinct

let test_edge_index_not_found () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "missing edge" Not_found (fun () ->
      ignore (Graph.edge_index g 0 2))

let test_random_neighbor_uniform () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let rng = Rng.of_int 51 in
  let counts = Array.make 4 0 in
  let samples = 30_000 in
  for _ = 1 to samples do
    let v = Graph.random_neighbor g rng 0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check int) "never itself" 0 counts.(0);
  for v = 1 to 3 do
    let p = float_of_int counts.(v) /. float_of_int samples in
    if Float.abs (p -. (1.0 /. 3.0)) > 0.02 then
      Alcotest.failf "neighbor %d frequency %.3f" v p
  done

let test_random_neighbor_isolated () =
  let g = Graph.of_edges ~n:2 [] in
  let rng = Rng.of_int 52 in
  try
    ignore (Graph.random_neighbor g rng 0);
    Alcotest.fail "isolated vertex accepted"
  with Invalid_argument _ -> ()

let test_rejects_self_loop () =
  try
    ignore (Graph.of_edges ~n:2 [ (1, 1) ]);
    Alcotest.fail "self-loop accepted"
  with Invalid_argument _ -> ()

let test_rejects_duplicate () =
  (try
     ignore (Graph.of_edges ~n:3 [ (0, 1); (0, 1) ]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]);
    Alcotest.fail "reversed duplicate accepted"
  with Invalid_argument _ -> ()

let test_rejects_out_of_range () =
  try
    ignore (Graph.of_edges ~n:3 [ (0, 3) ]);
    Alcotest.fail "out-of-range endpoint accepted"
  with Invalid_argument _ -> ()

let test_regularity () =
  let g = triangle () in
  Alcotest.(check bool) "triangle regular" true (Graph.is_regular g);
  Alcotest.(check (option int)) "degree 2" (Some 2) (Graph.regular_degree g);
  let star = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check bool) "star not regular" false (Graph.is_regular star);
  Alcotest.(check (option int)) "no regular degree" None (Graph.regular_degree star);
  Alcotest.(check int) "min degree" 1 (Graph.min_degree star);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree star)

let test_degrees_array () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (array int)) "degrees" [| 3; 1; 1; 1 |] (Graph.degrees g)

let test_validate_accepts_generators () =
  Graph.validate (triangle ());
  Graph.validate (Rumor_graph.Gen_basic.complete 8);
  Graph.validate (Rumor_graph.Gen_basic.hypercube ~dim:5);
  Graph.validate (Rumor_graph.Gen_basic.torus ~rows:4 ~cols:5)

let test_empty_graph () =
  let g = Graph.of_edges ~n:1 [] in
  Alcotest.(check int) "n" 1 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.num_edges g);
  Graph.validate g

let prop_random_graph_validates =
  QCheck.Test.make ~count:50 ~name:"random gnm graphs validate"
    QCheck.(pair (int_range 2 40) small_nat)
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let max_m = n * (n - 1) / 2 in
      let m = Rng.int rng (max_m + 1) in
      let g = Rumor_graph.Gen_random.gnm rng ~n ~m in
      Graph.validate g;
      Graph.num_edges g = m
      && Graph.total_degree g = 2 * m)

(* --- streaming Builder ------------------------------------------------ *)

let graph_equal g1 g2 =
  Graph.n g1 = Graph.n g2
  && Graph.num_edges g1 = Graph.num_edges g2
  &&
  let same = ref true in
  for u = 0 to Graph.n g1 - 1 do
    if Graph.degree g1 u <> Graph.degree g2 u then same := false
    else
      for i = 0 to Graph.degree g1 u - 1 do
        if Graph.neighbor g1 u i <> Graph.neighbor g2 u i then same := false
      done
  done;
  !same

let build_with_builder ~n edges =
  let b = Graph.Builder.create ~n () in
  Array.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
  Graph.Builder.finish b

(* Vertex 0 is adjacent to everyone (degree 59 > 32, the merge-sort
   threshold); vertices 1..59 also form a cycle, so every other slice is
   short.  Returned in lexicographic order with u < v. *)
let hub_and_cycle_edges n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if u = 0 || v = u + 1 || (u = 1 && v = n - 1) then edges := (u, v) :: !edges
    done
  done;
  Array.of_list (List.rev !edges)

let test_builder_matches_of_edges () =
  let edges = [ (3, 1); (0, 4); (1, 0); (2, 4); (0, 2) ] in
  let b = Graph.Builder.create ~n:5 () in
  List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
  Alcotest.(check int) "edge_count" 5 (Graph.Builder.edge_count b);
  Alcotest.(check int) "vertex_count" 5 (Graph.Builder.vertex_count b);
  Alcotest.(check bool) "builder = of_edges" true
    (graph_equal (Graph.Builder.finish b) (Graph.of_edges ~n:5 edges));
  (* the same edge set in lexicographic, reversed and shuffled order (the
     shuffle also flips some endpoints) builds one canonical graph: ordered
     slices take the check-only path, the others the insertion sort or, at
     vertex 0, the merge sort *)
  let n = 60 in
  let lex = hub_and_cycle_edges n in
  let rev = Array.of_list (List.rev (Array.to_list lex)) in
  let shuffled = Array.copy lex in
  let rng = Rng.of_int 7 in
  Rng.shuffle rng shuffled;
  let shuffled =
    Array.map (fun (u, v) -> if Rng.bool rng then (v, u) else (u, v)) shuffled
  in
  let reference = Graph.of_edge_array ~n lex in
  Graph.validate reference;
  Alcotest.(check int) "hub degree" (n - 1) (Graph.degree reference 0);
  List.iter
    (fun (name, edges) ->
      Alcotest.(check bool) (name ^ " builder") true
        (graph_equal reference (build_with_builder ~n edges));
      Alcotest.(check bool) (name ^ " of_edge_array") true
        (graph_equal reference (Graph.of_edge_array ~n edges)))
    [ ("lexicographic", lex); ("reversed", rev); ("shuffled", shuffled) ]

let test_builder_grows_past_capacity () =
  (* capacity is only a hint: push far more edges than the initial buffers *)
  let n = 40 in
  let b = Graph.Builder.create ~capacity:2 ~n () in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.Builder.add_edge b u v;
      edges := (u, v) :: !edges
    done
  done;
  Alcotest.(check bool) "grown builder = of_edges" true
    (graph_equal (Graph.Builder.finish b) (Graph.of_edges ~n !edges))

let test_builder_rejects_bad_edges () =
  let b = Graph.Builder.create ~n:4 () in
  let rejects u v =
    try
      Graph.Builder.add_edge b u v;
      Alcotest.fail (Printf.sprintf "accepted edge (%d, %d)" u v)
    with Invalid_argument _ -> ()
  in
  rejects 1 1;
  rejects (-1) 2;
  rejects 0 4

let test_builder_rejects_duplicate_at_finish () =
  let b = Graph.Builder.create ~n:3 () in
  Graph.Builder.add_edge b 0 1;
  Graph.Builder.add_edge b 1 0;
  try
    ignore (Graph.Builder.finish b);
    Alcotest.fail "duplicate edge accepted"
  with Invalid_argument _ -> ()

(* A repeated edge at the hub of degree > 32: an ordered stream leaves the
   two copies adjacent in an otherwise ascending slice, a shuffled one
   scatters them.  Either way the hub slice is not strictly increasing, so it
   falls back to the merge sort, whose duplicate scan must reject it. *)
let test_rejects_duplicate_in_long_slice () =
  let n = 60 in
  let lex = hub_and_cycle_edges n in
  let ordered = Array.append [| (0, 1) |] lex in
  let shuffled = Array.copy ordered in
  Rng.shuffle (Rng.of_int 11) shuffled;
  List.iter
    (fun (name, edges) ->
      (try
         ignore (Graph.of_edge_array ~n edges);
         Alcotest.failf "%s duplicate accepted by of_edge_array" name
       with Invalid_argument _ -> ());
      try
        ignore (build_with_builder ~n edges);
        Alcotest.failf "%s duplicate accepted by the builder" name
      with Invalid_argument _ -> ())
    [ ("ordered", ordered); ("shuffled", shuffled) ]

(* G(n,p)'s sweep emits a lexicographic stream, so the builder's slice pass
   is a pure check: the graph.sort span allocates nothing at all, where a
   sort of the degree-100 slices would copy each into a scratch array. *)
let test_ordered_stream_sort_allocates_nothing () =
  let tr = Rumor_obs.Trace.create () in
  let g = Rumor_graph.Gen_random.erdos_renyi ~trace:tr (Rng.of_int 3) ~n:2000 ~p:0.05 in
  Alcotest.(check bool) "slices longer than 32" true (Graph.max_degree g > 32);
  let path = Filename.temp_file "graph_sort" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rumor_obs.Trace.write_jsonl tr path;
      match Rumor_obs.Trace.read_file path with
      | Error m -> Alcotest.fail m
      | Ok file -> (
          match
            List.filter
              (fun (e : Rumor_obs.Trace.event) -> e.name = "graph.sort")
              file.Rumor_obs.Trace.file_events
          with
          | [ e ] -> Alcotest.(check (float 0.0)) "graph.sort minor words" 0.0 e.alloc_w
          | l -> Alcotest.failf "%d graph.sort spans" (List.length l)))

let test_builder_single_use () =
  let b = Graph.Builder.create ~n:2 () in
  Graph.Builder.add_edge b 0 1;
  ignore (Graph.Builder.finish b);
  (try
     Graph.Builder.add_edge b 0 1;
     Alcotest.fail "add_edge after finish accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.Builder.finish b);
    Alcotest.fail "second finish accepted"
  with Invalid_argument _ -> ()

let test_builder_edgeless () =
  let g = Graph.Builder.finish (Graph.Builder.create ~n:6 ()) in
  Alcotest.(check int) "n" 6 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.num_edges g)

let suite =
  [
    Alcotest.test_case "vertex/edge counts" `Quick test_counts;
    Alcotest.test_case "degrees and neighbors" `Quick test_degrees_and_neighbors;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "iter_edges visits each edge once" `Quick test_iter_edges_each_once;
    Alcotest.test_case "fold/iter neighbors" `Quick test_fold_and_iter_neighbors;
    Alcotest.test_case "edge_index distinct per arc" `Quick test_edge_index_distinct;
    Alcotest.test_case "edge_index not found" `Quick test_edge_index_not_found;
    Alcotest.test_case "random_neighbor uniform" `Quick test_random_neighbor_uniform;
    Alcotest.test_case "random_neighbor isolated" `Quick test_random_neighbor_isolated;
    Alcotest.test_case "rejects self-loops" `Quick test_rejects_self_loop;
    Alcotest.test_case "rejects duplicates" `Quick test_rejects_duplicate;
    Alcotest.test_case "rejects out-of-range" `Quick test_rejects_out_of_range;
    Alcotest.test_case "regularity queries" `Quick test_regularity;
    Alcotest.test_case "degrees array" `Quick test_degrees_array;
    Alcotest.test_case "validate accepts generators" `Quick test_validate_accepts_generators;
    Alcotest.test_case "edgeless graph" `Quick test_empty_graph;
    Alcotest.test_case "builder matches of_edges" `Quick
      test_builder_matches_of_edges;
    Alcotest.test_case "builder grows past capacity" `Quick
      test_builder_grows_past_capacity;
    Alcotest.test_case "builder rejects bad edges" `Quick
      test_builder_rejects_bad_edges;
    Alcotest.test_case "builder rejects duplicate at finish" `Quick
      test_builder_rejects_duplicate_at_finish;
    Alcotest.test_case "rejects duplicates in long slices" `Quick
      test_rejects_duplicate_in_long_slice;
    Alcotest.test_case "ordered stream: graph.sort allocates nothing" `Quick
      test_ordered_stream_sort_allocates_nothing;
    Alcotest.test_case "builder is single-use" `Quick test_builder_single_use;
    Alcotest.test_case "builder edgeless graph" `Quick test_builder_edgeless;
    QCheck_alcotest.to_alcotest prop_random_graph_validates;
  ]
