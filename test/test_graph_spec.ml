(* Tests for Rumor_sim.Graph_spec. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Graph_spec = Rumor_sim.Graph_spec

let build text =
  Graph_spec.build (Rng.of_int 1) (Graph_spec.parse_exn text)

let test_families_build () =
  List.iter
    (fun (text, expect_n) ->
      let g, source = build text in
      Alcotest.(check int) (text ^ " size") expect_n (Graph.n g);
      Alcotest.(check bool) (text ^ " source in range") true
        (source >= 0 && source < Graph.n g))
    [
      ("complete:7", 7);
      ("path:9", 9);
      ("cycle:5", 5);
      ("star:10", 11);
      ("double-star:10", 22);
      ("tree:4", 15);
      ("heavy-tree:4", 15);
      ("siamese:4", 29);
      ("csc:3", 39);
      ("grid:3x4", 12);
      ("torus:3x5", 15);
      ("hypercube:5", 32);
      ("necklace:3x4", 12);
      ("barbell:4,2", 10);
      ("lollipop:4,3", 7);
      ("random-regular:20,3", 20);
      ("er:30,0.2", 30);
      ("gnm:10,12", 10);
      ("ba:50,3", 50);
    ]

let test_default_sources () =
  (* the paper families use their lemma's source *)
  let _, star_source = build "star:5" in
  Alcotest.(check int) "star source = center" 0 star_source;
  let g, ds_source = build "double-star:5" in
  Alcotest.(check int) "double-star source is a leaf" 1 (Graph.degree g ds_source);
  let g, ht_source = build "heavy-tree:4" in
  Alcotest.(check bool) "heavy-tree source is a clique leaf" true
    (Graph.degree g ht_source = 8)

let test_case_insensitive_family () =
  match Graph_spec.parse "Star:4" with
  | Ok s -> Alcotest.(check string) "canonical" "star:4" (Graph_spec.to_string s)
  | Error m -> Alcotest.fail m

let test_roundtrip_to_string () =
  List.iter
    (fun text ->
      let s = Graph_spec.parse_exn text in
      Alcotest.(check string) "canonical form" text (Graph_spec.to_string s))
    [ "complete:7"; "grid:3x4"; "random-regular:20,3"; "er:30,0.2"; "csc:3" ]

let test_is_random () =
  Alcotest.(check bool) "random-regular" true
    (Graph_spec.is_random (Graph_spec.parse_exn "random-regular:10,3"));
  Alcotest.(check bool) "er" true (Graph_spec.is_random (Graph_spec.parse_exn "er:10,0.5"));
  Alcotest.(check bool) "ba" true (Graph_spec.is_random (Graph_spec.parse_exn "ba:10,2"));
  Alcotest.(check bool) "star" false (Graph_spec.is_random (Graph_spec.parse_exn "star:5"))

let test_parse_errors () =
  List.iter
    (fun text ->
      match Graph_spec.parse text with
      | Ok _ -> Alcotest.failf "%S accepted" text
      | Error m -> Alcotest.(check bool) "message non-empty" true (String.length m > 0))
    [
      "unknown:3"; "star"; "star:x"; "grid:3"; "grid:3,4"; "er:10"; "random-regular:10";
      (* well-formed but outside the generator's preconditions *)
      "star:0"; "cycle:1"; "er:100,2.0"; "er:0,0.5"; "er:10,nan"; "random-regular:5,3";
      "random-regular:10,10"; "random-regular:4,1"; "grid:0x3"; "torus:2x5";
      "gnm:5,100"; "hypercube:25"; "heavy-tree:1"; "necklace:3x3"; "ba:3,3";
    ]

let test_valid_edge_specs_parse () =
  (* boundary values of each precondition, and every perfbench spec *)
  List.iter
    (fun text ->
      match Graph_spec.parse text with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%S rejected: %s" text m)
    [
      "complete:1"; "path:1"; "cycle:3"; "star:1"; "tree:1"; "siamese:2"; "csc:3";
      "grid:1x1"; "torus:3x3"; "hypercube:24"; "barbell:2,0"; "lollipop:2,1";
      "random-regular:2,1"; "random-regular:5,4"; "er:1,0.0"; "er:5,1.0"; "gnm:5,10";
      "gnm:5,0"; "ba:3,2"; "er:200000,0.0004"; "random-regular:100000,16"; "star:400";
      "double-star:400"; "heavy-tree:9"; "siamese:8"; "csc:6";
    ]

let run_exe = Filename.concat (Filename.concat ".." "bin") "rumor_run.exe"

let test_cli_bad_spec_exit_code () =
  if not (Sys.file_exists run_exe) then
    (* dune declares the exe as a test dep; guard anyway for odd setups *)
    Alcotest.skip ()
  else
    let exit_code args =
      Sys.command
        (Filename.quote_command run_exe args ~stdout:Filename.null
           ~stderr:Filename.null)
    in
    let run spec = exit_code [ "-g"; spec; "-p"; "push"; "--reps"; "1" ] in
    Alcotest.(check int) "valid spec runs" 0 (run "star:5");
    Alcotest.(check int) "star:0 is a usage error, not an internal one" 124 (run "star:0");
    (* sharded sparse walkers need no extra switch *)
    Alcotest.(check int) "--shards 2 --walkers sparse runs" 0
      (exit_code
         [
           "-g"; "torus:4x4"; "-p"; "visit-exchange"; "--reps"; "1"; "--shards"; "2";
           "--walkers"; "sparse";
         ]);
    Alcotest.(check int) "--engine is an unknown option" 124
      (exit_code [ "-g"; "star:5"; "-p"; "push"; "--reps"; "1"; "--engine" ])

(* Records carry the shard count the kernel used, not the one requested:
   pull and the continuous-time kernels ignore --shards. *)
let test_cli_metrics_stamp_shards_used () =
  if not (Sys.file_exists run_exe) then Alcotest.skip ()
  else begin
    let path = Filename.temp_file "rumor_shards" ".jsonl" in
    let code =
      Sys.command
        (Filename.quote_command run_exe
           [
             "-g"; "torus:4x4"; "-p"; "push"; "-p"; "pull"; "-p"; "async-push";
             "--reps"; "1"; "--shards"; "2"; "--metrics"; path;
           ]
           ~stdout:Filename.null ~stderr:Filename.null)
    in
    let lines = In_channel.with_open_text path In_channel.input_lines in
    Sys.remove path;
    Alcotest.(check int) "exit code" 0 code;
    let stamped =
      List.map
        (fun line ->
          match Rumor_obs.Run_record.of_json line with
          | Ok r -> (r.Rumor_obs.Run_record.protocol, r.Rumor_obs.Run_record.shards)
          | Error e -> Alcotest.fail e)
        lines
    in
    Alcotest.(check (list (pair string int)))
      "protocol, shards"
      [ ("push", 2); ("pull", 1); ("async-push", 1) ]
      stamped
  end

let test_random_spec_uses_rng () =
  let spec = Graph_spec.parse_exn "random-regular:30,3" in
  let g1, _ = Graph_spec.build (Rng.of_int 1) spec in
  let g2, _ = Graph_spec.build (Rng.of_int 2) spec in
  let differs = ref false in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then differs := true);
  Alcotest.(check bool) "different seeds, different graphs" true !differs

let suite =
  [
    Alcotest.test_case "all families build" `Quick test_families_build;
    Alcotest.test_case "default sources" `Quick test_default_sources;
    Alcotest.test_case "case-insensitive family" `Quick test_case_insensitive_family;
    Alcotest.test_case "to_string roundtrip" `Quick test_roundtrip_to_string;
    Alcotest.test_case "is_random" `Quick test_is_random;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "boundary specs parse" `Quick test_valid_edge_specs_parse;
    Alcotest.test_case "rumor_run exit codes" `Quick
      test_cli_bad_spec_exit_code;
    Alcotest.test_case "rumor_run --metrics stamps the shards used" `Quick
      test_cli_metrics_stamp_shards_used;
    Alcotest.test_case "random specs use the rng" `Quick test_random_spec_uses_rng;
  ]
