(* Tests for Rumor_obs: instrument hooks, run records, and the metrics
   wiring through Replicate. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module P = Rumor_protocols
module Obs = Rumor_obs.Instrument
module Run_record = Rumor_obs.Run_record
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol

let check_monotone name curve =
  Array.iteri
    (fun i x ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: curve.(%d) >= curve.(%d)" name i (i - 1))
          true
          (x >= curve.(i - 1)))
    curve

(* --- hooks fire exactly rounds_run times ----------------------------- *)

let test_hooks_fire_rounds_run () =
  List.iter
    (fun (name, spec) ->
      let rec_ = Obs.Recorder.create () in
      let r =
        Protocol.run ~obs:(Obs.Recorder.instrument rec_) spec (Rng.of_int 42)
          (Gen.complete 24) ~source:0 ~max_rounds:10_000
      in
      Alcotest.(check int)
        (name ^ ": round_start count")
        r.P.Run_result.rounds_run
        (Obs.Recorder.rounds_started rec_);
      Alcotest.(check int)
        (name ^ ": round_end count")
        r.P.Run_result.rounds_run
        (Obs.Recorder.rounds_ended rec_))
    [
      ("push", Protocol.push);
      ("push-pull", Protocol.push_pull);
      ("pull", Protocol.pull);
      ("quasi-push", Protocol.quasi_push);
      ("cobra", Protocol.cobra ());
      ("frog", Protocol.frog ());
      ("flood", Protocol.flood);
      ("visit-exchange", Protocol.visit_exchange ());
      ("meet-exchange", Protocol.meet_exchange ());
      ("combined", Protocol.combined ());
    ]

let test_recorder_matches_run_result () =
  let rec_ = Obs.Recorder.create () in
  let r =
    P.Engine.push ~obs:(Obs.Recorder.instrument rec_) (Rng.of_int 7)
      (Gen.complete 32) ~source:0 ~max_rounds:10_000 ()
  in
  (* Run_result's curve has the round-0 state prepended *)
  let expected = Array.sub r.P.Run_result.informed_curve 1 r.P.Run_result.rounds_run in
  Alcotest.(check (array int)) "recorder curve = result curve tail" expected
    (Obs.Recorder.curve rec_);
  Alcotest.(check int) "contacts seen = contacts counted"
    r.P.Run_result.contacts (Obs.Recorder.contacts rec_);
  Alcotest.(check (option int)) "last informed = n" (Some 32)
    (Obs.Recorder.last_informed rec_)

let test_curves_monotone () =
  List.iter
    (fun (name, spec) ->
      let rec_ = Obs.Recorder.create () in
      let _ =
        Protocol.run ~obs:(Obs.Recorder.instrument rec_) spec (Rng.of_int 11)
          (Gen.cycle 64) ~source:0 ~max_rounds:100_000
      in
      check_monotone name (Obs.Recorder.curve rec_))
    [ ("push", Protocol.push); ("push-pull", Protocol.push_pull) ]

let test_pair_duplicates_hooks () =
  (* a paired instrument must drive both recorders identically — and the
     pair must see exactly what a single recorder would *)
  let rec_a = Obs.Recorder.create () and rec_b = Obs.Recorder.create () in
  let solo = Obs.Recorder.create () in
  let run obs =
    P.Engine.visit_exchange ~obs (Rng.of_int 13) (Gen.complete 12) ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 12) ~max_rounds:10_000 ()
  in
  let paired =
    run (Obs.pair (Obs.Recorder.instrument rec_a) (Obs.Recorder.instrument rec_b))
  in
  let alone = run (Obs.Recorder.instrument solo) in
  Alcotest.(check (option int)) "same broadcast time"
    alone.P.Run_result.broadcast_time paired.P.Run_result.broadcast_time;
  List.iter
    (fun (name, r) ->
      Alcotest.(check int)
        (name ^ ": rounds started")
        (Obs.Recorder.rounds_started solo)
        (Obs.Recorder.rounds_started r);
      Alcotest.(check int)
        (name ^ ": contacts")
        (Obs.Recorder.contacts solo) (Obs.Recorder.contacts r);
      Alcotest.(check int)
        (name ^ ": walker moves")
        (Obs.Recorder.walker_moves solo)
        (Obs.Recorder.walker_moves r);
      Alcotest.(check (array int))
        (name ^ ": curve")
        (Obs.Recorder.curve solo) (Obs.Recorder.curve r))
    [ ("left", rec_a); ("right", rec_b) ]

let test_pair_calls_left_then_right () =
  let order = ref [] in
  let tag name =
    Obs.make ~on_round_end:(fun ~round:_ ~informed:_ ~contacts:_ ->
        order := name :: !order) ()
  in
  (Obs.pair (tag "a") (tag "b")).Obs.on_round_end ~round:1 ~informed:1
    ~contacts:0;
  Alcotest.(check (list string)) "left fires before right" [ "a"; "b" ]
    (List.rev !order)

let test_nop_does_not_change_result () =
  let run obs =
    P.Engine.push_pull ?obs (Rng.of_int 97) (Gen.complete 40) ~source:0
      ~max_rounds:10_000 ()
  in
  let plain = run None and instrumented = run (Some Obs.nop) in
  Alcotest.(check (option int)) "same broadcast time"
    plain.P.Run_result.broadcast_time instrumented.P.Run_result.broadcast_time;
  Alcotest.(check int) "same contacts" plain.P.Run_result.contacts
    instrumented.P.Run_result.contacts

let test_walker_moves_counted () =
  let rec_ = Obs.Recorder.create () in
  let r =
    P.Engine.visit_exchange ~obs:(Obs.Recorder.instrument rec_) (Rng.of_int 3)
      (Gen.complete 16) ~source:0 ~agents:(Rumor_agents.Placement.Stationary 16)
      ~max_rounds:10_000 ()
  in
  (* 16 agents each step once per round *)
  Alcotest.(check int) "one move per agent per round"
    (16 * r.P.Run_result.rounds_run)
    (Obs.Recorder.walker_moves rec_)

(* --- lazy-walk default on bipartite graphs --------------------------- *)

let test_meetx_even_cycle_terminates () =
  (* an even cycle is bipartite: the old non-lazy default could trap agents
     in parity classes forever; the Lazy_auto default must terminate *)
  let r =
    P.Engine.meet_exchange (Rng.of_int 5) (Gen.cycle 16) ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 8) ~max_rounds:200_000 ()
  in
  Alcotest.(check bool) "completes under the bipartite-aware default" true
    (r.P.Run_result.broadcast_time <> None)

let test_async_meetx_k2_default () =
  let g = Gen.complete 2 in
  let r =
    P.Async_engine.meet_exchange (Rng.of_int 6) g ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 2) ~max_time:1e6
  in
  Alcotest.(check bool) "continuous K2 completes" true
    (r.P.Async_meet_exchange.broadcast_time <> None)

(* --- run records ------------------------------------------------------ *)

let sample_record =
  {
    Run_record.seed = 218;
    rep = 3;
    graph = "star:8";
    protocol = "push";
    vertices = 8;
    broadcast_time = Some 5;
    rounds_run = 5;
    capped = false;
    contacts = 40;
    informed_curve = [| 1; 2; 4; 8 |];
    wall_seconds = 0.125;
    gc = { Run_record.minor_words = 10.0; major_words = 2.0; promoted_words = 1.0 };
    shards = 1;
  }

let contains_sub s sub =
  let sl = String.length sub and l = String.length s in
  let rec scan i = i + sl <= l && (String.equal (String.sub s i sl) sub || scan (i + 1)) in
  scan 0

let test_record_json_fields () =
  let json = Run_record.to_json sample_record in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "%S contains %S" json fragment)
        true
        (let fl = String.length fragment and jl = String.length json in
         let rec scan i = i + fl <= jl && (String.sub json i fl = fragment || scan (i + 1)) in
         scan 0))
    [
      "\"seed\":218";
      "\"rep\":3";
      "\"graph\":\"star:8\"";
      "\"protocol\":\"push\"";
      "\"vertices\":8";
      "\"broadcast_time\":5";
      "\"capped\":false";
      "\"informed_curve\":[1,2,4,8]";
      "\"minor_words\":";
    ];
  Alcotest.(check bool) "single line" true
    (not (String.contains json '\n'))

let test_record_json_null_when_capped () =
  let json =
    Run_record.to_json
      { sample_record with Run_record.broadcast_time = None; capped = true }
  in
  let contains fragment =
    let fl = String.length fragment and jl = String.length json in
    let rec scan i = i + fl <= jl && (String.sub json i fl = fragment || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "null broadcast_time" true
    (contains "\"broadcast_time\":null");
  Alcotest.(check bool) "capped true" true (contains "\"capped\":true")

(* The shards field round-trips through to_json/of_json; records no longer
   carry the retired "engine" field. *)
let test_record_shards_roundtrip () =
  let r = { sample_record with Run_record.shards = 4 } in
  let json = Run_record.to_json r in
  Alcotest.(check bool) "no engine field" false (contains_sub json "\"engine\"");
  match Run_record.of_json json with
  | Error msg -> Alcotest.failf "round-trip: %s" msg
  | Ok back ->
      Alcotest.(check int) "shards" 4 back.Run_record.shards;
      Alcotest.(check string) "full round-trip" json (Run_record.to_json back)

(* Lines written by earlier releases still parse: one carrying the retired
   "engine" field, and one written before "engine"/"shards" existed. *)
let test_record_old_lines_accepted () =
  let json = Run_record.to_json sample_record in
  let shards_at =
    let marker = ",\"shards\":" in
    let ml = String.length marker in
    let rec find i =
      if i + ml > String.length json then Alcotest.fail "no shards field emitted"
      else if String.equal (String.sub json i ml) marker then i
      else find (i + 1)
    in
    find 0
  in
  let before = String.sub json 0 shards_at in
  let after = String.sub json shards_at (String.length json - shards_at) in
  let with_engine = before ^ ",\"engine\":true" ^ after in
  let without_either = before ^ "}" in
  (match Run_record.of_json with_engine with
  | Error msg -> Alcotest.failf "line with engine rejected: %s" msg
  | Ok back ->
      Alcotest.(check string) "engine field ignored" json (Run_record.to_json back));
  match Run_record.of_json without_either with
  | Error msg -> Alcotest.failf "line without engine/shards rejected: %s" msg
  | Ok back ->
      Alcotest.(check int) "shards defaults 1" 1 back.Run_record.shards;
      Alcotest.(check string) "other fields intact" json (Run_record.to_json back)

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "rumor_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_record.with_jsonl_file path (fun sink ->
          sink sample_record;
          sink { sample_record with Run_record.rep = 4 });
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "two lines" 2 (List.length !lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        !lines)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> close_in ic);
  !n

let test_jsonl_append_flag () =
  let path = Filename.temp_file "rumor_obs_append" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_record.with_jsonl_file path (fun sink ->
          sink sample_record;
          sink sample_record);
      Run_record.with_jsonl_file ~append:true path (fun sink ->
          sink { sample_record with Run_record.rep = 4 });
      Alcotest.(check int) "append keeps earlier records" 3 (count_lines path);
      Alcotest.(check int) "appended records read back" 3
        (List.length (Run_record.read_jsonl path));
      Run_record.with_jsonl_file path (fun sink -> sink sample_record);
      Alcotest.(check int) "default truncates" 1 (count_lines path))

(* --- Replicate wiring ------------------------------------------------- *)

let test_sink_gets_one_record_per_rep () =
  let records = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> records := r :: !records)
      ~graph_name:"complete:16" ~seed:218 ~reps:5
      ~graph:(fun _rng -> (Gen.complete 16, 0))
      ~spec:Protocol.push ~max_rounds:10_000 ()
  in
  let records = List.rev !records in
  Alcotest.(check int) "five records" 5 (List.length records);
  List.iteri
    (fun i (r : Run_record.t) ->
      Alcotest.(check int) "rep index" i r.Run_record.rep;
      Alcotest.(check int) "seed recorded" 218 r.Run_record.seed;
      Alcotest.(check string) "graph label" "complete:16" r.Run_record.graph;
      Alcotest.(check string) "protocol name" "push" r.Run_record.protocol;
      Alcotest.(check int) "vertices" 16 r.Run_record.vertices;
      Alcotest.(check bool) "not capped" false r.Run_record.capped;
      Alcotest.(check bool) "wall clock non-negative" true
        (r.Run_record.wall_seconds >= 0.0);
      Alcotest.(check bool) "allocated something" true
        (r.Run_record.gc.Run_record.minor_words >= 0.0);
      check_monotone "record curve" r.Run_record.informed_curve)
    records;
  (* times must agree with the records' broadcast times *)
  List.iteri
    (fun i (r : Run_record.t) ->
      match r.Run_record.broadcast_time with
      | Some t ->
          Alcotest.(check (float 1e-9)) "times matches record" (float_of_int t)
            m.Replicate.times.(i)
      | None -> Alcotest.fail "unexpected capped run")
    records

let capped_push ~trace:_ ~rep:_ rng =
  P.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()

let test_on_capped_keep_default () =
  let m = Replicate.measure ~seed:216 ~reps:4 capped_push in
  Alcotest.(check int) "all counted as capped" 4 m.Replicate.capped

let test_on_capped_fail_raises () =
  match Replicate.measure ~on_capped:`Fail ~seed:216 ~reps:4 capped_push with
  | exception Replicate.Capped { rep; rounds_run } ->
      Alcotest.(check int) "first rep raises" 0 rep;
      Alcotest.(check int) "cap recorded" 2 rounds_run
  | _ -> Alcotest.fail "expected Replicate.Capped"

let test_record_sees_capped_runs () =
  let capped_flags = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> capped_flags := r.Run_record.capped :: !capped_flags)
      ~seed:216 ~reps:3
      ~graph:(fun _rng -> (Gen.path 50, 0))
      ~spec:Protocol.push ~max_rounds:2 ()
  in
  Alcotest.(check int) "measurement counts caps" 3 m.Replicate.capped;
  Alcotest.(check (list bool)) "records flag caps" [ true; true; true ]
    !capped_flags

let suite =
  [
    Alcotest.test_case "hooks fire rounds_run times" `Quick
      test_hooks_fire_rounds_run;
    Alcotest.test_case "recorder matches run result" `Quick
      test_recorder_matches_run_result;
    Alcotest.test_case "curves monotone" `Quick test_curves_monotone;
    Alcotest.test_case "pair duplicates hooks" `Quick test_pair_duplicates_hooks;
    Alcotest.test_case "pair calls left then right" `Quick
      test_pair_calls_left_then_right;
    Alcotest.test_case "nop obs preserves results" `Quick
      test_nop_does_not_change_result;
    Alcotest.test_case "walker moves counted" `Quick test_walker_moves_counted;
    Alcotest.test_case "meet-exchange terminates on even cycle" `Quick
      test_meetx_even_cycle_terminates;
    Alcotest.test_case "async meet-exchange K2 default" `Quick
      test_async_meetx_k2_default;
    Alcotest.test_case "record JSON fields" `Quick test_record_json_fields;
    Alcotest.test_case "record JSON capped null" `Quick
      test_record_json_null_when_capped;
    Alcotest.test_case "record shards roundtrip" `Quick test_record_shards_roundtrip;
    Alcotest.test_case "record old lines accepted" `Quick
      test_record_old_lines_accepted;
    Alcotest.test_case "JSONL file roundtrip" `Quick test_jsonl_file_roundtrip;
    Alcotest.test_case "JSONL append flag" `Quick test_jsonl_append_flag;
    Alcotest.test_case "sink gets one record per rep" `Quick
      test_sink_gets_one_record_per_rep;
    Alcotest.test_case "on_capped keep default" `Quick test_on_capped_keep_default;
    Alcotest.test_case "on_capped fail raises" `Quick test_on_capped_fail_raises;
    Alcotest.test_case "records see capped runs" `Quick
      test_record_sees_capped_runs;
  ]
