(* Tests for Rumor_par.Pool and the determinism contract of parallel
   replication: any --jobs value must produce bit-identical measurements
   and sink streams (up to the per-rep timing fields). *)

module Pool = Rumor_par.Pool
module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol
module Run_record = Rumor_obs.Run_record
module Stats = Rumor_prob.Stats

(* --- the pool itself -------------------------------------------------- *)

let test_init_matches_sequential () =
  let f i = (i * 37) mod 101 in
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "init = Array.init" (Array.init 100 f)
    (Pool.init pool 100 f)

let test_map_matches_sequential () =
  let a = Array.init 64 (fun i -> i - 17) in
  let f x = (x * x) + 3 in
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check (array int)) "map = Array.map" (Array.map f a)
    (Pool.map pool f a)

let test_more_jobs_than_items () =
  let pool = Pool.create ~jobs:8 in
  Alcotest.(check (array int)) "8 jobs, 3 items" [| 0; 2; 4 |]
    (Pool.init pool 3 (fun i -> 2 * i))

let test_empty_and_singleton () =
  let pool = Pool.create ~jobs:4 in
  Alcotest.(check (array int)) "empty" [||] (Pool.init pool 0 (fun i -> i));
  Alcotest.(check (array int)) "singleton" [| 7 |] (Pool.init pool 1 (fun _ -> 7))

let test_jobs_zero_resolves () =
  Alcotest.(check bool) "0 = all cores, at least one" true
    (Pool.jobs (Pool.create ~jobs:0) >= 1)

let test_negative_jobs_rejected () =
  try
    ignore (Pool.create ~jobs:(-2));
    Alcotest.fail "negative jobs accepted"
  with Invalid_argument _ -> ()

exception Boom of int

let test_exception_propagates () =
  let pool = Pool.create ~jobs:4 in
  match Pool.init pool 50 (fun i -> if i = 23 then raise (Boom i) else i) with
  | (_ : int array) -> Alcotest.fail "worker failure swallowed"
  | exception Boom 23 -> ()
  | exception Boom i -> Alcotest.fail (Printf.sprintf "wrong payload %d" i)

(* --- parallel_for shard geometry -------------------------------------- *)

module Parallel_for = Rumor_par.Parallel_for

let test_shard_bounds_cover () =
  List.iter
    (fun (n, shards) ->
      let bounds = Parallel_for.shard_bounds ~n ~shards in
      Alcotest.(check int) "one range per shard" shards (Array.length bounds);
      let covered = ref 0 in
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "range well-formed" true (0 <= lo && lo <= hi && hi <= n);
          if i > 0 then begin
            let _, prev_hi = bounds.(i - 1) in
            Alcotest.(check int) "contiguous" prev_hi lo
          end;
          covered := !covered + (hi - lo))
        bounds;
      Alcotest.(check int) "covers [0, n)" n !covered;
      let sizes = Array.map (fun (lo, hi) -> hi - lo) bounds in
      let mn = Array.fold_left min max_int sizes
      and mx = Array.fold_left max 0 sizes in
      Alcotest.(check bool) "balanced within 1" true (mx - mn <= 1))
    [ (0, 1); (0, 5); (1, 4); (7, 3); (10, 10); (13, 4); (100, 7) ]

let test_shard_bounds_rejects () =
  List.iter
    (fun (n, shards) ->
      try
        ignore (Parallel_for.shard_bounds ~n ~shards);
        Alcotest.fail "bad geometry accepted"
      with Invalid_argument _ -> ())
    [ (-1, 2); (5, 0); (5, -1) ]

let test_parallel_for_shard_order () =
  let pool = Pool.create ~jobs:4 in
  let out =
    Parallel_for.parallel_for pool ~n:23 ~shards:5 (fun ~shard ~lo ~hi ->
        (shard, lo, hi))
  in
  Alcotest.(check int) "one result per shard" 5 (Array.length out);
  Array.iteri
    (fun i (shard, lo, hi) ->
      Alcotest.(check int) "result order = shard order" i shard;
      let want_lo, want_hi = (Parallel_for.shard_bounds ~n:23 ~shards:5).(i) in
      Alcotest.(check (pair int int)) "geometry matches" (want_lo, want_hi)
        (lo, hi))
    out

let test_parallel_for_jobs_invariant () =
  let sum_range ~shard:_ ~lo ~hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + (i * i)
    done;
    !s
  in
  let run jobs =
    Parallel_for.parallel_for (Pool.create ~jobs) ~n:1000 ~shards:7 sum_range
  in
  Alcotest.(check (array int)) "jobs 1 = jobs 4" (run 1) (run 4)

let test_parallel_for_exception () =
  let pool = Pool.create ~jobs:3 in
  match
    Parallel_for.parallel_for pool ~n:30 ~shards:6 (fun ~shard ~lo:_ ~hi:_ ->
        if shard = 4 then raise (Boom shard) else shard)
  with
  | (_ : int array) -> Alcotest.fail "shard failure swallowed"
  | exception Boom 4 -> ()
  | exception Boom i -> Alcotest.fail (Printf.sprintf "wrong payload %d" i)

(* --- jobs-invariance of Replicate ------------------------------------- *)

(* Serialize a record with its (inherently run-dependent) timing fields
   zeroed: everything else must be byte-identical across jobs settings. *)
let detimed_json (r : Run_record.t) =
  Run_record.to_json
    {
      r with
      Run_record.wall_seconds = 0.0;
      gc = { minor_words = 0.0; major_words = 0.0; promoted_words = 0.0 };
    }

let run_with ~jobs ~seed spec =
  let records = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> records := r :: !records)
      ~graph_name:"complete:24" ~jobs ~seed ~reps:6
      ~graph:(fun _rng -> (Gen.complete 24, 0))
      ~spec ~max_rounds:10_000 ()
  in
  (m, List.rev !records)

let check_jobs_invariant spec ~seed =
  let seq, seq_records = run_with ~jobs:1 ~seed spec in
  let par, par_records = run_with ~jobs:4 ~seed spec in
  Alcotest.(check (array (float 0.0))) "times identical" seq.Replicate.times
    par.Replicate.times;
  Alcotest.(check int) "capped identical" seq.Replicate.capped
    par.Replicate.capped;
  Alcotest.(check (float 0.0)) "mean identical"
    seq.Replicate.summary.Stats.mean par.Replicate.summary.Stats.mean;
  Alcotest.(check (list string)) "sink stream identical (sans timing)"
    (List.map detimed_json seq_records)
    (List.map detimed_json par_records)

let test_push_jobs_invariant () =
  check_jobs_invariant Protocol.push ~seed:401;
  check_jobs_invariant Protocol.push ~seed:402

let test_meet_exchange_jobs_invariant () =
  check_jobs_invariant (Protocol.meet_exchange ()) ~seed:403;
  check_jobs_invariant (Protocol.meet_exchange ()) ~seed:404

let test_sink_order_ascending_under_jobs () =
  let _, records = run_with ~jobs:4 ~seed:405 Protocol.push in
  Alcotest.(check (list int)) "reps arrive 0..5" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun (r : Run_record.t) -> r.Run_record.rep) records)

let test_capped_fail_deterministic_under_jobs () =
  let capped ~trace:_ ~rep:_ rng =
    Rumor_protocols.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()
  in
  match Replicate.measure ~on_capped:`Fail ~jobs:4 ~seed:406 ~reps:5 capped with
  | (_ : Replicate.measurement) -> Alcotest.fail "expected Replicate.Capped"
  | exception Replicate.Capped { rep; rounds_run } ->
      Alcotest.(check int) "lowest capped rep raises" 0 rep;
      Alcotest.(check int) "cap recorded" 2 rounds_run

let suite =
  [
    Alcotest.test_case "init matches sequential" `Quick
      test_init_matches_sequential;
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "more jobs than items" `Quick test_more_jobs_than_items;
    Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "jobs 0 resolves to >= 1" `Quick test_jobs_zero_resolves;
    Alcotest.test_case "negative jobs rejected" `Quick
      test_negative_jobs_rejected;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "shard_bounds covers and balances" `Quick
      test_shard_bounds_cover;
    Alcotest.test_case "shard_bounds rejects bad geometry" `Quick
      test_shard_bounds_rejects;
    Alcotest.test_case "parallel_for returns in shard order" `Quick
      test_parallel_for_shard_order;
    Alcotest.test_case "parallel_for jobs-invariant" `Quick
      test_parallel_for_jobs_invariant;
    Alcotest.test_case "parallel_for shard exception propagates" `Quick
      test_parallel_for_exception;
    Alcotest.test_case "push: jobs 4 = jobs 1" `Quick test_push_jobs_invariant;
    Alcotest.test_case "meet-exchange: jobs 4 = jobs 1" `Quick
      test_meet_exchange_jobs_invariant;
    Alcotest.test_case "sink order ascending under jobs" `Quick
      test_sink_order_ascending_under_jobs;
    Alcotest.test_case "on_capped:`Fail deterministic under jobs" `Quick
      test_capped_fail_deterministic_under_jobs;
  ]
