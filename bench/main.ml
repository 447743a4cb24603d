(* Benchmark harness.

   Usage:
     dune exec bench/main.exe                 # paper tables (quick) + microbenches
     dune exec bench/main.exe -- --full       # the EXPERIMENTS.md grids (slow)
     dune exec bench/main.exe -- --tables-only
     dune exec bench/main.exe -- --micro-only # also writes BENCH_<seed>.json
     dune exec bench/main.exe -- --seed 7
     dune exec bench/main.exe -- --tables-only --metrics bench.jsonl

   Part 1 regenerates every "table/figure" of the paper: one section per
   experiment E1..E10 (Figure 1(a)-(e), Theorems 1/23/24/25, the Section 5
   coupling invariants, the Section 1 combination claim) plus the ablations
   A1..A4.  Part 2 is a Bechamel microbenchmark of the engine: one
   Test.make per protocol on a reference graph, plus the substrate
   hot paths (PRNG, alias sampling, walker stepping, graph generation);
   its OLS estimates are snapshotted to a machine-readable BENCH JSON that
   `rumor_report compare` can diff across invocations. *)

module Experiments = Rumor_sim.Experiments
module Table = Rumor_sim.Table
module Rng = Rumor_prob.Rng
module P = Rumor_protocols
module Clock = Rumor_obs.Clock
module Trace = Rumor_obs.Trace

let write_trace tr path =
  if Filename.check_suffix path ".jsonl" then Trace.write_jsonl tr path
  else Trace.write_chrome tr path

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures                              *)
(* ------------------------------------------------------------------ *)

let run_tables ?metrics ?trace ~jobs profile ~seed =
  print_endline "=====================================================================";
  print_endline " Part 1: paper reproduction tables";
  print_endline " (one experiment per figure panel / theorem; see DESIGN.md section 3)";
  print_endline "=====================================================================";
  let results = Experiments.run_all ?metrics ?trace ~jobs profile ~seed in
  List.iter
    (fun ((e : Experiments.t), tables) ->
      Printf.printf "\n### %s: %s [%s]\n\n" e.Experiments.id e.Experiments.title
        e.Experiments.paper_ref;
      List.iter
        (fun t ->
          Table.print t;
          print_newline ())
        tables)
    results

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks of the engine                      *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let reference_graph =
  lazy
    (let rng = Rng.of_int 12345 in
     Rumor_graph.Gen_random.random_regular_connected rng ~n:1024 ~d:10)

let protocol_tests () =
  let g = Lazy.force reference_graph in
  let agents = Rumor_agents.Placement.Linear 1.0 in
  let max_rounds = 100_000 in
  let counter = ref 0 in
  let next_seed () =
    incr counter;
    !counter
  in
  [
    Test.make ~name:"push/regular-1024"
      (Staged.stage (fun () ->
           P.Engine.push (Rng.of_int (next_seed ())) g ~source:0 ~max_rounds ()));
    Test.make ~name:"push-pull/regular-1024"
      (Staged.stage (fun () ->
           P.Engine.push_pull (Rng.of_int (next_seed ())) g ~source:0 ~max_rounds ()));
    Test.make ~name:"visit-exchange/regular-1024"
      (Staged.stage (fun () ->
           P.Engine.visit_exchange (Rng.of_int (next_seed ())) g ~source:0 ~agents
             ~max_rounds ()));
    Test.make ~name:"meet-exchange/regular-1024"
      (Staged.stage (fun () ->
           P.Engine.meet_exchange (Rng.of_int (next_seed ())) g ~source:0 ~agents
             ~max_rounds ()));
    Test.make ~name:"combined/regular-1024"
      (Staged.stage (fun () ->
           P.Engine.combined (Rng.of_int (next_seed ())) g ~source:0 ~agents
             ~max_rounds ()));
    Test.make ~name:"quasi-push/regular-1024"
      (Staged.stage (fun () ->
           P.Quasi_push.run (Rng.of_int (next_seed ())) g ~source:0 ~max_rounds ()));
    Test.make ~name:"cobra-2/regular-1024"
      (Staged.stage (fun () ->
           P.Cobra.run (Rng.of_int (next_seed ())) g ~source:0 ~branching:2 ~max_rounds ()));
    Test.make ~name:"frog/regular-1024"
      (Staged.stage (fun () ->
           P.Frog.run (Rng.of_int (next_seed ())) g ~source:0 ~max_rounds ()));
    Test.make ~name:"flood/regular-1024"
      (Staged.stage (fun () -> P.Flood.run g ~source:0 ~max_rounds ()));
    Test.make ~name:"async-push/regular-1024"
      (Staged.stage (fun () ->
           P.Async_engine.push (Rng.of_int (next_seed ())) g
             ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6));
  ]

let substrate_tests () =
  let g = Lazy.force reference_graph in
  let rng = Rng.of_int 777 in
  let alias = Rumor_agents.Placement.stationary_weights g in
  let walkers =
    Rumor_agents.Walkers.of_spec (Rng.of_int 778) g (Rumor_agents.Placement.Linear 1.0)
  in
  let buckets = Rumor_agents.Walkers.Buckets.create walkers in
  [
    Test.make ~name:"rng/bits64"
      (Staged.stage (fun () -> ignore (Rng.bits64 rng)));
    Test.make ~name:"rng/int-1000"
      (Staged.stage (fun () -> ignore (Rng.int rng 1000)));
    Test.make ~name:"alias/sample"
      (Staged.stage (fun () -> ignore (Rumor_prob.Alias.sample alias rng)));
    Test.make ~name:"walkers/step-1024-agents"
      (Staged.stage (fun () -> Rumor_agents.Walkers.step walkers));
    Test.make ~name:"walkers/buckets-refresh"
      (Staged.stage (fun () -> Rumor_agents.Walkers.Buckets.refresh buckets walkers));
    Test.make ~name:"graph/random-regular-512"
      (Staged.stage (fun () ->
           ignore
             (Rumor_graph.Gen_random.random_regular (Rng.of_int 991) ~n:512 ~d:10)));
    Test.make ~name:"graph/bfs-1024"
      (Staged.stage (fun () -> ignore (Rumor_graph.Algo.bfs_distances g 0)));
    Test.make ~name:"graph/spectral-gap-1024"
      (Staged.stage (fun () ->
           ignore (Rumor_graph.Spectral.spectral_gap ~iterations:50 g)));
    Test.make ~name:"graph/hitting-times-128"
      (Staged.stage
         (let small = Rumor_graph.Gen_basic.hypercube ~dim:7 in
          fun () -> ignore (Rumor_graph.Hitting.hitting_times small 0)));
  ]

let human_ns t =
  if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
  else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
  else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
  else Printf.sprintf "%.1f ns" t

(* Macro wall-clock entries: whole replication batches through
   Replicate.broadcast_times, the code path --jobs parallelizes.  Names are
   stable across jobs settings so `rumor_report compare BENCH_a.json
   BENCH_b.json` of two snapshots taken at different --jobs shows the
   speedup as the ratio column; the snapshot's [jobs] field tells the runs
   apart. *)
let run_macro ?trace ~jobs () =
  print_endline "=====================================================================";
  Printf.printf " Part 3: macro replication wall-clock (jobs %d)\n" jobs;
  print_endline "=====================================================================";
  let module Replicate = Rumor_sim.Replicate in
  let module Protocol = Rumor_sim.Protocol in
  let agents = Rumor_agents.Placement.Linear 1.0 in
  let graph rng =
    (Rumor_graph.Gen_random.random_regular_connected rng ~n:2048 ~d:8, 0)
  in
  let time name spec =
    let t0 = Clock.now_s () in
    let m =
      Replicate.broadcast_times ?trace ~jobs ~seed:42 ~reps:12 ~graph ~spec
        ~max_rounds:100_000 ()
    in
    let dt_ns = Clock.elapsed_ns ~since_s:t0 in
    Printf.printf "%-40s %15s  (mean bt %.1f)\n" name (human_ns dt_ns)
      m.Replicate.summary.Rumor_prob.Stats.mean;
    { Rumor_obs.Bench_record.name; time_ns = dt_ns; r_square = nan }
  in
  [
    time "replicate/push/regular-2048x12" Protocol.Push;
    time "replicate/visit-exchange/regular-2048x12"
      (Protocol.Visit_exchange { agents; laziness = Protocol.Lazy_auto });
  ]

let run_micro () =
  print_endline "=====================================================================";
  print_endline " Part 2: engine microbenchmarks (Bechamel, monotonic clock)";
  print_endline "=====================================================================";
  let tests = protocol_tests () @ substrate_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"rumor" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "\n%-40s %15s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 65 '-');
  let entries =
    List.map
      (fun (name, ols) ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
        Printf.printf "%-40s %15s %8.3f\n" name (human_ns estimate) r2;
        { Rumor_obs.Bench_record.name; time_ns = estimate; r_square = r2 })
      rows
  in
  entries

(* ------------------------------------------------------------------ *)
(* Part 4: engine hot-path throughput (flat-frontier kernels)          *)
(* ------------------------------------------------------------------ *)

(* G(n, p) at 1.25 ln n / n: connected w.h.p. with average degree
   2.5 ln n, the sparse regime the engine targets.  Isolated vertices or a
   disconnected sample would turn the bench into a round-cap grind (and
   push-pull draws a neighbor for every vertex), so resample on the rare
   failure. *)
let engine_graph ~seed n =
  let p =
    if n <= 2 then 1.0
    else Float.min 1.0 (1.25 *. log (float_of_int n) /. float_of_int n)
  in
  let rec pick seed tries =
    if tries > 20 then failwith "engine bench: no connected G(n,p) in 20 tries";
    let g = Rumor_graph.Gen_random.erdos_renyi (Rng.of_int seed) ~n ~p in
    if Rumor_graph.Graph.min_degree g >= 1 && Rumor_graph.Algo.is_connected g
    then g
    else pick (seed + 1) (tries + 1)
  in
  pick seed 0

let entry name time_ns = { Rumor_obs.Bench_record.name; time_ns; r_square = nan }

(* One timed engine run -> total, per-round and per-contact entries, so
   `rumor_report compare` tracks rounds/sec and edge-traversals/sec across
   snapshots. *)
let engine_run ?trace ~n name run =
  let t0 = Clock.now_s () in
  let (r : P.Run_result.t) =
    Trace.with_span trace (Printf.sprintf "bench.%s.er-%d" name n) run
  in
  let dt_ns = Clock.elapsed_ns ~since_s:t0 in
  let rounds = float_of_int (max r.P.Run_result.rounds_run 1) in
  let contacts = float_of_int (max r.P.Run_result.contacts 1) in
  Printf.printf "%-28s %12s  %12s/round  %6.1f ns/contact  (%d rounds%s)\n" name
    (human_ns dt_ns)
    (human_ns (dt_ns /. rounds))
    (dt_ns /. contacts) r.P.Run_result.rounds_run
    (match r.P.Run_result.broadcast_time with
    | Some t -> Printf.sprintf ", T = %d" t
    | None -> ", capped");
  [
    entry (Printf.sprintf "engine/%s/er-%d" name n) dt_ns;
    entry (Printf.sprintf "engine/%s/er-%d/ns-per-round" name n) (dt_ns /. rounds);
    entry
      (Printf.sprintf "engine/%s/er-%d/ns-per-contact" name n)
      (dt_ns /. contacts);
  ]

let run_engine_bench ?trace ~scale ~push_scale ~shards () =
  print_endline "=====================================================================";
  Printf.printf " Part 4: engine hot path (flat-frontier kernels, shards %d)\n" shards;
  print_endline "=====================================================================";
  let module Engine = P.Engine in
  let agents = Rumor_agents.Placement.Linear 1.0 in
  let max_rounds = 100_000 in
  let all_kernels n =
    let t0 = Clock.now_s () in
    let g = engine_graph ~seed:2024 n in
    let build_ns = Clock.elapsed_ns ~since_s:t0 in
    Printf.printf "er:%d — %d edges, built in %s\n" n
      (Rumor_graph.Graph.num_edges g)
      (human_ns build_ns);
    (* sequential lets: a list literal would evaluate (and print) the
       kernels right-to-left *)
    let push =
      engine_run ?trace ~n "push" (fun () ->
          Engine.push ?trace ~shards (Rng.of_int 31) g ~source:0 ~max_rounds ())
    in
    let push_pull =
      engine_run ?trace ~n "push-pull" (fun () ->
          Engine.push_pull ?trace ~shards (Rng.of_int 32) g ~source:0 ~max_rounds
            ())
    in
    let ve =
      engine_run ?trace ~n "visit-exchange" (fun () ->
          Engine.visit_exchange ?trace ~shards (Rng.of_int 33) g ~source:0
            ~agents ~max_rounds ())
    in
    let me =
      engine_run ?trace ~n "meet-exchange" (fun () ->
          Engine.meet_exchange ?trace ~shards (Rng.of_int 34) g ~source:0 ~agents
            ~max_rounds ())
    in
    entry (Printf.sprintf "engine/graph-build/er-%d" n) build_ns
    :: List.concat [ push; push_pull; ve; me ]
  in
  let base = all_kernels scale in
  (* the paper-scale demonstration: push only — the walker kernels would
     place [n] agents, which is a different (much longer) experiment *)
  let demo =
    if push_scale <= 0 then []
    else begin
      let t0 = Clock.now_s () in
      let g = engine_graph ~seed:4048 push_scale in
      let build_ns = Clock.elapsed_ns ~since_s:t0 in
      Printf.printf "er:%d — %d edges, built in %s\n" push_scale
        (Rumor_graph.Graph.num_edges g)
        (human_ns build_ns);
      entry (Printf.sprintf "engine/graph-build/er-%d" push_scale) build_ns
      :: engine_run ?trace ~n:push_scale "push" (fun () ->
             Engine.push ?trace ~shards (Rng.of_int 35) g ~source:0 ~max_rounds
               ())
    end
  in
  base @ demo

(* ------------------------------------------------------------------ *)
(* Part 5: DES scheduler throughput (heap vs calendar queue)           *)
(* ------------------------------------------------------------------ *)

(* Brown's classic hold-model benchmark: prefill the queue with n pending
   events, then time pop+reschedule cycles at steady state — exactly the
   access pattern of the async kernels, which reschedule the popped clock
   on (almost) every ring.  Exp(1) gaps are pre-drawn so the numbers
   isolate the scheduler from the sampler; each entry's time_ns is ns per
   hold operation, so `rumor_report compare` ratios read directly as
   scheduler speedups. *)
module Hold (Q : Rumor_des.Queue_intf.S) = struct
  let run ~n ~ops =
    let rng = Rng.of_int 4242 in
    let gaps = Array.init ops (fun _ -> Rumor_prob.Dist.exponential rng 1.0) in
    let q = Q.create () in
    for i = 0 to n - 1 do
      Q.push q (Rumor_prob.Dist.exponential rng 1.0) i
    done;
    let slot = ref 0 in
    let t0 = Clock.now_s () in
    for i = 0 to ops - 1 do
      let t = Q.pop_into q slot in
      Q.push q (t +. Array.unsafe_get gaps i) !slot
    done;
    let dt_ns = Clock.elapsed_ns ~since_s:t0 in
    (dt_ns /. float_of_int ops, q)
end

module Hold_heap = Hold (Rumor_des.Event_queue)
module Hold_calendar = Hold (Rumor_des.Calendar_queue)

let mev_per_s ns_per_op = 1e3 /. ns_per_op

let run_des_bench ?trace ~scale ~push_scale () =
  print_endline "=====================================================================";
  print_endline " Part 5: DES scheduler (hold model, heap vs calendar queue)";
  print_endline "=====================================================================";
  let module Calendar_queue = Rumor_des.Calendar_queue in
  let sizes = List.filter (fun n -> n <= scale) [ 10_000; 100_000; 1_000_000 ] in
  let ops = 1_000_000 in
  let hold_entries, hold_meta =
    List.split
      (List.map
         (fun n ->
           let heap_ns, _ = Hold_heap.run ~n ~ops in
           let cal_ns, q = Hold_calendar.run ~n ~ops in
           let s = Calendar_queue.stats q in
           Printf.printf
             "hold n=%-9d heap %6.1f ns/ev (%5.1f Mev/s)   calendar %6.1f \
              ns/ev (%5.1f Mev/s)   speedup %.2fx   (%d resizes, %d buckets, \
              width %.3g)\n"
             n heap_ns (mev_per_s heap_ns) cal_ns (mev_per_s cal_ns)
             (heap_ns /. cal_ns) s.Calendar_queue.resizes
             s.Calendar_queue.buckets s.Calendar_queue.width;
           ( [
               entry (Printf.sprintf "des/hold/heap/n-%d" n) heap_ns;
               entry (Printf.sprintf "des/hold/calendar/n-%d" n) cal_ns;
             ],
             [
               ( Printf.sprintf "des/hold/calendar/n-%d/resizes" n,
                 string_of_int s.Calendar_queue.resizes );
               ( Printf.sprintf "des/hold/calendar/n-%d/buckets" n,
                 string_of_int s.Calendar_queue.buckets );
               ( Printf.sprintf "des/hold/calendar/n-%d/width" n,
                 Printf.sprintf "%.6g" s.Calendar_queue.width );
             ] ))
         sizes)
  in
  (* end-to-end demonstration: asynchronous push over the full DES engine at
     paper scale, one run per queue backend (results are bit-identical, so
     the ratio is pure scheduler) *)
  let push_entries, push_meta =
    if push_scale <= 0 then ([], [])
    else begin
      let t0 = Clock.now_s () in
      let g = engine_graph ~seed:4048 push_scale in
      let build_ns = Clock.elapsed_ns ~since_s:t0 in
      Printf.printf "er:%d — %d edges, built in %s\n" push_scale
        (Rumor_graph.Graph.num_edges g)
        (human_ns build_ns);
      let timed queue =
        let t0 = Clock.now_s () in
        let stats = ref None in
        let r =
          P.Async_engine.push ?trace ~queue ~stats (Rng.of_int 35) g
            ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6
        in
        (Clock.elapsed_ns ~since_s:t0, r, !stats)
      in
      let heap_ns, heap_r, _ = timed P.Async_engine.Heap in
      let cal_ns, cal_r, cal_stats = timed P.Async_engine.Calendar in
      assert (heap_r = cal_r);
      let rings = float_of_int (max cal_r.P.Async_push.rings 1) in
      Printf.printf
        "async-push er:%d   heap %s (%.1f ns/ring)   calendar %s (%.1f \
         ns/ring)   %d rings, informed %d\n"
        push_scale (human_ns heap_ns) (heap_ns /. rings) (human_ns cal_ns)
        (cal_ns /. rings) cal_r.P.Async_push.rings cal_r.P.Async_push.informed;
      ( [
          entry
            (Printf.sprintf "des/async-push/graph-build/er-%d" push_scale)
            build_ns;
          entry (Printf.sprintf "des/async-push/heap/er-%d" push_scale) heap_ns;
          entry
            (Printf.sprintf "des/async-push/calendar/er-%d" push_scale)
            cal_ns;
          entry
            (Printf.sprintf "des/async-push/calendar/er-%d/ns-per-ring"
               push_scale)
            (cal_ns /. rings);
        ],
        match cal_stats with
        | None -> []
        | Some s ->
            [
              ( Printf.sprintf "des/async-push/er-%d/resizes" push_scale,
                string_of_int s.Calendar_queue.resizes );
              ( Printf.sprintf "des/async-push/er-%d/buckets" push_scale,
                string_of_int s.Calendar_queue.buckets );
              ( Printf.sprintf "des/async-push/er-%d/width" push_scale,
                Printf.sprintf "%.6g" s.Calendar_queue.width );
            ] )
    end
  in
  (List.concat hold_entries @ push_entries, List.concat hold_meta @ push_meta)

(* ------------------------------------------------------------------ *)
(* Part 6: walker representations (dense per-agent vs sparse counts)   *)
(* ------------------------------------------------------------------ *)

(* One timed walker-kernel run -> total and per-agent-step entries.  The
   normalization k * rounds_run makes dense and sparse directly
   comparable even though their broadcast times differ slightly (they
   are distributionally equal, not bit-identical — see A10), so
   `rumor_report compare` ratios on ns-per-agent-step read as the
   representation speedup. *)
let walker_run ?trace ~n ~alpha name (run : unit -> P.Run_result.t) =
  let t0 = Clock.now_s () in
  let (r : P.Run_result.t) =
    Trace.with_span trace (Printf.sprintf "bench.%s.er-%d" name n) run
  in
  let dt_ns = Clock.elapsed_ns ~since_s:t0 in
  let k = int_of_float (Float.round (alpha *. float_of_int n)) in
  let steps = float_of_int (max k 1) *. float_of_int (max r.P.Run_result.rounds_run 1) in
  let ns_per_step = dt_ns /. steps in
  Printf.printf "%-36s %12s  %8.2f ns/agent-step  (%d rounds%s)\n" name
    (human_ns dt_ns) ns_per_step r.P.Run_result.rounds_run
    (match r.P.Run_result.broadcast_time with
    | Some t -> Printf.sprintf ", T = %d" t
    | None -> ", capped");
  ( ns_per_step,
    [
      entry (Printf.sprintf "walkers/%s/er-%d-a%g" name n alpha) dt_ns;
      entry
        (Printf.sprintf "walkers/%s/er-%d-a%g/ns-per-agent-step" name n alpha)
        ns_per_step;
    ] )

let run_walkers_bench ?trace ~scale ~demo_scale ~async_scale () =
  print_endline "=====================================================================";
  print_endline " Part 6: walker representations (dense per-agent vs sparse counts)";
  print_endline "=====================================================================";
  let module Engine = P.Engine in
  let max_rounds = 100_000 in
  let sizes = List.filter (fun n -> n <= scale) [ 100_000; 1_000_000 ] in
  let alphas = [ 0.25; 1.0 ] in
  let sweep =
    List.concat_map
      (fun n ->
        let t0 = Clock.now_s () in
        let g = engine_graph ~seed:3024 n in
        let build_ns = Clock.elapsed_ns ~since_s:t0 in
        Printf.printf "er:%d — %d edges, built in %s\n" n
          (Rumor_graph.Graph.num_edges g)
          (human_ns build_ns);
        entry (Printf.sprintf "walkers/graph-build/er-%d" n) build_ns
        :: List.concat_map
             (fun alpha ->
               let agents = Rumor_agents.Placement.Linear alpha in
               let pair proto seed run_mode =
                 let d_ns, d_entries =
                   walker_run ?trace ~n ~alpha
                     (Printf.sprintf "%s/dense" proto)
                     (fun () -> run_mode P.Sparse_walkers.Dense seed)
                 in
                 let s_ns, s_entries =
                   walker_run ?trace ~n ~alpha
                     (Printf.sprintf "%s/sparse" proto)
                     (fun () -> run_mode P.Sparse_walkers.Sparse seed)
                 in
                 Printf.printf "  %s alpha=%g: sparse/dense agent-step ratio %.2fx\n"
                   proto alpha (d_ns /. s_ns);
                 d_entries @ s_entries
               in
               let ve =
                 pair "visit-exchange" 51 (fun walkers seed ->
                     Engine.visit_exchange ?trace ~walkers (Rng.of_int seed) g
                       ~source:0 ~agents ~max_rounds ())
               in
               let me =
                 pair "meet-exchange" 52 (fun walkers seed ->
                     Engine.meet_exchange ?trace ~walkers (Rng.of_int seed) g
                       ~source:0 ~agents ~max_rounds ())
               in
               ve @ me)
             alphas)
      sizes
  in
  (* the paper-scale demonstration: visit-exchange end to end at n = 10^7,
     only reachable in sparse mode (dense placement alone would allocate
     and step 10^7 individual agents per round) *)
  let demo =
    if demo_scale <= 0 then []
    else begin
      let t0 = Clock.now_s () in
      let g = engine_graph ~seed:5048 demo_scale in
      let build_ns = Clock.elapsed_ns ~since_s:t0 in
      Printf.printf "er:%d — %d edges, built in %s\n" demo_scale
        (Rumor_graph.Graph.num_edges g)
        (human_ns build_ns);
      let _, entries =
        walker_run ?trace ~n:demo_scale ~alpha:1.0 "visit-exchange/sparse"
          (fun () ->
            Engine.visit_exchange ?trace ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int 53) g ~source:0
              ~agents:(Rumor_agents.Placement.Linear 1.0) ~max_rounds ())
      in
      entry (Printf.sprintf "walkers/graph-build/er-%d" demo_scale) build_ns
      :: entries
    end
  in
  (* async meet-exchange at 10^6: the aggregate rate-k clock + O(1)
     walker-slot ring sampler replaces the per-agent event queue entirely *)
  let async =
    if async_scale <= 0 then []
    else begin
      let t0 = Clock.now_s () in
      let g = engine_graph ~seed:6048 async_scale in
      let build_ns = Clock.elapsed_ns ~since_s:t0 in
      Printf.printf "er:%d — %d edges, built in %s\n" async_scale
        (Rumor_graph.Graph.num_edges g)
        (human_ns build_ns);
      let t0 = Clock.now_s () in
      let r =
        P.Async_engine.meet_exchange ?trace ~walkers:P.Sparse_walkers.Sparse
          (Rng.of_int 54) g ~source:0
          ~agents:(Rumor_agents.Placement.Linear 1.0) ~max_time:1e6
      in
      let dt_ns = Clock.elapsed_ns ~since_s:t0 in
      let rings = float_of_int (max r.P.Async_meet_exchange.rings 1) in
      Printf.printf
        "async-meet-exchange/sparse er:%d   %s (%.1f ns/ring)   %d rings, \
         informed %d/%d agents%s\n"
        async_scale (human_ns dt_ns) (dt_ns /. rings)
        r.P.Async_meet_exchange.rings r.P.Async_meet_exchange.informed
        r.P.Async_meet_exchange.agents
        (match r.P.Async_meet_exchange.broadcast_time with
        | Some t -> Printf.sprintf ", T = %.2f" t
        | None -> ", capped");
      [
        entry
          (Printf.sprintf "walkers/async-meet-exchange/graph-build/er-%d"
             async_scale)
          build_ns;
        entry
          (Printf.sprintf "walkers/async-meet-exchange/sparse/er-%d-a1"
             async_scale)
          dt_ns;
        entry
          (Printf.sprintf "walkers/async-meet-exchange/sparse/er-%d-a1/ns-per-ring"
             async_scale)
          (dt_ns /. rings);
      ]
    end
  in
  sweep @ demo @ async

(* ------------------------------------------------------------------ *)

open Cmdliner

let main full tables_only micro_only engine_only des_only walkers_only seed
    metrics bench_json jobs engine_scale engine_push_scale des_scale
    des_push_scale walkers_scale walkers_demo_scale walkers_async_scale shards
    trace_path =
  if jobs < 0 then begin
    Printf.eprintf "bench: bad --jobs %d (want >= 0; 0 = all cores)\n" jobs;
    exit 2
  end;
  if shards < 1 then begin
    Printf.eprintf "bench: bad --shards %d (want >= 1)\n" shards;
    exit 2
  end;
  let profile = if full then Experiments.Full else Experiments.Quick in
  let trace = Option.map (fun _ -> Trace.create ()) trace_path in
  let t0 = Clock.now_s () in
  if (not micro_only) && (not engine_only) && (not des_only) && not walkers_only
  then begin
    match metrics with
    | None -> run_tables ?trace ~jobs profile ~seed
    | Some path ->
        Rumor_obs.Run_record.with_jsonl_file path (fun sink ->
            run_tables ~metrics:sink ?trace ~jobs profile ~seed);
        Printf.printf "wrote per-replicate metrics to %s\n" path
  end;
  if (not tables_only) || engine_only || des_only || walkers_only then begin
    let entries =
      if engine_only || des_only || walkers_only then []
      else run_micro () @ run_macro ?trace ~jobs ()
    in
    let engine_entries =
      if (not des_only) && (not walkers_only) && (engine_only || engine_scale > 0)
      then
        run_engine_bench ?trace
          ~scale:(if engine_scale > 0 then engine_scale else 200_000)
          ~push_scale:engine_push_scale ~shards ()
      else []
    in
    let des_entries, meta =
      if (not walkers_only) && (des_only || des_scale > 0) then
        run_des_bench ?trace
          ~scale:(if des_scale > 0 then des_scale else 1_000_000)
          ~push_scale:des_push_scale ()
      else ([], [])
    in
    let walkers_entries =
      if
        walkers_only || walkers_scale > 0 || walkers_demo_scale > 0
        || walkers_async_scale > 0
      then
        run_walkers_bench ?trace
          ~scale:
            (if walkers_scale > 0 then walkers_scale
             else if walkers_only && walkers_demo_scale = 0 && walkers_async_scale = 0
             then 1_000_000
             else 0)
          ~demo_scale:walkers_demo_scale ~async_scale:walkers_async_scale ()
      else []
    in
    let entries = entries @ engine_entries @ des_entries @ walkers_entries in
    let path =
      Option.value bench_json
        ~default:
          (if engine_only then Printf.sprintf "BENCH_%d_engine.json" seed
           else if des_only then Printf.sprintf "BENCH_%d_des.json" seed
           else if walkers_only then Printf.sprintf "BENCH_%d_walkers.json" seed
           else Printf.sprintf "BENCH_%d.json" seed)
    in
    Rumor_obs.Bench_record.save path
      { Rumor_obs.Bench_record.seed; jobs; meta; entries };
    Printf.printf "\nwrote microbenchmark snapshot to %s\n" path
  end;
  (match (trace, trace_path) with
  | Some tr, Some path ->
      write_trace tr path;
      Printf.printf "wrote trace (%d events) to %s\n" (Trace.events tr) path
  | _ -> ());
  Printf.printf "\ntotal bench time: %.1fs\n" (Clock.elapsed_s ~since:t0)

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run the full EXPERIMENTS.md grids (slow).")

let tables_only_arg =
  Arg.(value & flag & info [ "tables-only" ] ~doc:"Skip the microbenchmarks.")

let micro_only_arg =
  Arg.(value & flag & info [ "micro-only" ] ~doc:"Skip the paper tables.")

let engine_only_arg =
  Arg.(
    value & flag
    & info [ "engine-only" ]
        ~doc:
          "Run only the engine hot-path bench (Part 4) and write its \
           engine/* entries to the snapshot (default \
           BENCH_<seed>_engine.json).")

let des_only_arg =
  Arg.(
    value & flag
    & info [ "des-only" ]
        ~doc:
          "Run only the DES scheduler bench (Part 5: hold model heap vs \
           calendar, plus the async-push end-to-end run when \
           --des-push-scale is set) and write its des/* entries to the \
           snapshot (default BENCH_<seed>_des.json).")

let walkers_only_arg =
  Arg.(
    value & flag
    & info [ "walkers-only" ]
        ~doc:
          "Run only the walker-representation bench (Part 6: dense \
           per-agent vs sparse count-compressed visit-/meet-exchange, plus \
           the sparse demo runs when --walkers-demo-scale / \
           --walkers-async-scale are set) and write its walkers/* entries \
           to the snapshot (default BENCH_<seed>_walkers.json).")

let engine_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "engine-scale" ] ~docv:"N"
        ~doc:
          "Vertex count for the engine hot-path bench on G(n, 1.25 ln n / \
           n); 0 (default) skips Part 4 unless --engine-only is given, \
           which then uses 200000.")

let engine_push_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "engine-push-scale" ] ~docv:"N"
        ~doc:
          "Also run a push-only engine demonstration at this vertex count \
           (e.g. 10000000); 0 (default) skips it.")

let des_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "des-scale" ] ~docv:"N"
        ~doc:
          "Largest hold-model prefill for the DES bench (sizes 10^4, 10^5, \
           10^6 up to $(docv)); 0 (default) skips Part 5 unless --des-only \
           is given, which then uses 1000000.")

let des_push_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "des-push-scale" ] ~docv:"N"
        ~doc:
          "Also run the async-push DES engine end to end on G(n, 1.25 ln n \
           / n) at this vertex count, once per queue backend (e.g. \
           1000000); 0 (default) skips it.")

let walkers_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "walkers-scale" ] ~docv:"N"
        ~doc:
          "Largest vertex count for the Part 6 dense-vs-sparse sweep on \
           G(n, 1.25 ln n / n) (sizes 10^5, 10^6 up to $(docv), alpha in \
           {0.25, 1}); 0 (default) skips Part 6 unless --walkers-only is \
           given, which then uses 1000000.")

let walkers_demo_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "walkers-demo-scale" ] ~docv:"N"
        ~doc:
          "Also run sparse visit-exchange end to end at this vertex count \
           with alpha = 1 (e.g. 10000000 — the scale dense walkers cannot \
           reach); 0 (default) skips it.")

let walkers_async_scale_arg =
  Arg.(
    value & opt int 0
    & info [ "walkers-async-scale" ] ~docv:"N"
        ~doc:
          "Also run sparse async-meet-exchange (aggregate rate-k clock + \
           walker-slot ring sampler) end to end at this vertex count with \
           alpha = 1 (e.g. 1000000); 0 (default) skips it.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Engine shard count for Part 4; results depend only on (seed, \
           shards), never on --jobs.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N"
        ~doc:"Master seed for the paper tables; also names the BENCH snapshot.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write one JSONL run record per table replicate to $(docv).")

let bench_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-json" ] ~docv:"FILE"
        ~doc:
          "Where to write the microbenchmark snapshot (default \
           BENCH_<seed>.json).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Replication parallelism for the tables and the macro entries (0 = \
           all cores); recorded in the BENCH snapshot.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record an execution trace of the tables, macro entries and Part 4 \
           engine runs (Bechamel microbenches are not traced) to $(docv): \
           Chrome trace_event JSON, or rumor-trace/1 JSONL if $(docv) ends \
           in .jsonl.")

let cmd =
  let doc = "paper-reproduction tables and engine microbenchmarks" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const main $ full_arg $ tables_only_arg $ micro_only_arg $ engine_only_arg
      $ des_only_arg $ walkers_only_arg $ seed_arg $ metrics_arg
      $ bench_json_arg $ jobs_arg $ engine_scale_arg $ engine_push_scale_arg
      $ des_scale_arg $ des_push_scale_arg $ walkers_scale_arg
      $ walkers_demo_scale_arg $ walkers_async_scale_arg $ shards_arg
      $ trace_arg)

let () = exit (Cmd.eval cmd)
