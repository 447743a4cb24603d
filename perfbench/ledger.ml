(* Per-layer metrics of the traced run.  Span figures come from the trace
   the run wrote and read back; the benchmark's own "bench.*" spans enclose
   each call into a layer, and the library's spans nest under them.  A
   layer the workload does not load reads 0. *)

module Graph = Rumor_graph.Graph
module Calendar_queue = Rumor_des.Calendar_queue

type input = {
  workload : Workload.t;
  spans : Spans.span array;  (** the traced set-up and pass *)
  shard_spans : Spans.span array;  (** the push run at 2 shards *)
  queue_samples : float array;  (** the async push loop's "queue" counter *)
  trace_events : int;
  calendar : Calendar_queue.stats option;
  probes : Probe.t;
  graphs : Graph.t list;
  untraced_wall_s : float;
  traced_wall_s : float;
  minor_collections : int;
  major_collections : int;
}

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let is_round name = String.ends_with ~suffix:".round" name

let or_zero = Option.value ~default:0.0

(* rumor_par / rumor_sim: each replicated call against the rep spans it
   ran on its [jobs] tracks *)
let replication (w : Workload.t) spans =
  let calls = List.filter (fun s -> String.equal s.Spans.name "bench.broadcast_times") (Array.to_list spans) in
  let tracks = List.init w.jobs Fun.id in
  List.fold_left
    (fun (busy, capacity, max_busy, mean_busy, overhead) (b : Spans.span) ->
      let per = List.map snd (Spans.busy_by_track ~name:"rep" ~outer:b ~tracks spans) in
      let total = List.fold_left ( +. ) 0.0 per in
      let top = List.fold_left Float.max 0.0 per in
      ( busy +. total,
        capacity +. (float_of_int w.jobs *. b.dur_s),
        max_busy +. top,
        mean_busy +. (total /. float_of_int (max 1 (List.length per))),
        overhead +. Float.max 0.0 (b.dur_s -. top) ))
    (0.0, 0.0, 0.0, 0.0, 0.0) calls

let ratio a b = if b > 0.0 then a /. b else 0.0

let metrics i =
  let s = i.spans in
  let build = Spans.total "bench.graph_build" s in
  let edges = List.fold_left (fun acc g -> acc + Graph.num_edges g) 0 i.graphs in
  let csr = List.fold_left (fun acc g -> acc + Workload.csr_bytes g) 0 i.graphs in
  let rounds = Spans.durations is_round s in
  let round_words =
    Array.fold_left (fun acc (sp : Spans.span) -> if is_round sp.name then acc +. sp.alloc_w else acc) 0.0 s
  in
  let tail = Option.map (fun p -> (p, Arith.percentile rounds p)) (Arith.tail_percentile ~n:(Array.length rounds)) in
  let busy, capacity, max_busy, mean_busy, overhead = replication i.workload s in
  let p = i.probes in
  [
    (* rumor_graph *)
    m "graph.build_s" "s" build;
    m "graph.edge_gen_s" "s" (Spans.total "graph.edge_gen" s);
    m "graph.sort_s" "s" (Spans.total "graph.sort" s);
    m "graph.csr_fill_s" "s" (Spans.total "graph.csr_fill" s);
    (* the Builder phases nest directly under the benchmark's build span *)
    m "graph.unattributed_s" "s" (Spans.self_total "bench.graph_build" s);
    m "graph.words_per_edge" "words" (ratio (Spans.alloc_total "bench.graph_build" s) (float_of_int edges));
    m "graph.csr_mb" "MiB" (float_of_int csr /. 1048576.0);
    (* rumor_agents *)
    m "placement.ns_per_agent" "ns" p.placement_ns_per_agent;
    m "placement.words_per_agent" "words" p.placement_words_per_agent;
    m "placement.counts_ns_per_agent" "ns" p.placement_counts_ns_per_agent;
    (* rumor_prob *)
    m "rng.ns_per_int" "ns" p.rng_ns_per_int;
    m "rng.words_per_int" "words" p.rng_words_per_int;
    m "alias.ns_per_sample" "ns" p.alias_ns_per_sample;
    m "exp_stream.ns_per_gap" "ns" p.exp_stream_ns_per_gap;
    m "fenwick.ns_per_find" "ns" p.fenwick_ns_per_find;
    m "fenwick.ns_per_add" "ns" p.fenwick_ns_per_add;
    (* rumor_protocols *)
    m "push.round_s" "s" (Spans.total "push.round" s);
    m "push.draw_s" "s" (Spans.total "push.draw" i.shard_spans);
    m "push.merge_s" "s" (Spans.total "push.merge" i.shard_spans);
    m "push_pull.round_s" "s" (Spans.total "push_pull.round" s);
    m "walk.walk_s" "s" (Spans.total "walk" s);
    m "walk.spread_s" "s" (Spans.total "spread" s);
    m "kernel.rounds" "count" (float_of_int (Array.length rounds));
    m "kernel.round_s_p50" "s" (if Array.length rounds = 0 then 0.0 else Arith.median rounds);
    m "kernel.round_s_tail" "s" (or_zero (Option.map snd tail));
    m "kernel.round_tail_pct" "%" (or_zero (Option.map fst tail));
    m "kernel.words_per_round" "words" (ratio round_words (float_of_int (Array.length rounds)));
    m "async.push_loop_s" "s" (Spans.total "async_engine.push.loop" s);
    m "async.meet_loop_s" "s" (Spans.total "async_engine.meet_exchange.loop" s);
    m "async.queue_len_p50" "count"
      (if Array.length i.queue_samples = 0 then 0.0 else Arith.median i.queue_samples);
    (* rumor_des *)
    m "calendar.resizes" "count"
      (or_zero (Option.map (fun (c : Calendar_queue.stats) -> float_of_int c.resizes) i.calendar));
    m "calendar.buckets" "count"
      (or_zero (Option.map (fun (c : Calendar_queue.stats) -> float_of_int c.buckets) i.calendar));
    m "calendar.ns_per_hold" "ns" p.calendar_ns_per_hold;
    m "calendar.words_per_hold" "words" p.calendar_words_per_hold;
    (* rumor_par *)
    m "par.busy_share" "ratio" (ratio busy capacity);
    m "par.imbalance" "ratio" (ratio max_busy mean_busy);
    (* rumor_sim *)
    m "replicate.overhead_s" "s" overhead;
    (* rumor_obs *)
    m "obs.trace_overhead" "ratio" (ratio i.traced_wall_s i.untraced_wall_s);
    m "obs.trace_events" "count" (float_of_int i.trace_events);
    (* GC over the untraced set-up and pass *)
    m "gc.minor_collections" "count" (float_of_int i.minor_collections);
    m "gc.major_collections" "count" (float_of_int i.major_collections);
  ]
