(* perfbench: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]

   --trace 0 times the workload untraced and prints the end-to-end metrics;
   --trace 1 runs one pass untraced and the same pass traced, checks that
   both took the same sample path, and prints the per-layer metrics.
   Human-readable lines start with "#"; the last line is one JSON object
   {correct, attempted, failed, metrics}.  Exit 0 with a result, 2 on bad
   arguments. *)

module Json = Rumor_obs.Json
module Trace = Rumor_obs.Trace
module Clock = Rumor_obs.Clock
module Graph = Rumor_graph.Graph

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

type metric = Ledger.metric = { name : string; value : float; unit : string }

let print_result ~tally ~problems metrics =
  List.iter (fun p -> say "FAIL %s" p) problems;
  List.iter (fun x -> say "%-30s %20.6f %s" x.name x.value x.unit) metrics;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"correct\": ";
  Buffer.add_string b (if Arith.all_ok tally then "true" else "false");
  Printf.bprintf b ", \"attempted\": %d, \"failed\": %d, \"metrics\": {" tally.Arith.attempted
    tally.Arith.failed;
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_string b ", ";
      Json.buf_add_string_literal b x.name;
      Buffer.add_string b ": {\"value\": ";
      Json.buf_add_float b x.value;
      Buffer.add_string b ", \"unit\": ";
      Json.buf_add_string_literal b x.unit;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let print_provenance (w : Workload.t) graphs =
  let cache = Provenance.read_cache () in
  let csr = List.map Workload.csr_bytes graphs in
  say "provenance nproc=%d ocaml=%s l2_bytes=%s llc_bytes=%s working_set_bytes=%d"
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Provenance.describe_bytes cache.l2_bytes)
    (Provenance.describe_bytes cache.llc_bytes)
    (List.fold_left ( + ) 0 csr);
  List.iter
    (fun (label, g) -> say "graph %s n=%d m=%d csr_bytes=%d" label (Graph.n g) (Graph.num_edges g) (Workload.csr_bytes g))
    (List.combine (List.map fst w.families) graphs);
  List.iter (fun f -> say "FLAG %s" f) (Provenance.flags ~workload:w.name ~cache ~csr_bytes:csr)

let print_counts pass (f : Workload.pass_figures) =
  let c = f.counts in
  say "pass %d: broadcasts %.3f s, contacts %d, agent_steps %d, rings %d, rounds %d, ns/contact %.1f, ns/agent_step %.1f"
    pass f.broadcast_s c.contacts c.agent_steps c.rings c.rounds f.ns_per_contact f.ns_per_agent_step

let graphs_of instances = List.map (fun (i : Workload.instance) -> i.graph) instances

(* ------------------------------------------------------------ untraced *)

let untraced (w : Workload.t) ~seed ~seconds =
  let t0 = Clock.now_s () in
  (* Every pass builds its graphs afresh, from the same seeds, once the last
     pass's graphs are dead: set-up is timed once per pass, and each pass
     runs on newly allocated memory.  Another pass starts only if it is
     expected to end within [seconds]. *)
  let rec loop pass acc =
    Gc.full_major ();
    let instances, setup_s = Workload.timed_build ~seed w in
    if pass = 0 then print_provenance w (graphs_of instances);
    let acc = (setup_s, Workload.run_pass ~seed ~pass w instances) :: acc in
    let elapsed = Clock.elapsed_s ~since:t0 in
    if elapsed *. float_of_int (pass + 2) /. float_of_int (pass + 1) <= seconds then
      loop (pass + 1) acc
    else List.rev acc
  in
  let runs = loop 0 [] in
  let passes = List.map snd runs in
  let setups = List.map fst runs in
  let figs = List.map Workload.figures passes in
  List.iteri print_counts figs;
  let tally, problems = Workload.tally w passes in
  let timing name unit xs =
    let t = Arith.timing (Array.of_list xs) in
    say "%s: median of %d pass(es)%s" name t.samples
      (match t.tail with
      | Some (p, v) -> Printf.sprintf ", p%g %g" p v
      | None -> ", no tail percentile below 40 samples");
    { name; value = t.median; unit }
  in
  let per_pass f = List.map f figs in
  (* bound in order, so the notes print in the order of the result *)
  let setup = timing "setup_s" "s" setups in
  let wall = timing "wall_s" "s" (List.map2 (fun s (f : Workload.pass_figures) -> s +. f.broadcast_s) setups figs) in
  let ns_contact = timing "ns_per_contact" "ns" (per_pass (fun f -> f.ns_per_contact)) in
  let ns_step = timing "ns_per_agent_step" "ns" (per_pass (fun f -> f.ns_per_agent_step)) in
  let ns_ring = timing "ns_per_ring" "ns" (per_pass (fun f -> f.ns_per_ring)) in
  let w_contact = timing "words_per_contact" "words" (per_pass (fun f -> f.words_per_contact)) in
  let w_step = timing "words_per_agent_step" "words" (per_pass (fun f -> f.words_per_agent_step)) in
  let w_ring = timing "words_per_ring" "words" (per_pass (fun f -> f.words_per_ring)) in
  let top_heap_mb = float_of_int (Gc.quick_stat ()).top_heap_words *. 8.0 /. 1048576.0 in
  print_result ~tally ~problems
    [
      setup;
      wall;
      ns_contact;
      ns_step;
      ns_ring;
      w_contact;
      w_step;
      w_ring;
      { name = "top_heap_mb"; value = top_heap_mb; unit = "MiB" };
    ]

(* ------------------------------------------------------------ traced *)

let read_spans path =
  match Trace.read_file path with
  | Ok f -> f.Trace.file_events
  | Error e -> failwith (Printf.sprintf "cannot read back %s: %s" path e)

let shard_rounds = 25

let traced (w : Workload.t) ~seed ~out_dir =
  (* untraced set-up and pass 0; its graphs die with the closure *)
  let plain, untraced_wall_s, gc0, gc1 =
    (fun () ->
      Gc.full_major ();
      let gc0 = Gc.quick_stat () in
      let instances, setup_u = Workload.timed_build ~seed w in
      let plain = Workload.run_pass ~seed ~pass:0 w instances in
      let gc1 = Gc.quick_stat () in
      print_provenance w (graphs_of instances);
      (plain, setup_u +. (Workload.figures plain).broadcast_s, gc0, gc1))
      ()
  in
  (* the same set-up and pass traced, from a collected heap *)
  Gc.full_major ();
  let tr = Trace.create ~hint:(1 lsl 16) () in
  let t_instances, setup_t = Workload.timed_build ~trace:tr ~seed w in
  let traced_calls = Workload.run_pass ~trace:tr ~seed ~pass:0 w t_instances in
  let traced_fig = Workload.figures traced_calls in
  print_counts 0 traced_fig;
  let tally, problems = Workload.tally ~twin:[ traced_calls ] w [ plain ] in
  (* the push kernel splits a round into draw and merge spans only when
     sharded: rerun the first [shard_rounds] rounds of pass 0's push
     broadcasts at 2 shards, traced apart *)
  let shard_tr = Trace.create () in
  List.iteri
    (fun fi (inst : Workload.instance) ->
      List.iteri
        (fun pi p ->
          if p = Workload.Push then
            ignore
              (Call.run ~trace:shard_tr ~shards:2
                 ~seed:(Workload.call_seed ~seed ~pass:0 ~family:fi ~protocol:pi)
                 ~graph:inst.graph ~source:inst.source ~max_rounds:(min shard_rounds w.max_rounds)
                 (Call.Sync Rumor_sim.Protocol.push)
                : Call.outcome))
        w.protocols)
    t_instances;
  let probes = Probe.run ~seed (graphs_of t_instances) in
  let path suffix = Filename.concat out_dir (Printf.sprintf "trace-%s%s.jsonl" w.name suffix) in
  Trace.write_jsonl tr (path "");
  Trace.write_jsonl shard_tr (path "-shards2");
  say "trace written to %s (rumor_report trace reads it)" (path "");
  let events = read_spans (path "") in
  let spans = Spans.of_events events in
  (* the push loop's pending-event count; the sparse meet-exchange loop has
     no queue and samples 0 *)
  let push_loops =
    List.filter (fun (sp : Spans.span) -> String.equal sp.name "async_engine.push.loop") (Array.to_list spans)
  in
  let queue_samples =
    Array.of_list
      (List.filter_map
         (fun (e : Trace.event) ->
           let t = e.ts_us *. 1e-6 in
           match e.ph with
           | `Counter
             when String.equal e.name "queue"
                  && List.exists (fun (sp : Spans.span) -> t >= sp.start_s && t <= sp.start_s +. sp.dur_s) push_loops ->
               Some (float_of_int e.value)
           | `Counter | `Span | `Instant -> None)
         events)
  in
  let calendar =
    List.fold_left
      (fun acc (c : Workload.call) -> match c.outcome.calendar with Some _ as s -> s | None -> acc)
      None traced_calls
  in
  print_result ~tally ~problems
    (Ledger.metrics
       {
         workload = w;
         spans;
         shard_spans = Spans.of_events (read_spans (path "-shards2"));
         queue_samples;
         trace_events = Trace.events tr;
         calendar;
         probes;
         graphs = graphs_of t_instances;
         untraced_wall_s;
         traced_wall_s = setup_t +. traced_fig.broadcast_s;
         minor_collections = gc1.minor_collections - gc0.minor_collections;
         major_collections = gc1.major_collections - gc0.major_collections;
       })

(* ------------------------------------------------------------ CLI *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let out_dir = ref "." in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME er1m | figure1 | async-rr");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time per run (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its trace");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg -> fail msg);
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then fail "--seed must be given and >= 0";
  if !seconds < 1 then fail "--seconds must be given and >= 1";
  match !trace with
  | 0 -> untraced w ~seed:!seed ~seconds:(float_of_int !seconds)
  | 1 -> traced w ~seed:!seed ~out_dir:!out_dir
  | _ -> fail "--trace must be 0 or 1"
