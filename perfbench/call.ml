(* The single call site through which the benchmark enters the protocol
   engines: [Protocol.run_engine] for one sync broadcast,
   [Replicate.broadcast_times ~engine:true] for a replicated one, and
   [Async_engine] for the continuous-time kernels.  When the engine
   switches go away, this is the one place to retarget. *)

module Rng = Rumor_prob.Rng
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Run_result = P.Run_result
module Protocol = Rumor_sim.Protocol
module Replicate = Rumor_sim.Replicate
module Trace = Rumor_obs.Trace
module Run_record = Rumor_obs.Run_record
module Clock = Rumor_obs.Clock
module Pool = Rumor_par.Pool
module Calendar_queue = Rumor_des.Calendar_queue

type job =
  | Sync of Protocol.spec
  | Replicated of { spec : Protocol.spec; reps : int; jobs : int }
  | Async_push_pull
  | Async_meet_exchange of Placement.spec

type outcome = {
  results : Run_result.t array;
  rings : int array;
  wall_s : float;
  minor_words : float;
  calendar : Calendar_queue.stats option;
}

let single ?calendar ~result ~rings ~wall_s ~minor_words () =
  { results = [| result |]; rings = [| rings |]; wall_s; minor_words; calendar }

let timed trace name f =
  Trace.with_span trace name (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_s () in
      let r = f () in
      let wall_s = Clock.elapsed_s ~since:t0 in
      (r, wall_s, Gc.minor_words () -. w0))

let run ?trace ?(shards = 1) ~seed ~graph ~source ~max_rounds job =
  let max_time = float_of_int max_rounds in
  match job with
  | Sync spec ->
      let pool = if shards > 1 then Some (Pool.create ~jobs:shards) else None in
      let result, wall_s, minor_words =
        timed trace "bench.run_engine" (fun () ->
            Protocol.run_engine ?trace ?pool ~walkers:Protocol.Auto ~shards spec
              (Rng.of_int seed) graph ~source ~max_rounds)
      in
      single ~result ~rings:0 ~wall_s ~minor_words ()
  | Replicated { spec; reps; jobs } ->
      (* per-rep words come from the records: each is measured on the
         domain that ran the rep, which [Gc.minor_words] here would miss *)
      let records = ref [] in
      let (_ : Replicate.measurement), wall_s, _ =
        timed trace "bench.broadcast_times" (fun () ->
            Replicate.broadcast_times ~on_capped:`Keep
              ~sink:(fun r -> records := r :: !records)
              ?trace ~jobs ~engine:true ~walkers:Protocol.Auto ~shards ~seed ~reps
              ~graph:(fun _ -> (graph, source))
              ~spec ~max_rounds ())
      in
      let records = Array.of_list (List.rev !records) in
      let results =
        Array.map
          (fun (r : Run_record.t) ->
            Run_result.make ~broadcast_time:r.broadcast_time ~rounds_run:r.rounds_run
              ~informed_curve:r.informed_curve ~contacts:r.contacts ())
          records
      in
      let minor_words =
        Array.fold_left (fun acc (r : Run_record.t) -> acc +. r.gc.minor_words) 0.0 records
      in
      {
        results;
        rings = Array.make (Array.length results) 0;
        wall_s;
        minor_words;
        calendar = None;
      }
  | Async_push_pull ->
      let stats = ref None in
      let r, wall_s, minor_words =
        timed trace "bench.async_engine" (fun () ->
            P.Async_engine.push ?trace ~queue:P.Async_engine.Calendar ~stats
              (Rng.of_int seed) graph ~variant:P.Async_push.Async_push_pull ~source
              ~max_time)
      in
      single ?calendar:!stats ~result:(P.Async_push.to_run_result r)
        ~rings:r.P.Async_push.rings ~wall_s ~minor_words ()
  | Async_meet_exchange agents ->
      let r, wall_s, minor_words =
        timed trace "bench.async_engine" (fun () ->
            P.Async_engine.meet_exchange ?trace ~walkers:P.Sparse_walkers.Auto
              ~queue:P.Async_engine.Calendar (Rng.of_int seed) graph ~source ~agents
              ~max_time)
      in
      single ~result:(P.Async_meet_exchange.to_run_result r)
        ~rings:r.P.Async_meet_exchange.rings ~wall_s ~minor_words ()
