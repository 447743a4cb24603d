(** The benchmark's one entry into the protocol engines.

    Every broadcast the benchmark makes goes through {!run}, which is the
    only code calling [Protocol.run_engine], [Replicate.broadcast_times
    ~engine] and [Async_engine].  Runs use [shards 1] unless told
    otherwise, walkers [Auto] and the calendar queue. *)

type job =
  | Sync of Rumor_sim.Protocol.spec  (** one broadcast via [run_engine] *)
  | Replicated of { spec : Rumor_sim.Protocol.spec; reps : int; jobs : int }
      (** [reps] broadcasts via [Replicate.broadcast_times ~jobs] *)
  | Async_push_pull  (** continuous-time push-pull via [Async_engine.push] *)
  | Async_meet_exchange of Rumor_agents.Placement.spec
      (** continuous-time meet-exchange via [Async_engine.meet_exchange] *)

type outcome = {
  results : Rumor_protocols.Run_result.t array;  (** one per rep *)
  rings : int array;  (** clock rings per rep; 0 for the sync kernels *)
  wall_s : float;  (** wall time of the library call *)
  minor_words : float;  (** minor words allocated by the broadcasts *)
  calendar : Rumor_des.Calendar_queue.stats option;
      (** calendar geometry after an [Async_push_pull] run *)
}

val run :
  ?trace:Rumor_obs.Trace.t ->
  ?shards:int ->
  seed:int ->
  graph:Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  job ->
  outcome
(** Run [job] on [graph] from [source] with generators seeded from
    [seed].  [max_rounds] is the round cap, or the time horizon for the
    continuous-time jobs.  [trace] wraps the call in a ["bench.*"] span and
    threads into the library.  [shards > 1] (sync jobs only) runs the
    sharded kernel on a pool of that many domains. *)
