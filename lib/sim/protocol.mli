(** First-class protocol descriptors, so sweeps and tables can treat the
    four protocols (and the hybrid) uniformly. *)

type lazy_mode =
  | Lazy_off   (** simple random walks *)
  | Lazy_on    (** stay put with probability 1/2 each round *)
  | Lazy_auto  (** lazy iff the graph is bipartite — the paper's convention
                   for meet-exchange *)

type spec =
  | Push
  | Push_pull
  | Visit_exchange of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Meet_exchange of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Combined of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Pull  (** pull alone, the anti-entropy mirror of push [15] *)
  | Quasi_push  (** quasirandom rumor spreading, [19] *)
  | Cobra of { branching : int }  (** coalescing-branching walk, [7] *)
  | Frog of { frogs_per_vertex : int }  (** the frog model, [3, 40] *)
  | Flood  (** deterministic flooding: the eccentricity baseline *)
  | Async_push  (** continuous-time push: unit-rate Poisson clocks, [41] *)
  | Async_push_pull  (** continuous-time push-pull *)
  | Async_meet_exchange of {
      agents : Rumor_agents.Placement.spec;
      laziness : lazy_mode;
    }  (** continuous-time meet-exchange, [33, 34] *)

val push : spec
val push_pull : spec
val pull : spec
val quasi_push : spec
val cobra : ?branching:int -> unit -> spec
val frog : ?frogs_per_vertex:int -> unit -> spec
val flood : spec

val visit_exchange : ?alpha:float -> unit -> spec
(** Visit-exchange with [Linear alpha] stationary agents (default 1.0) and
    non-lazy walks. *)

val meet_exchange : ?alpha:float -> unit -> spec
(** Meet-exchange with [Linear alpha] agents and [Lazy_auto] walks. *)

val combined : ?alpha:float -> unit -> spec

val async_push : spec
val async_push_pull : spec

val async_meet_exchange : ?alpha:float -> unit -> spec
(** Continuous-time meet-exchange with [Linear alpha] agents (default 1.0)
    and [Lazy_auto] walks, mirroring {!meet_exchange}. *)

val name : spec -> string
(** Short stable name: "push", "push-pull", "visit-exchange",
    "pull", "meet-exchange", "combined", "quasi-push", "cobra", "frog",
    "flood", "async-push", "async-push-pull", "async-meet-exchange". *)

type walkers = Rumor_protocols.Sparse_walkers.mode = Dense | Sparse | Auto
(** Walker representation for the agent-based kernels — see
    {!Rumor_protocols.Engine}.  [Dense] keeps per-agent positions and
    reproduces the golden fixture; [Sparse] switches to count-compressed
    per-vertex occupancy (seed-deterministic, distributionally equivalent —
    gated by experiment A10 — but a different sample path); [Auto] picks
    sparse above {!Rumor_protocols.Sparse_walkers.auto_threshold} agents. *)

val walkers_name : walkers -> string
val walkers_of_string : string -> walkers option

val run :
  ?traffic:Rumor_protocols.Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?walkers:walkers ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  spec ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  Rumor_protocols.Run_result.t
(** Dispatch to the protocol's kernel.  Push, push-pull, visit-exchange,
    meet-exchange and combined run on {!Rumor_protocols.Engine} (flat
    frontier arrays + bitset informed-state; memory O(n + m + rounds
    run)); the continuous-time specs on {!Rumor_protocols.Async_engine};
    pull, quasi-push, cobra, frog and flood on their own modules.

    With the default [?shards:1] every kernel reproduces the golden
    fixture (test/golden_digests.ml).  [shards > 1] re-keys randomness per
    round ({!Rumor_prob.Rng.split_n}, one child per shard) in the engine
    kernels and is a pure function of (seed, shards), independent of
    [?pool]'s parallelism; the other kernels are sequential and ignore
    [shards]/[pool].  [walkers] (default [Dense]) selects the walker
    representation for visit-exchange, meet-exchange and
    async-meet-exchange; the other specs (including combined, which is
    dense-only) ignore it.

    [traffic] is honoured by push, push-pull, pull, visit-exchange and
    meet-exchange; the remaining processes ignore it.  [obs] is honoured
    by every protocol: each fires {!Rumor_obs.Instrument} hooks once per
    round plus one [on_contact] per communication (and [on_walker_move]
    per agent step for the agent-based processes).  [trace] wraps the
    whole run in an ["engine.<name>"] span and threads through to the
    kernel's per-round instrumentation; it never changes the result.

    The continuous-time specs ([Async_push], [Async_push_pull],
    [Async_meet_exchange]) read [max_rounds] as the time horizon
    [max_time = float max_rounds] and project the DES result through
    [to_run_result]: [broadcast_time] is the rounded-up continuous time,
    the curve samples the informed count at integer times.  They have no
    round structure, so [obs] fires no [on_round_start] hooks. *)

val shards_used : ?walkers:walkers -> ?shards:int -> spec -> Rumor_graph.Graph.t -> int
(** The shard count {!run} actually uses for [spec] on this graph under the
    same [?walkers]/[?shards]: [shards] (default 1) for push, push-pull,
    combined and dense-walker visit-/meet-exchange, 1 for every kernel
    that ignores it (sparse walkers and every other spec). *)

val run_engine :
  ?traffic:Rumor_protocols.Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?walkers:walkers ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  spec ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  Rumor_protocols.Run_result.t
(** Alias of {!run}.  It remains only because the benchmark harness
    (perfbench/call.ml) calls it by this name; it goes with the next
    change to the benchmark. *)
