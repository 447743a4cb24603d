(** The synchronous round kernels: push, push-pull, visit-exchange,
    meet-exchange and combined (Section 3 of the paper), the one
    implementation of each.

    State is flat: informed sets live in {!Bitset}s (1 bit per
    vertex/agent), the push frontier and walker positions are dense
    [int array]s over the CSR graph, and curves grow in {!Curve_buf}s —
    per-run memory is O(n + m + rounds run) words and a run at n = 10^7 is
    a few GB dominated by the graph itself.

    {2 Determinism}

    - [?shards:1] (the default) consumes the caller's [rng] in one fixed
      order, so the whole {!Run_result} — curves, contact counts, optional
      [tau] array, and the [?obs]/[?traffic] streams — is a pure function
      of the seed and reproduces the golden fixture
      (test/golden_digests.ml).
    - [?shards:S] with [S > 1] draws each round's random choices from
      [Rng.split_n rng S], one child per contiguous shard
      ({!Rumor_par.Parallel_for} geometry), and applies all state updates in
      a sequential merge in frontier/agent order after the shards join.  The
      result is a pure function of (seed, S): the [?pool]'s parallelism
      degree schedules work but can never change a bit of the output.

    {2 Tracing}

    [?trace] records one span per round (["<kernel>.round"], [arg] = round
    number) with draw/merge (or walk/buckets/spread) child spans, per-shard
    spans on the worker tracks ({!Rumor_par.Pool.init_traced}), an
    ["informed"] counter series sampled at round boundaries, and scalar
    [rounds]/[contacts] counters plus a contacts-per-round histogram in the
    tracer's registry.  Tracing never consumes randomness, so traced and
    untraced runs on the same seed produce bit-identical {!Run_result}s;
    with [?trace] absent the kernels execute the untraced instruction
    stream — no clock reads, no allocation (pinned by an allocation test).

    All kernels raise [Invalid_argument] on an out-of-range [source], a
    negative [max_rounds], or [shards < 1].  [?pool] defaults to a
    sequential one-job pool and is only consulted when [shards > 1].

    {2 Sparse walkers}

    The walker kernels ({!visit_exchange}, {!meet_exchange}) take
    [?walkers], a {!Sparse_walkers.mode}.  [Dense] (the default) keeps the
    per-agent position array and every guarantee above.  [Sparse] switches
    to {!Sparse_walkers}' count-compressed representation — per-vertex
    (uninformed, informed) counts swept in CSR order — which removes every
    O(k) per-agent structure and unlocks VE/ME at n = 10^7.  Sparse runs
    are a pure function of the seed but {e not} bit-identical to dense
    (agent identity is erased; experiment A10 gates the distributional
    agreement), run sequentially ([?shards]/[?pool] are ignored), report
    the aggregate [on_occupancy] hook instead of per-agent
    [on_contact]/[on_walker_move] events, and reject [?traffic]
    ([Invalid_argument]).  [Auto] picks sparse when the placement yields at
    least {!Sparse_walkers.auto_threshold} agents. *)

val push :
  ?traffic:Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?failure_prob:float ->
  ?tau:int array ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Synchronous push (Demers et al.).  Round 0 informs the source; in every
    round [t >= 1] each vertex informed in a previous round sends the rumor
    to a uniformly random neighbor.  Runs until every vertex is informed or
    [max_rounds] rounds have run; one contact per push.

    [failure_prob] (default 0) drops each transmission independently with
    that probability — the random-failure model of Elsässer–Sauerwald [22],
    which the paper's Lemma 4 proof relies on.  Failed contacts still count
    towards [contacts] and [traffic] (the call happens; the payload is
    lost).  [?tau], when given, must have length [n] and is filled with
    each vertex's informing round ([max_int] if never informed) — the
    quantity the Section 5 coupling argument reasons about.
    @raise Invalid_argument also if [failure_prob] is outside [0, 1) or
    [tau] has the wrong length. *)

val push_pull :
  ?traffic:Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Synchronous push–pull (Karp et al.).  In every round {e every} vertex
    samples a uniformly random neighbor, and if exactly one endpoint of the
    contact was informed before the round, the other becomes informed.
    Each vertex's call counts as one contact (n per round).
    @raise Invalid_argument also on an isolated vertex. *)

val visit_exchange :
  ?traffic:Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  ?tau:int array ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Synchronous visit-exchange (Section 3 of the paper) over flat walker
    arrays.  Agents perform random walks ([?lazy_walk], default [false],
    makes each step stay put with probability 1/2).  Round 0 informs the
    source and every agent on it; in each later round all agents step,
    then an agent informed in a previous round informs the vertex it
    stands on, and an uninformed agent on an informed vertex becomes
    informed.  The curve counts informed vertices, [contacts] counts one
    per agent–vertex transfer in either direction, and the run continues
    past the last vertex until all agents are informed
    ([all_agents_informed]).  [?tau], when given, must have length [n] and
    is filled with each vertex's informing round ([max_int] if never
    informed), as in {!push}.
    @raise Invalid_argument also if [tau] has the wrong length, or if
    [traffic] or [tau] is given with sparse walkers. *)

val meet_exchange :
  ?traffic:Traffic.t ->
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Synchronous meet-exchange.  Only agents store the rumor.  Round 0
    informs every agent standing on the source; if there is none, the
    {e first} agents to visit the source later become informed (all of
    them, if several arrive together), after which the source stops
    informing.  In each round, a vertex holding an agent informed in a
    previous round informs every agent standing on it.  The curve counts
    informed {e agents}; [contacts] counts one per source→agent and
    agent→agent transfer; broadcast completes when all agents are informed.

    On bipartite graphs the non-lazy process can fail to complete (walks in
    opposite parity classes never meet), so an omitted [?lazy_walk]
    resolves to the graph's bipartiteness (the [Lazy_auto] convention of
    [Rumor_sim.Protocol]).  Pass [~lazy_walk:false] to exhibit the parity
    trap. *)

val combined :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?shards:int ->
  ?pool:Rumor_par.Pool.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** Push–pull and visit-exchange side by side on a shared informed set:
    one round of both mechanisms per round, a vertex informed as soon as
    either informs it, agents learning from vertices as in
    {!visit_exchange}.  The paper's introduction observes that each
    mechanism covers the other's bad cases (push–pull is slow on the double
    star, visit-exchange on the heavy binary tree); experiment E10 checks
    that the combination is logarithmic on both.  The curve counts
    vertices; [?lazy_walk] defaults to [false].  Dense walkers only — the
    sparse representation has no combined kernel. *)
