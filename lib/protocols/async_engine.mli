(** The continuous-time kernels: asynchronous push and push-pull (see
    {!Async_push} for the model) and asynchronous meet-exchange (see
    {!Async_meet_exchange}), the one implementation of each, as
    discrete-event simulations over a calendar-queue scheduler, flat state
    and batched Poisson clocks.

    - {b Scheduler}: events live in {!Rumor_des.Calendar_queue}
      (amortized O(1) per ring) or {!Rumor_des.Event_queue} (O(log n)),
      selected by [?queue].  Both drain in ascending (time, insertion
      order), so the backend is unobservable in the results.
    - {b Clocks}: Exp(1) gaps are pre-drawn [batch] at a time
      ({!Rumor_des.Exp_stream}) from a clock generator split off [rng]
      up front — the clock-stream contract documented in {!Async_push}.
      The k-th scheduled gap is the clock stream's k-th sample whatever
      the batch, so results are batch-independent.
    - {b State}: informed sets are {!Bitset}s, the event loop pops
      through [pop_into] (no per-ring boxing), and meet-exchange keeps
      its per-vertex agent sets as intrusive int-array lists (insert at
      the head, order-preserving removal), which fixes the order of the
      contact stream.

    A run is a pure function of the seed — broadcast time, ring count,
    integer-mark curve, and the full [?obs] contact/walker-move stream —
    for every [?queue] and [?batch], and reproduces the golden fixture
    (test/golden_digests.ml) on both queues.

    [?trace] records one ["async_engine.<kernel>.loop"] span,
    ["queue"]/["informed"] counter samples every 1024 rings, and a final
    ["rings"] registry total; it never consumes randomness. *)

(** The event-queue backend.  Both give identical results.  The heap
    stays until the benchmark harness (perfbench/call.ml), which passes
    [~queue:Calendar], no longer names the choice; the calendar queue beats
    it at every measured size. *)
type queue =
  | Heap  (** {!Rumor_des.Event_queue}: no resize machinery, better
              constants on small/short-lived runs *)
  | Calendar  (** {!Rumor_des.Calendar_queue}: amortized O(1), the
                  default and the million-node choice *)

val default_batch : int
(** Clock pre-draw batch, 4096. *)

val push :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?queue:queue ->
  ?batch:int ->
  ?stats:Rumor_des.Calendar_queue.stats option ref ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  variant:Async_push.variant ->
  source:int ->
  max_time:float ->
  Async_push.result
(** Simulate asynchronous push or push-pull ([variant]) until every vertex
    is informed or continuous time exceeds [max_time].  Push keeps clocks
    on informed vertices only; push-pull on every vertex.  The model has
    no rounds, so [obs] only receives [on_contact] (one per ring).
    [?stats] (when provided) receives the calendar queue's final
    geometry, or [None] under [?queue:Heap]; the benchmark harness reads
    it.
    @raise Invalid_argument on a bad source, non-positive [max_time] or
    [batch < 1]. *)

val meet_exchange :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?lazy_walk:bool ->
  ?walkers:Sparse_walkers.mode ->
  ?queue:queue ->
  ?batch:int ->
  ?stats:Rumor_des.Calendar_queue.stats option ref ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  agents:Rumor_agents.Placement.spec ->
  max_time:float ->
  Async_meet_exchange.result
(** Simulate asynchronous meet-exchange until every agent is informed or
    continuous time exceeds [max_time].  Placement and walk draws come from
    [rng] itself, clock gaps from the split-off clock stream.  An omitted
    [lazy_walk] resolves to the graph's bipartiteness, like
    {!Engine.meet_exchange}: continuous time terminates either way, the
    default only keeps the walk law aligned with the synchronous
    protocol's; pass [~lazy_walk:false] to study the pure [33]/[34] model
    on bipartite graphs.  Dense runs fire [on_walker_move] (one per ring)
    and [on_contact] (one per newly informed agent).

    [?walkers] ({!Sparse_walkers.Dense} by default) selects the walker
    representation.  Sparse mode replaces the per-agent event queue with
    one aggregate rate-k Poisson clock (no queue at all).  Walkers become
    a walker-slot array of k vertex ids, so a uniform slot samples the
    ringing walker's vertex in proportion to its occupancy in O(1), and a
    move is one store.  Every arrival runs an exchange, so a vertex's
    walkers are all informed or all uninformed: one informed bit per
    vertex (cleared when it empties) and a per-vertex count replace
    per-agent state, k + n words plus n bits in all.  Placement draws
    exactly what the dense path's does; each ring then draws the slot,
    the lazy coin (if lazy) and the neighbor.  Sparse runs are
    seed-deterministic but follow a different sample path than dense (a
    tier-1 two-sample test gates the mean broadcast time against dense),
    fire no per-agent [?obs] hooks, and always report [None] into
    [?stats]; [?queue]/[?batch] only affect the clock pre-draw.  [Auto]
    picks sparse at {!Sparse_walkers.auto_threshold} agents.
    @raise Invalid_argument on a bad source, non-positive [max_time] or
    [batch < 1]. *)
