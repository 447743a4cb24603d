(** The experiment suite: one experiment per figure panel / theorem of the
    paper (see DESIGN.md section 3 for the full index).

    - E1–E5 reproduce Figure 1(a)–(e) (Lemmas 2, 3, 4, 8, 9): the five
      separator families on which the protocols' broadcast times diverge
      polynomially or logarithmically.
    - E6–E8 reproduce the regular-graph results (Theorems 1/10/19, 23,
      24/25).
    - E9 exercises the Section 5 proof machinery (coupling, C-counters,
      Lemma 13/14 invariants) on random instances.
    - E10 checks the introduction's claim that combining push-pull with
      visit-exchange is fast on both families that defeat each component.
    - A1–A4 are ablations of design choices the paper calls out (agent
      density, lazy walks, initial placement, bandwidth fairness).

    All experiments are deterministic given [seed] and scale with the
    [profile]. *)

type profile =
  | Quick  (** small grids, few replications: seconds per experiment *)
  | Full   (** the grids reported in EXPERIMENTS.md: minutes overall *)

type t = {
  id : string;         (** "E1" ... "E10", "A1" ... "A4" *)
  title : string;
  paper_ref : string;  (** e.g. "Fig 1(b), Lemma 3" *)
  run : profile -> seed:int -> Table.t list;
}

val all : t list
(** Every experiment, in id order. *)

val find : string -> t option
(** Lookup by id, case-insensitive. *)

val run_all :
  ?ids:string list ->
  ?metrics:Rumor_obs.Run_record.sink ->
  ?trace:Rumor_obs.Trace.t ->
  ?jobs:int ->
  ?walkers:Protocol.walkers ->
  profile ->
  seed:int ->
  (t * Table.t list) list
(** Run the selected (default: all) experiments and collect their tables.
    When [metrics] is given, every replicated cell measurement emits one
    {!Rumor_obs.Run_record.t} to it, with the record's [graph] field set to
    the experiment id (experiments build their graphs from closures, so the
    id is the most useful label available).

    [jobs] (default [1]; [0] = all cores) runs each cell's replications on
    that many domains via {!Replicate.broadcast_times} — tables and metrics
    are bit-identical for every setting.  Only the replicated cell
    measurements parallelize; the invariant-checking experiments (E9, A5–A8,
    R7, R8) drive their own sequential loops and ignore it.

    [walkers] (default [Dense]) selects the walker representation for
    measured cells ({!Replicate.broadcast_times}'s [?walkers]).
    [Sparse]/[Auto]-resolved-sparse cells are seed-deterministic but
    follow a different sample path than dense ones — the A10 gate
    bounds the distributional drift.  A10 itself ignores this and always
    measures both representations explicitly.

    [trace] records every experiment as a span named by its id, with each
    measured cell's per-rep instrumentation underneath
    ({!Replicate.broadcast_times}'s [?trace]); results are unchanged. *)

val with_metrics_sink : Rumor_obs.Run_record.sink -> (unit -> 'a) -> 'a
(** [with_metrics_sink sink f] installs [sink] for the dynamic extent of
    [f]: every cell measured by any experiment run within emits its run
    records there.  Restores the previous sink afterwards, even on raise. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs jobs f] sets the replication parallelism degree for the
    dynamic extent of [f], like {!with_metrics_sink} does for the sink. *)

val with_walkers : Protocol.walkers -> (unit -> 'a) -> 'a
(** [with_walkers w f] sets the walker representation for measured cells
    within [f] (same scoping as {!with_jobs}). *)

val with_trace : Rumor_obs.Trace.t -> (unit -> 'a) -> 'a
(** [with_trace tr f] records every cell measured within [f] into [tr]
    (same scoping as {!with_jobs}). *)
