(** Quasirandom rumor spreading (Doerr–Friedrich–Sauerwald [19], cited in
    Section 2).

    Each vertex has a fixed cyclic order of its neighbors (here: the CSR
    order).  When a vertex becomes informed it picks only a {e random
    starting position} in its cycle; thereafter it informs its neighbors
    deterministically in cyclic order, one per round.  The model uses
    exponentially fewer random bits than push (log deg per vertex instead
    of log deg per round) yet achieves the same O(log n) broadcast time on
    expanders, hypercubes and random graphs.

    Ablation R3 compares it to fully random push across regular families. *)

val run :
  ?obs:Rumor_obs.Instrument.t ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  unit ->
  Run_result.t
(** [run rng g ~source ~max_rounds ()] — same conventions as {!Engine.push}. *)
