(** Asynchronous rumor spreading (the Section 2 variants).

    In the asynchronous model every vertex acts at the arrival times of an
    independent unit-rate Poisson process: when its clock rings, the vertex
    samples a random neighbor and pushes (or, for push-pull, exchanges).
    Time is continuous; one unit of time corresponds to one expected ring
    per vertex, i.e. to one synchronous round's worth of activity.

    The paper's related work (Sauerwald [41]; Giakkoupis–Nazari–Woelfel
    [27], Angel et al. [4]) shows asynchronous push has the same broadcast
    time as synchronous push on regular graphs, while asynchronous and
    synchronous push-pull can differ by a sqrt(log n) factor in general.
    Ablation A5 checks the regular-graph equivalence empirically, and
    experiment A9 the sync/async agreement at Theorem granularity.

    The process runs in {!Async_engine.push}; this module holds the types
    it shares with its callers and the curve plumbing of both DES kernels.

    {2 Clock-stream contract}

    The RNG-consumption order of both {!Async_engine} kernels: the first
    operation on [rng] splits off a dedicated clock generator
    ({!Rumor_prob.Rng.split}); every Exp(1) clock gap is drawn from that clock stream in schedule
    order, and every other draw (here: uniform neighbor picks) comes from
    [rng] itself in event order.  Batching clock draws then cannot change
    any result, because the k-th scheduled gap is the clock stream's k-th
    sample no matter how eagerly it was generated. *)

type variant = Async_push | Async_push_pull

type result = {
  broadcast_time : float option;
      (** continuous completion time; [None] if [max_time] elapsed first *)
  rings : int;  (** total clock rings processed *)
  informed : int;
  curve : int array;
      (** informed count sampled at integer times: entry [m] is the count
          after every event with time [<= m]; entry 0 is the initial
          count.  On completion the curve ends at mark [ceil t]; on a cap
          it ends at the last integer mark [<= max_time]. *)
}

val to_run_result : result -> Run_result.t
(** Project onto the synchronous result type: [broadcast_time] rounds up
    to an integer round count, [informed_curve] is the [curve] field,
    [rounds_run] is the curve length minus one, and [contacts] counts one
    contact per ring. *)

(** {2 Integer-mark curve plumbing}

    Shared by the {!Async_engine} loops so they all emit curves in the same
    format for the same event sequence.  The curve value at mark [m] is
    the informed count after every event with time [<= m]. *)

val curve_hint : float -> int
(** Curve-buffer size hint for a [max_time] cap. *)

val curve_marks : Curve_buf.t -> int ref -> now:float -> count:int -> unit
(** Emit every integer mark strictly below [now] (the next event's time)
    with the pre-event [count], advancing the mark cursor. *)

val curve_finish : Curve_buf.t -> finish:float -> count:int -> int
(** Pad a completed run's curve with [count] through mark [ceil finish];
    returns that final mark. *)

val curve_cap : Curve_buf.t -> int ref -> max_time:float -> count:int -> unit
(** Pad a capped run's curve with [count] through the last integer mark
    [<= max_time]. *)
