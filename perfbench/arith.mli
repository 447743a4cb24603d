(** Order statistics and counting rules shared by every benchmark metric. *)

val median : float array -> float
(** Middle value; the mean of the two middle values for an even count.
    @raise Invalid_argument on an empty sample. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile: the sample of
    1-based rank [ceil (p/100 * n)].
    @raise Invalid_argument on an empty sample or [p] outside (0, 100]. *)

val beyond : n:int -> float -> int
(** [beyond ~n p] counts the samples of a size-[n] sample ranked strictly
    above its [p]-th percentile. *)

val min_beyond : int
(** 10: a tail percentile is reported only with this many samples beyond it. *)

val tail_ladder : float list
(** Candidate tail percentiles, highest first: 99.9, 99, 90, 75. *)

val tail_percentile : n:int -> float option
(** The highest percentile of {!tail_ladder} with at least {!min_beyond}
    samples beyond it in a sample of [n]; [None] below 40 samples. *)

type timing = { median : float; samples : int; tail : (float * float) option }
(** A timing as the benchmark reports it: median, sample count, and
    [(percentile, value)] for the tail chosen by {!tail_percentile}. *)

val timing : float array -> timing

val per_op : total:float -> ops:int -> float option
(** [total / ops], or [None] when no operation was counted. *)

val self_time : dur:float -> children:float list -> float
(** A span's duration minus its direct children's, floored at 0. *)

type tally = { attempted : int; failed : int }
(** Operations (one broadcast = one protocol on one rep) and failures. *)

val empty_tally : tally
val count_op : tally -> ok:bool -> tally

val all_ok : tally -> bool
(** At least one operation was attempted and none failed. *)
