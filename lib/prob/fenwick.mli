(** Fenwick (binary indexed) tree over non-negative integer counts: [find t
    r] with [r] uniform on [0, total t) picks index [i] with probability
    [get t i / total t], in O(log n).

    No kernel uses this module any more: sparse asynchronous meet-exchange
    samples the ringing walker from a walker-slot array in O(1) instead.
    It is kept only because the benchmark's layer probe
    (perfbench/probe.ml) times it, and goes with the next change to the
    benchmark.

    Counts must stay non-negative; [add] with a delta that would drive a
    slot negative is not checked. *)

type t

val create : int -> t
(** [create n] is an all-zero tree over indices [0, n).
    @raise Invalid_argument if [n < 0]. *)

val of_counts : int array -> t
(** [of_counts c] builds the tree holding [c] in O(n). *)

val size : t -> int

val total : t -> int
(** Sum of all counts; maintained incrementally, O(1). *)

val add : t -> int -> int -> unit
(** [add t i delta] adds [delta] to slot [i].
    @raise Invalid_argument if [i] is out of range. *)

val get : t -> int -> int
(** [get t i] is the current count at [i]; O(log n). *)

val prefix : t -> int -> int
(** [prefix t i] is the sum of slots [0, i); O(log n).
    @raise Invalid_argument if [i] is outside [0, size t]. *)

val find : t -> int -> (int * int)
(** [find t r] for [0 <= r < total t] returns [(i, residual)] where [i] is
    the unique index with [prefix t i <= r < prefix t (i+1)] and
    [residual = r - prefix t i] (uniform on the slot's count when [r] is
    uniform — callers reuse it as a second draw).
    @raise Invalid_argument if [r] is outside [0, total t). *)
