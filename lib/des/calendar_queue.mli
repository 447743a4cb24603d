(** Calendar-queue event scheduler (Brown 1988) with amortized O(1) push
    and pop.

    Events hash by time into fixed-width buckets ("days") laid out over a
    rotating "year"; pop walks the year forward from the day of the last
    minimum.  Storage is one flat slab: each event is a slot in parallel
    arrays (times in a flat float array), released slots are recycled through a free list, and
    each bucket is an intrusive list kept sorted by [(time, seq)], so a
    steady-state push or pop allocates nothing beyond the boxed floats at
    the call boundary.  The bucket count is a power of two and doubles or
    halves when the load drifts; each resize re-tunes the day width to
    twice the mean gap among the earliest pending events, so a day at the
    front of the queue holds a few events: two right after a resize, at
    most about four before the next grow.

    The observable semantics are exactly {!Event_queue}'s: events drain
    in ascending [(time, insertion order)], same-time events are FIFO,
    so a simulation is a deterministic function of the inserted events
    and never of the bucket geometry.  Both modules implement
    {!Queue_intf.S}; the heap backs the legacy protocol modules and is the
    calendar's reference in tests.

    Degenerate time distributions (e.g. every event at one instant)
    cannot break correctness: a year scan that finds nothing falls back
    to a direct minimum search over all buckets. *)

type 'a t

type stats = {
  resizes : int;  (** lifetime resize count (grow + shrink) *)
  buckets : int;  (** current bucket count *)
  width : float;  (** current bucket width in time units *)
}

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q time payload] schedules [payload] at [time].  Times may be
    arbitrary finite floats, including times earlier than the last pop.
    @raise Invalid_argument if [time] is NaN. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, if any.  Events with equal
    times come out in insertion order. *)

val pop_into : 'a t -> 'a ref -> float
(** Unboxed {!pop} for hot loops: writes the earliest payload into the
    ref and returns its time, or returns NaN (writing nothing) on an
    empty queue. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)

val clear : 'a t -> unit
(** Drop every pending event, release the slab and bucket storage, reset
    the geometry to its initial state and the FIFO tie-break counter to 0.
    The lifetime resize counter is preserved. *)

val stats : 'a t -> stats
(** Geometry snapshot, for benchmarks and resize-heuristic regression
    checks. *)
