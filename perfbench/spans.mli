(** Span arithmetic over a recorded trace.

    Spans on one track nest by interval containment; a span's self time is
    its duration minus the durations of its direct children on the same
    track.  Times are in seconds. *)

type span = {
  name : string;
  tid : int;
  start_s : float;
  dur_s : float;
  alloc_w : float;  (** minor words allocated while the span was open *)
  self_s : float;
}

val of_events : Rumor_obs.Trace.event list -> span array
(** The spans of a trace, sorted by (track, start, longest first), each
    with its self time.  Instants and counter samples are
    dropped. *)

val total : string -> span array -> float
(** Summed duration of the spans with this name. *)

val self_total : string -> span array -> float
val alloc_total : string -> span array -> float

val durations : (string -> bool) -> span array -> float array
(** Durations of the spans whose name satisfies the predicate. *)

val busy_by_track :
  name:string -> outer:span -> tracks:int list -> span array -> (int * float) list
(** Per-track summed duration of the [name] spans inside [outer]'s interval,
    on any track, in ascending track order.  Every track in [tracks]
    appears, with 0 when it ran no such span. *)
