(** Textual graph specifications for the command-line tools.

    A spec is [family] or [family:args], where args are comma-separated
    integers/floats (dimensions use [RxC]).  Supported families:

    - ["complete:N"], ["path:N"], ["cycle:N"]
    - ["star:LEAVES"], ["double-star:LEAVES"] (leaves per star)
    - ["tree:LEVELS"], ["heavy-tree:LEVELS"], ["siamese:LEVELS"]
    - ["csc:K"] — cycle of stars of cliques with parameter k
    - ["grid:RxC"], ["torus:RxC"], ["hypercube:DIM"]
    - ["necklace:CLIQUESxSIZE"], ["barbell:SIZE,BRIDGE"],
      ["lollipop:SIZE,TAIL"]
    - ["random-regular:N,D"] (connected sample), ["er:N,P"], ["gnm:N,M"],
      ["ba:N,M"] (Barabási–Albert preferential attachment)

    Each family has a natural default source: the star center, a double-star
    leaf, a heavy-tree leaf, a clique vertex of the csc, vertex 0
    elsewhere. *)

type t

val parse : string -> (t, string) result
(** Parse a spec and check its parameters against the generator's
    preconditions ([star:0], [cycle:1], [er:100,2.0], [random-regular:5,3]
    are errors); the error is a one-line human-readable message. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a malformed spec. *)

val to_string : t -> string
(** Canonical rendering of the parsed spec. *)

val families : string list
(** All accepted family names, for help text. *)

val is_random : t -> bool
(** Whether building consumes randomness (random graph models). *)

val build :
  ?trace:Rumor_obs.Trace.t -> Rumor_prob.Rng.t -> t -> Rumor_graph.Graph.t * int
(** [build rng spec] materializes the graph and its default source.
    [trace] records the {!Rumor_graph.Graph.Builder} phase spans for the
    random families (the deterministic [Gen_basic]/[Gen_paper] families
    build through the same builder but are not individually traced). *)
