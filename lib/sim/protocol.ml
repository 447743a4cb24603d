module Placement = Rumor_agents.Placement
module P = Rumor_protocols

type lazy_mode = Lazy_off | Lazy_on | Lazy_auto

type spec =
  | Push
  | Push_pull
  | Visit_exchange of { agents : Placement.spec; laziness : lazy_mode }
  | Meet_exchange of { agents : Placement.spec; laziness : lazy_mode }
  | Combined of { agents : Placement.spec; laziness : lazy_mode }
  | Pull
  | Quasi_push
  | Cobra of { branching : int }
  | Frog of { frogs_per_vertex : int }
  | Flood
  | Async_push
  | Async_push_pull
  | Async_meet_exchange of { agents : Placement.spec; laziness : lazy_mode }

let push = Push
let push_pull = Push_pull
let pull = Pull
let quasi_push = Quasi_push
let cobra ?(branching = 2) () = Cobra { branching }
let frog ?(frogs_per_vertex = 1) () = Frog { frogs_per_vertex }
let flood = Flood

let visit_exchange ?(alpha = 1.0) () =
  Visit_exchange { agents = Placement.Linear alpha; laziness = Lazy_off }

let meet_exchange ?(alpha = 1.0) () =
  Meet_exchange { agents = Placement.Linear alpha; laziness = Lazy_auto }

let combined ?(alpha = 1.0) () =
  Combined { agents = Placement.Linear alpha; laziness = Lazy_off }

let async_push = Async_push
let async_push_pull = Async_push_pull

let async_meet_exchange ?(alpha = 1.0) () =
  Async_meet_exchange { agents = Placement.Linear alpha; laziness = Lazy_auto }

let name = function
  | Push -> "push"
  | Push_pull -> "push-pull"
  | Pull -> "pull"
  | Visit_exchange _ -> "visit-exchange"
  | Meet_exchange _ -> "meet-exchange"
  | Combined _ -> "combined"
  | Quasi_push -> "quasi-push"
  | Cobra _ -> "cobra"
  | Frog _ -> "frog"
  | Flood -> "flood"
  | Async_push -> "async-push"
  | Async_push_pull -> "async-push-pull"
  | Async_meet_exchange _ -> "async-meet-exchange"

let resolve_lazy laziness g =
  match laziness with
  | Lazy_off -> false
  | Lazy_on -> true
  | Lazy_auto -> Rumor_graph.Algo.is_bipartite g

type walkers = P.Sparse_walkers.mode = Dense | Sparse | Auto

let walkers_name = P.Sparse_walkers.mode_to_string
let walkers_of_string = P.Sparse_walkers.mode_of_string

let run ?traffic ?obs ?trace ?walkers ?shards ?pool spec rng g ~source
    ~max_rounds =
  (* one top-level span per run, named after the protocol; the kernels hang
     their per-round spans under it *)
  Rumor_obs.Trace.with_span trace ("engine." ^ name spec) (fun () ->
      match spec with
      | Push ->
          P.Engine.push ?traffic ?obs ?trace ?shards ?pool rng g ~source
            ~max_rounds ()
      | Push_pull ->
          P.Engine.push_pull ?traffic ?obs ?trace ?shards ?pool rng g ~source
            ~max_rounds ()
      | Visit_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.visit_exchange ?traffic ?obs ?trace ~lazy_walk ?walkers
            ?shards ?pool rng g ~source ~agents ~max_rounds ()
      | Meet_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.meet_exchange ?traffic ?obs ?trace ~lazy_walk ?walkers
            ?shards ?pool rng g ~source ~agents ~max_rounds ()
      | Combined { agents; laziness } ->
          (* dense walkers only: the sparse representation has no combined
             kernel, so [walkers] is not forwarded here *)
          let lazy_walk = resolve_lazy laziness g in
          P.Engine.combined ?obs ?trace ~lazy_walk ?shards ?pool rng g ~source
            ~agents ~max_rounds ()
      (* the DES kernels are sequential ([shards]/[pool] are ignored), read
         [max_rounds] as a time horizon, and, like Combined, have no
         bandwidth model, so [traffic] is ignored *)
      | Async_push ->
          P.Async_push.to_run_result
            (P.Async_engine.push ?obs ?trace rng g
               ~variant:P.Async_push.Async_push ~source
               ~max_time:(float_of_int max_rounds))
      | Async_push_pull ->
          P.Async_push.to_run_result
            (P.Async_engine.push ?obs ?trace rng g
               ~variant:P.Async_push.Async_push_pull ~source
               ~max_time:(float_of_int max_rounds))
      | Async_meet_exchange { agents; laziness } ->
          let lazy_walk = resolve_lazy laziness g in
          P.Async_meet_exchange.to_run_result
            (P.Async_engine.meet_exchange ?obs ?trace ~lazy_walk ?walkers rng g
               ~source ~agents ~max_time:(float_of_int max_rounds))
      (* no engine kernel (yet): these consume the rng identically for
         every [shards] value *)
      | Pull -> P.Pull.run ?traffic ?obs rng g ~source ~max_rounds ()
      | Quasi_push -> P.Quasi_push.run ?obs rng g ~source ~max_rounds ()
      | Cobra { branching } ->
          (P.Cobra.run ?obs rng g ~source ~branching ~max_rounds ())
            .P.Cobra.run_result
      | Frog { frogs_per_vertex } ->
          (P.Frog.run ?obs ~frogs_per_vertex rng g ~source ~max_rounds ())
            .P.Frog.run_result
      | Flood -> P.Flood.run ?obs g ~source ~max_rounds ())

let shards_used ?(walkers = Dense) ?(shards = 1) spec g =
  match spec with
  | Push | Push_pull | Combined _ -> shards
  | Visit_exchange { agents; _ } | Meet_exchange { agents; _ } ->
      if P.Sparse_walkers.use_sparse walkers agents g then 1 else shards
  | Pull | Quasi_push | Cobra _ | Frog _ | Flood | Async_push | Async_push_pull
  | Async_meet_exchange _ ->
      1

let run_engine = run
