(* The three workloads: which graphs they build, which protocols they run,
   how each broadcast's work is counted, and the paper shape checks their
   outputs must pass. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement
module Run_result = Rumor_protocols.Run_result
module Graph_spec = Rumor_sim.Graph_spec
module Protocol = Rumor_sim.Protocol
module Trace = Rumor_obs.Trace
module Clock = Rumor_obs.Clock

type protocol =
  | Push
  | Push_pull
  | Visit_exchange
  | Meet_exchange
  | Async_push_pull
  | Async_meet_exchange

let protocol_name = function
  | Push -> "push"
  | Push_pull -> "push-pull"
  | Visit_exchange -> "visit-exchange"
  | Meet_exchange -> "meet-exchange"
  | Async_push_pull -> "async-push-pull"
  | Async_meet_exchange -> "async-meet-exchange"

type kind = Contact | Walker

let kind = function
  | Push | Push_pull | Async_push_pull -> Contact
  | Visit_exchange | Meet_exchange | Async_meet_exchange -> Walker

(* alpha = 1: as many agents as vertices, stationary placement *)
let agents = Placement.Linear 1.0

type check = {
  family : string;
  claim : string;
  involves : protocol list;
  holds : (protocol -> float array) -> bool;
}

type t = {
  name : string;
  families : (string * string) list;
  protocols : protocol list;
  reps : int;
  jobs : int;
  max_rounds : int;
  checks : check list;
}

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (Array.length xs))

let er1m =
  {
    name = "er1m";
    families = [ ("er", "er:200000,0.0004") ];
    protocols = [ Push; Visit_exchange ];
    reps = 1;
    jobs = 1;
    max_rounds = 150;
    checks =
      [
        {
          family = "er";
          claim = "Theorem 1: push and visit-exchange within a factor 3";
          involves = [ Push; Visit_exchange ];
          holds =
            (fun t ->
              let a = mean (t Push) and b = mean (t Visit_exchange) in
              a <= 3.0 *. b && b <= 3.0 *. a);
        };
      ];
  }

let figure1 =
  {
    name = "figure1";
    families =
      [
        ("star", "star:400");
        ("double-star", "double-star:400");
        ("heavy-tree", "heavy-tree:9");
        ("siamese", "siamese:8");
        ("csc", "csc:6");
      ];
    protocols = [ Push; Push_pull; Visit_exchange; Meet_exchange ];
    reps = 8;
    jobs = 2;
    max_rounds = 1_000_000;
    checks =
      [
        {
          family = "star";
          claim = "Lemma 2: push-pull on the star within 2 rounds";
          involves = [ Push_pull ];
          holds = (fun t -> Array.for_all (fun x -> x <= 2.0) (t Push_pull));
        };
        {
          family = "double-star";
          claim = "Lemma 3: both agent protocols beat push-pull on the double star";
          involves = [ Push_pull; Visit_exchange; Meet_exchange ];
          holds =
            (fun t ->
              let pp = mean (t Push_pull) in
              mean (t Visit_exchange) < pp && mean (t Meet_exchange) < pp);
        };
        {
          family = "heavy-tree";
          claim = "Lemma 4: push beats visit-exchange on the heavy tree";
          involves = [ Push; Visit_exchange ];
          holds = (fun t -> mean (t Push) < mean (t Visit_exchange));
        };
        {
          family = "siamese";
          claim = "Lemma 8: push beats both agent protocols on the siamese tree";
          involves = [ Push; Visit_exchange; Meet_exchange ];
          holds =
            (fun t ->
              let p = mean (t Push) in
              p < mean (t Visit_exchange) && p < mean (t Meet_exchange));
        };
      ];
  }

let async_rr =
  {
    name = "async-rr";
    families = [ ("random-regular", "random-regular:100000,16") ];
    protocols = [ Async_push_pull; Async_meet_exchange ];
    reps = 1;
    jobs = 1;
    max_rounds = 1000;
    checks = [];
  }

let all = [ er1m; figure1; async_rr ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* Seeds for every generator, a pure function of the workload seed and the
   stream's coordinates. *)
let derive seed coords = Hashtbl.hash (seed, coords)

(* ------------------------------------------------------------ set-up *)

type instance = { label : string; graph : Graph.t; source : int }

let csr_bytes g = 8 * (Graph.n g + 1 + Graph.arc_count g)

let build ?trace ~seed w =
  List.mapi
    (fun i (label, text) ->
      let graph, source =
        Trace.with_span trace "bench.graph_build" (fun () ->
            Graph_spec.build ?trace (Rng.of_int (derive seed [ 0; i ])) (Graph_spec.parse_exn text))
      in
      { label; graph; source })
    w.families

let timed_build ?trace ~seed w =
  let t0 = Clock.now_s () in
  let instances = build ?trace ~seed w in
  (instances, Clock.elapsed_s ~since:t0)

(* ------------------------------------------------------------ passes *)

type call = {
  family : string;
  protocol : protocol;
  outcome : Call.outcome;
  work : int array;
}

let job w p =
  let sync spec =
    if w.reps > 1 then Call.Replicated { spec; reps = w.reps; jobs = w.jobs } else Call.Sync spec
  in
  match p with
  | Push -> sync Protocol.push
  | Push_pull -> sync Protocol.push_pull
  | Visit_exchange -> sync (Protocol.visit_exchange ~alpha:1.0 ())
  | Meet_exchange -> sync (Protocol.meet_exchange ~alpha:1.0 ())
  | Async_push_pull -> Call.Async_push_pull
  | Async_meet_exchange -> Call.Async_meet_exchange agents

let call_seed ~seed ~pass ~family ~protocol = derive seed [ 1; pass; family; protocol ]

(* The work one broadcast does: calls for the push family (an async
   push-pull contact is one clock ring), agent steps for the walkers (a
   sync agent steps once per round; an async ring moves one agent). *)
let work_of inst p (o : Call.outcome) =
  Array.mapi
    (fun r (res : Run_result.t) ->
      match p with
      | Push | Push_pull -> res.contacts
      | Visit_exchange | Meet_exchange -> Placement.count agents inst.graph * res.rounds_run
      | Async_push_pull | Async_meet_exchange -> o.rings.(r))
    o.results

let run_pass ?trace ~seed ~pass w instances =
  List.concat
    (List.mapi
       (fun fi inst ->
         List.mapi
           (fun pi p ->
             let outcome =
               Call.run ?trace
                 ~seed:(call_seed ~seed ~pass ~family:fi ~protocol:pi)
                 ~graph:inst.graph ~source:inst.source ~max_rounds:w.max_rounds (job w p)
             in
             { family = inst.label; protocol = p; outcome; work = work_of inst p outcome })
           w.protocols)
       instances)

let times calls family p =
  Array.concat
    (List.filter_map
       (fun (c : call) ->
         if String.equal c.family family && c.protocol = p then
           Some
             (Array.map
                (fun (r : Run_result.t) ->
                  float_of_int (Option.value ~default:r.rounds_run r.broadcast_time))
                c.outcome.results)
         else None)
       calls)

let failed_checks w calls = List.filter (fun (c : check) -> not (c.holds (times calls c.family))) w.checks

let same_result (a : Run_result.t) (b : Run_result.t) =
  Option.equal Int.equal a.broadcast_time b.broadcast_time
  && a.rounds_run = b.rounds_run && a.contacts = b.contacts

(* One operation per (protocol, rep) of every pass.  It fails when it hits
   its cap, when a shape check involving its (family, protocol) fails on the
   reps pooled over all [passes], or when its [twin] — the same call traced
   — took a different sample path. *)
let tally ?twin w passes =
  let calls = List.concat passes in
  let bad = failed_checks w calls in
  let twins =
    match twin with
    | None -> List.map (fun _ -> None) calls
    | Some tw -> List.map Option.some (List.concat tw)
  in
  let problems = ref [] in
  let t =
    List.fold_left2
      (fun acc (c : call) (twin : call option) ->
        let acc = ref acc in
        Array.iteri
          (fun r (res : Run_result.t) ->
            let why =
              (if Option.is_none res.broadcast_time then [ "hit its cap" ] else [])
              @ List.filter_map
                  (fun (ch : check) ->
                    if String.equal ch.family c.family && List.mem c.protocol ch.involves then
                      Some ("failed " ^ ch.claim)
                    else None)
                  bad
              @
              match twin with
              | Some tw when not (same_result res tw.outcome.results.(r)) ->
                  [ "traced run differs from untraced" ]
              | Some _ | None -> []
            in
            if why <> [] then
              problems :=
                Printf.sprintf "%s %s rep %d: %s" c.family (protocol_name c.protocol) r
                  (String.concat "; " why)
                :: !problems;
            acc := Arith.count_op !acc ~ok:(why = []))
          c.outcome.results;
        !acc)
      Arith.empty_tally calls twins
  in
  (t, List.rev !problems)

(* ------------------------------------------------------------ metrics *)

type counts = { contacts : int; agent_steps : int; rings : int; rounds : int }

type pass_figures = {
  broadcast_s : float;
  ns_per_contact : float;
  ns_per_agent_step : float;
  ns_per_ring : float;
  words_per_contact : float;
  words_per_agent_step : float;
  words_per_ring : float;
  counts : counts;
}

let sum f calls = List.fold_left (fun acc c -> acc + f c) 0 calls
let sumf f calls = List.fold_left (fun acc c -> acc +. f c) 0.0 calls
let work c = Array.fold_left ( + ) 0 c.work

(* A ring is one activation of a party's clock: a Poisson ring in the
   continuous-time kernels, and in the round kernels one push call or one
   agent step (every party's clock ticks once per round it acts).  So the
   per-ring figures cover every broadcast of the pass. *)
let figures calls =
  let of_kind k = List.filter (fun c -> kind c.protocol = k) calls in
  let ratio scale f cs =
    Option.value ~default:Float.nan (Arith.per_op ~total:(scale *. sumf f cs) ~ops:(sum work cs))
  in
  let wall c = c.outcome.wall_s and words c = c.outcome.minor_words in
  let contact = of_kind Contact and walker = of_kind Walker in
  {
    broadcast_s = sumf wall calls;
    ns_per_contact = ratio 1e9 wall contact;
    ns_per_agent_step = ratio 1e9 wall walker;
    ns_per_ring = ratio 1e9 wall calls;
    words_per_contact = ratio 1.0 words contact;
    words_per_agent_step = ratio 1.0 words walker;
    words_per_ring = ratio 1.0 words calls;
    counts =
      {
        contacts = sum work contact;
        agent_steps = sum work walker;
        rings = sum (fun c -> Array.fold_left ( + ) 0 c.outcome.rings) calls;
        rounds =
          sum
            (fun c ->
              Array.fold_left (fun acc (r : Run_result.t) -> acc + r.rounds_run) 0 c.outcome.results)
            calls;
      };
  }
