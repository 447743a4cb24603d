(* Golden fixture for the protocol kernels.

   Each case below runs one kernel on one small graph and seed, and hashes
   the whole observable outcome into one MD5: the result fields (broadcast
   time — the float's bits for the continuous-time kernels — rounds or
   rings, contacts, the informed curve, all-agents-informed), the full
   Instrument event stream of a second, observed run, and the per-edge
   Traffic loads or per-vertex informing rounds where a case records them.
   The expected digests live in Golden_digests; the test asserts that the
   kernels reproduce every one of them bit for bit. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Run_result = P.Run_result
module Traffic = P.Traffic
module Instrument = Rumor_obs.Instrument

(* The kernels under test, with the arguments the cases vary. *)
module K = struct
  let push ?obs ?traffic ?failure_prob ?tau rng g ~source ~max_rounds =
    P.Engine.push ?obs ?traffic ?failure_prob ?tau rng g ~source ~max_rounds ()

  let push_pull ?obs ?traffic rng g ~source ~max_rounds =
    P.Engine.push_pull ?obs ?traffic rng g ~source ~max_rounds ()

  let visit_exchange ?obs ?traffic ?lazy_walk ?walkers ?tau rng g ~source ~agents
      ~max_rounds =
    P.Engine.visit_exchange ?obs ?traffic ?lazy_walk ?walkers ?tau rng g ~source
      ~agents ~max_rounds ()

  let meet_exchange ?obs ?traffic ?lazy_walk rng g ~source ~agents ~max_rounds =
    P.Engine.meet_exchange ?obs ?traffic ?lazy_walk rng g ~source ~agents
      ~max_rounds ()

  let combined ?obs ?lazy_walk rng g ~source ~agents ~max_rounds =
    P.Engine.combined ?obs ?lazy_walk rng g ~source ~agents ~max_rounds ()

  let async_push ?obs ~queue rng g ~variant ~source ~max_time =
    P.Async_engine.push ?obs ~queue rng g ~variant ~source ~max_time

  let async_meet_exchange ?obs ?lazy_walk ~queue rng g ~source ~agents ~max_time =
    P.Async_engine.meet_exchange ?obs ?lazy_walk ~queue rng g ~source ~agents
      ~max_time
end

(* --------------------------------------------------------- serialization *)

let add_int b i =
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ','

let add_opt b = function None -> Buffer.add_string b "-," | Some i -> add_int b i

let add_ints b a =
  add_int b (Array.length a);
  Array.iter (add_int b) a

let add_time b = function
  | None -> Buffer.add_string b "-,"
  | Some t -> Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float t))

let add_result b (r : Run_result.t) =
  Buffer.add_char b 'R';
  add_opt b r.Run_result.broadcast_time;
  add_int b r.Run_result.rounds_run;
  add_int b r.Run_result.contacts;
  add_ints b r.Run_result.informed_curve;
  add_opt b r.Run_result.all_agents_informed

let add_push_result b (r : P.Async_push.result) =
  Buffer.add_char b 'A';
  add_time b r.P.Async_push.broadcast_time;
  add_int b r.P.Async_push.rings;
  add_int b r.P.Async_push.informed;
  add_ints b r.P.Async_push.curve

let add_meet_result b (r : P.Async_meet_exchange.result) =
  Buffer.add_char b 'M';
  add_time b r.P.Async_meet_exchange.broadcast_time;
  add_int b r.P.Async_meet_exchange.rings;
  add_int b r.P.Async_meet_exchange.informed;
  add_int b r.P.Async_meet_exchange.agents;
  add_ints b r.P.Async_meet_exchange.curve

(* every hook appends one tagged record, so the digest pins the exact event
   sequence, not just its counts *)
let recording b =
  Instrument.make
    ~on_round_start:(fun r ->
      Buffer.add_char b 's';
      add_int b r)
    ~on_round_end:(fun ~round ~informed ~contacts ->
      Buffer.add_char b 'e';
      add_int b round;
      add_int b informed;
      add_int b contacts)
    ~on_contact:(fun u v ->
      Buffer.add_char b 'c';
      add_int b u;
      add_int b v)
    ~on_walker_move:(fun ~agent ~from_ ~to_ ->
      Buffer.add_char b 'w';
      add_int b agent;
      add_int b from_;
      add_int b to_)
    ~on_occupancy:(fun ~round ~occupied ~walkers ->
      Buffer.add_char b 'o';
      add_int b round;
      add_int b occupied;
      add_int b walkers)
    ()

(* A case runs its kernel twice on the same seed: once plain, once with a
   recording instrument.  [run ?obs b] performs one run and serializes its
   result (and any side output) into [b]. *)
type case = { name : string; run : ?obs:Instrument.t -> Buffer.t -> unit }

let digest case =
  let b = Buffer.create 4096 in
  case.run b;
  Buffer.add_char b '|';
  case.run ~obs:(recording b) b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ----------------------------------------------------------------- cases *)

let families () =
  [
    ("complete16", Gen.complete 16);
    ("torus6x6", Gen.torus ~rows:6 ~cols:6);
    ("path12", Gen.path 12);
    ("star9", Gen.star ~leaves:9);
    ("er40", Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15);
    ("reg3x20", Gen_random.random_regular_connected (Rng.of_int 777) ~n:20 ~d:3);
  ]

let seeds = [ 1; 42; 9001 ]
let agent_specs = [ ("stat12", Placement.Stationary 12); ("opv", Placement.One_per_vertex) ]
let lazies = [ false; true ]
let queues = [ ("heap", P.Async_engine.Heap); ("calendar", P.Async_engine.Calendar) ]

let variants =
  [ ("push", P.Async_push.Async_push); ("push-pull", P.Async_push.Async_push_pull) ]

let sweep xs f = List.concat_map f xs
let fam_seed f = sweep (families ()) (fun (gn, g) -> sweep seeds (fun s -> f gn g s))
let case name run = { name; run }

let sync_cases () =
  List.concat
    [
      fam_seed (fun gn g s ->
          [
            case (Printf.sprintf "push %s seed=%d" gn s) (fun ?obs b ->
                add_result b (K.push ?obs (Rng.of_int s) g ~source:0 ~max_rounds:100_000));
            case (Printf.sprintf "push-pull %s seed=%d" gn s) (fun ?obs b ->
                add_result b
                  (K.push_pull ?obs (Rng.of_int s) g ~source:1 ~max_rounds:100_000));
            case (Printf.sprintf "meet-exchange %s seed=%d" gn s) (fun ?obs b ->
                (* omitted lazy_walk: the bipartiteness default *)
                add_result b
                  (K.meet_exchange ?obs (Rng.of_int s) g ~source:0
                     ~agents:(Placement.Stationary 14) ~max_rounds:20_000));
          ]
          @ sweep agent_specs (fun (an, agents) ->
                sweep lazies (fun lazy_walk ->
                    [
                      case
                        (Printf.sprintf "visit-exchange %s seed=%d %s lazy=%b" gn s an
                           lazy_walk) (fun ?obs b ->
                          add_result b
                            (K.visit_exchange ?obs ~lazy_walk (Rng.of_int s) g ~source:0
                               ~agents ~max_rounds:100_000));
                    ]))
          @ sweep lazies (fun lazy_walk ->
                [
                  case (Printf.sprintf "combined %s seed=%d lazy=%b" gn s lazy_walk)
                    (fun ?obs b ->
                      add_result b
                        (K.combined ?obs ~lazy_walk (Rng.of_int s) g ~source:0
                           ~agents:(Placement.Stationary 12) ~max_rounds:100_000));
                ]));
      sweep seeds (fun s ->
          [
            case (Printf.sprintf "push failure_prob=0.3 complete24 seed=%d" s)
              (fun ?obs b ->
                add_result b
                  (K.push ?obs ~failure_prob:0.3 (Rng.of_int s) (Gen.complete 24)
                     ~source:3 ~max_rounds:100_000));
          ]);
      [
        case "visit-exchange walkers=auto complete16 seed=5" (fun ?obs b ->
            add_result b
              (K.visit_exchange ?obs ~walkers:P.Sparse_walkers.Auto ~lazy_walk:false
                 (Rng.of_int 5) (Gen.complete 16) ~source:0
                 ~agents:(Placement.Stationary 12) ~max_rounds:100_000));
        case "push torus5x5 seed=7" (fun ?obs b ->
            add_result b
              (K.push ?obs (Rng.of_int 7) (Gen.torus ~rows:5 ~cols:5) ~source:0
                 ~max_rounds:100_000));
        case "visit-exchange complete10 seed=8" (fun ?obs b ->
            add_result b
              (K.visit_exchange ?obs (Rng.of_int 8) (Gen.complete 10) ~source:0
                 ~agents:(Placement.Stationary 8) ~max_rounds:100_000));
        case "push max_int cap path40 seed=17" (fun ?obs b ->
            add_result b
              (K.push ?obs (Rng.of_int 17) (Gen.path 40) ~source:0 ~max_rounds:max_int));
      ];
    ]

(* per-edge loads after the run, for every kernel that records traffic *)
let traffic_cases () =
  let with_traffic g b run =
    let traffic = Traffic.create g in
    add_result b (run traffic);
    add_ints b (Traffic.loads traffic)
  in
  sweep
    [ ("complete12", Gen.complete 12); ("torus6x6", Gen.torus ~rows:6 ~cols:6) ]
    (fun (gn, g) ->
      [
        case ("traffic push " ^ gn) (fun ?obs b ->
            with_traffic g b (fun traffic ->
                K.push ?obs ~traffic (Rng.of_int 9) g ~source:0 ~max_rounds:100_000));
        case ("traffic push-pull " ^ gn) (fun ?obs b ->
            with_traffic g b (fun traffic ->
                K.push_pull ?obs ~traffic (Rng.of_int 9) g ~source:0
                  ~max_rounds:100_000));
        case ("traffic visit-exchange " ^ gn) (fun ?obs b ->
            with_traffic g b (fun traffic ->
                K.visit_exchange ?obs ~traffic (Rng.of_int 9) g ~source:0
                  ~agents:(Placement.Stationary 10) ~max_rounds:100_000));
        case ("traffic meet-exchange " ^ gn) (fun ?obs b ->
            with_traffic g b (fun traffic ->
                K.meet_exchange ?obs ~traffic (Rng.of_int 9) g ~source:0
                  ~agents:(Placement.Stationary 10) ~max_rounds:20_000));
      ])

(* per-vertex informing rounds: push's [?tau] *)
let push_tau_cases () =
  List.map
    (fun (gn, g) ->
      case ("push tau " ^ gn) (fun ?obs b ->
          let tau = Array.make (Graph.n g) 0 in
          add_result b (K.push ?obs ~tau (Rng.of_int 55) g ~source:0 ~max_rounds:100_000);
          add_ints b tau))
    (families ())

(* per-vertex informing rounds: visit-exchange's [?tau] *)
let visit_tau_cases () =
  sweep (families ()) (fun (gn, g) ->
      sweep agent_specs (fun (an, agents) ->
          [
            case (Printf.sprintf "visit-exchange tau %s %s" gn an) (fun ?obs b ->
                let tau = Array.make (Graph.n g) 0 in
                add_result b
                  (K.visit_exchange ?obs ~tau (Rng.of_int 55) g ~source:0 ~agents
                     ~max_rounds:100_000);
                add_ints b tau);
          ]))

let async_cases () =
  List.concat
    [
      fam_seed (fun gn g s ->
          sweep queues (fun (qn, queue) ->
              sweep variants (fun (vn, variant) ->
                  [
                    case (Printf.sprintf "async-%s %s %s seed=%d" vn gn qn s)
                      (fun ?obs b ->
                        add_push_result b
                          (K.async_push ?obs ~queue (Rng.of_int s) g ~variant ~source:0
                             ~max_time:1e6));
                  ])
              @ sweep agent_specs (fun (an, agents) ->
                    [
                      case
                        (Printf.sprintf "async-meet-exchange %s %s %s seed=%d" gn an qn s)
                        (fun ?obs b ->
                          add_meet_result b
                            (K.async_meet_exchange ?obs ~queue (Rng.of_int s) g
                               ~source:0 ~agents ~max_time:20_000.0));
                    ])));
      sweep seeds (fun s ->
          (* a short horizon: the cap path and its curve padding *)
          [
            case (Printf.sprintf "async-push capped path12 seed=%d" s) (fun ?obs b ->
                add_push_result b
                  (K.async_push ?obs ~queue:P.Async_engine.Calendar (Rng.of_int s)
                     (Gen.path 12) ~variant:P.Async_push.Async_push ~source:0
                     ~max_time:2.5));
          ]
          (* K2: lazy off is the parity trap the async model resolves; lazy
             on exercises the stay coin *)
          @ sweep lazies (fun lazy_walk ->
                [
                  case (Printf.sprintf "async-meet-exchange K2 lazy=%b seed=%d" lazy_walk s)
                    (fun ?obs b ->
                      add_meet_result b
                        (K.async_meet_exchange ?obs ~lazy_walk
                           ~queue:P.Async_engine.Calendar (Rng.of_int s)
                           (Gen.complete 2) ~source:0 ~agents:Placement.One_per_vertex
                           ~max_time:20_000.0));
                ]));
    ]

let groups () =
  [
    ("sync", sync_cases ());
    ("traffic", traffic_cases ());
    ("push tau", push_tau_cases ());
    ("visit-exchange tau", visit_tau_cases ());
    ("async", async_cases ());
  ]

(* ------------------------------------------------------------------ test *)

let expected = Hashtbl.of_seq (List.to_seq Golden_digests.digests)

let check_group cases () =
  let mismatches =
    List.filter_map
      (fun c ->
        let got = digest c in
        match Hashtbl.find_opt expected c.name with
        | Some want when String.equal want got -> None
        | Some want -> Some (Printf.sprintf "%s: got %s, fixture %s" c.name got want)
        | None -> Some (Printf.sprintf "%s: no fixture digest (got %s)" c.name got))
      cases
  in
  match mismatches with [] -> () | _ -> Alcotest.fail (String.concat "\n" mismatches)

let test_fixture_complete () =
  (* every fixture digest belongs to a case, so none can silently go
     unchecked *)
  let names = Hashtbl.create 512 in
  List.iter
    (fun (_, cases) -> List.iter (fun c -> Hashtbl.replace names c.name ()) cases)
    (groups ());
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem names name) then Alcotest.failf "fixture case %S has no run" name)
    Golden_digests.digests;
  Alcotest.(check int) "one digest per case" (Hashtbl.length names)
    (List.length Golden_digests.digests)

let suite =
  List.map
    (fun (group, cases) ->
      Alcotest.test_case
        (Printf.sprintf "%s kernels reproduce the golden digests" group)
        `Quick (check_group cases))
    (groups ())
  @ [ Alcotest.test_case "fixture has one digest per case" `Quick test_fixture_complete ]
