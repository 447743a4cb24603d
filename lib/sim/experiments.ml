module Rng = Rumor_prob.Rng
module Stats = Rumor_prob.Stats
module Regress = Rumor_prob.Regress
module Graph = Rumor_graph.Graph
module Gen_basic = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols

type profile = Quick | Full

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : profile -> seed:int -> Table.t list;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let pick profile ~quick ~full = match profile with Quick -> quick | Full -> full

let reps profile = pick profile ~quick:5 ~full:15

(* Decorrelated per-cell seeds so adding a column does not shift others. *)
let cell_seed seed i j = (seed * 1_000_003) + (i * 7919) + j

(* Dynamically-scoped metrics sink: [with_metrics_sink] installs it around a
   whole suite run so every measured cell emits run records without
   threading a sink through each experiment closure. *)
let metrics_sink : Rumor_obs.Run_record.sink option ref = ref None

let with_metrics_sink sink f =
  let saved = !metrics_sink in
  metrics_sink := Some sink;
  Fun.protect ~finally:(fun () -> metrics_sink := saved) f

(* Same dynamic-scoping trick for the replication parallelism degree, so
   experiment closures need no threading either; cell results are identical
   for every setting (see Replicate). *)
let current_jobs = ref 1

let with_jobs jobs f =
  let saved = !current_jobs in
  current_jobs := jobs;
  Fun.protect ~finally:(fun () -> current_jobs := saved) f

(* And for the walker representation: with the dense default every cell
   reproduces the golden fixture; [Sparse]/[Auto] are opt-in and gated
   distributionally by A10. *)
let current_walkers : Protocol.walkers ref = ref Protocol.Dense

let with_walkers walkers f =
  let saved = !current_walkers in
  current_walkers := walkers;
  Fun.protect ~finally:(fun () -> current_walkers := saved) f

(* And for the tracer: every measured cell's replications record into the
   one suite-wide tracer (spans never change results, see Replicate). *)
let current_trace : Rumor_obs.Trace.t option ref = ref None

let with_trace trace f =
  let saved = !current_trace in
  current_trace := Some trace;
  Fun.protect ~finally:(fun () -> current_trace := saved) f

let measure_cell ~seed ~reps ~graph ~spec ~max_rounds =
  Replicate.broadcast_times ?sink:!metrics_sink ~jobs:!current_jobs
    ?trace:!current_trace ~walkers:!current_walkers
    ~seed ~reps ~graph ~spec ~max_rounds ()

let time_cell (m : Replicate.measurement) =
  let s = m.summary in
  let text = Table.fmt_mean_pm s in
  if m.capped > 0 then Printf.sprintf ">=%s (%d capped)" text m.capped else text

(* A standard sweep: rows indexed by a size label, columns by protocol. *)
let sweep_table ~title ~claim ~paper_row ~seed ~reps ~max_rounds ~specs ~notes rows =
  let header = "n" :: List.map Protocol.name specs in
  let means = Array.make_matrix (List.length rows) (List.length specs) 0.0 in
  let table_rows =
    List.mapi
      (fun i (label, nval, graph) ->
        let cells =
          List.mapi
            (fun j spec ->
              let m =
                measure_cell ~seed:(cell_seed seed i j) ~reps ~graph ~spec
                  ~max_rounds:(max_rounds nval)
              in
              means.(i).(j) <- Replicate.mean m;
              time_cell m)
            specs
        in
        label :: cells)
      rows
  in
  let ns = Array.of_list (List.map (fun (_, nval, _) -> float_of_int nval) rows) in
  let fit_notes =
    if Array.length ns >= 2 then
      List.mapi
        (fun j spec ->
          let ts = Array.init (Array.length ns) (fun i -> Float.max means.(i).(j) 0.5) in
          let pf = Regress.power_fit ns ts in
          Printf.sprintf "%s: fitted growth exponent %.2f (T ~ n^e; ~0 means polylog)"
            (Protocol.name spec) pf.Regress.slope)
        specs
    else []
  in
  Table.make ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) specs)
    ~notes:(notes @ fit_notes @ [ paper_row ])
    ~title ~claim ~header table_rows

let alpha = 1.0
let vx = Protocol.visit_exchange ~alpha ()
let mx = Protocol.meet_exchange ~alpha ()
let comb = Protocol.combined ~alpha ()

(* ------------------------------------------------------------------ *)
(* E1: star graph (Fig 1a, Lemma 2)                                    *)
(* ------------------------------------------------------------------ *)

let e1_run profile ~seed =
  let leaves = pick profile ~quick:[ 128; 256; 512; 1024 ] ~full:[ 128; 256; 512; 1024; 2048; 4096 ] in
  let rows =
    List.map
      (fun l ->
        let label = Printf.sprintf "%d" (l + 1) in
        (label, l + 1, fun _rng -> (Gen_basic.star ~leaves:l, 0)))
      leaves
  in
  [
    sweep_table ~title:"E1: star S_n, source = center"
      ~claim:
        "Lemma 2: E[T_push] = Omega(n log n); T_ppull <= 2; T_visitx, T_meetx = \
         O(log n) w.h.p."
      ~paper_row:
        "expected shape: push exponent ~1 (n log n); others ~0 with small \
         absolute values"
      ~seed ~reps:(reps profile)
      ~max_rounds:(fun n -> 60 * n)
      ~specs:[ Protocol.push; Protocol.push_pull; vx; mx ]
      ~notes:[] rows;
  ]

(* ------------------------------------------------------------------ *)
(* E2: double star (Fig 1b, Lemma 3)                                   *)
(* ------------------------------------------------------------------ *)

let e2_run profile ~seed =
  let leaves = pick profile ~quick:[ 128; 256; 512; 1024 ] ~full:[ 128; 256; 512; 1024; 2048; 4096 ] in
  let rows =
    List.map
      (fun l ->
        let n = 2 * (l + 1) in
        ( string_of_int n,
          n,
          fun _rng ->
            let ds = Gen_paper.double_star ~leaves_per_star:l in
            (ds.Gen_paper.ds_graph, ds.Gen_paper.ds_leaf_a) ))
      leaves
  in
  [
    sweep_table ~title:"E2: double star S2_n, source = a leaf"
      ~claim:
        "Lemma 3: E[T_ppull] = Omega(n); T_visitx, T_meetx = O(log n) w.h.p."
      ~paper_row:
        "expected shape: push-pull exponent ~1; visit/meet-exchange ~0"
      ~seed ~reps:(reps profile)
      ~max_rounds:(fun n -> 60 * n)
      ~specs:[ Protocol.push_pull; vx; mx ]
      ~notes:
        [
          "the centers' edge is picked by push-pull with prob O(1/n) per \
           round; agents cross it with constant probability per round";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E3: heavy binary tree (Fig 1c, Lemma 4)                             *)
(* ------------------------------------------------------------------ *)

let e3_run profile ~seed =
  let levels = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12; 13 ] in
  let rows =
    List.map
      (fun lv ->
        let n = (1 lsl lv) - 1 in
        ( string_of_int n,
          n,
          fun _rng ->
            let ht = Gen_paper.heavy_binary_tree ~levels:lv in
            (ht.Gen_paper.ht_graph, ht.Gen_paper.ht_first_leaf) ))
      levels
  in
  [
    sweep_table ~title:"E3: heavy binary tree B_n, source = a leaf"
      ~claim:
        "Lemma 4: T_push = O(log n) w.h.p.; E[T_visitx] = Omega(n); T_meetx = \
         O(log n) w.h.p. for a leaf source"
      ~paper_row:
        "expected shape: visit-exchange exponent ~1; push and meet-exchange ~0"
      ~seed ~reps:(reps profile)
      ~max_rounds:(fun n -> 100 * n)
      ~specs:[ Protocol.push; vx; mx ]
      ~notes:
        [
          "almost all stationary mass is on the leaf clique, so no agent \
           finds the root for Omega(n) rounds";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E4: Siamese heavy binary trees (Fig 1d, Lemma 8)                    *)
(* ------------------------------------------------------------------ *)

let e4_run profile ~seed =
  let levels = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12 ] in
  let rows =
    List.map
      (fun lv ->
        let n = (2 * ((1 lsl lv) - 1)) - 1 in
        ( string_of_int n,
          n,
          fun _rng ->
            let si = Gen_paper.siamese_heavy_tree ~levels:lv in
            (si.Gen_paper.si_graph, si.Gen_paper.si_leaf_left) ))
      levels
  in
  [
    sweep_table ~title:"E4: Siamese heavy binary trees D_n, source = a left leaf"
      ~claim:
        "Lemma 8: T_push = O(log n) w.h.p.; E[T_visitx] = Omega(n); \
         E[T_meetx] = Omega(n)"
      ~paper_row:
        "expected shape: push exponent ~0; both agent protocols ~1"
      ~seed ~reps:(reps profile)
      ~max_rounds:(fun n -> 100 * n)
      ~specs:[ Protocol.push; vx; mx ]
      ~notes:
        [
          "information must cross the shared root; agents reach it only \
           after Omega(n) rounds in expectation";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E5: cycle of stars of cliques (Fig 1e, Lemma 9)                     *)
(* ------------------------------------------------------------------ *)

let e5_run profile ~seed =
  let ks = pick profile ~quick:[ 6; 8; 10; 12 ] ~full:[ 6; 8; 10; 12; 14; 16 ] in
  let measurements =
    List.mapi
      (fun i k ->
        let csc = Gen_paper.cycle_stars_cliques ~k in
        let n = Graph.n csc.Gen_paper.csc_graph in
        let graph _rng = (csc.Gen_paper.csc_graph, csc.Gen_paper.csc_a_clique_vertex) in
        let cap = 500 * k * k in
        let mv =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:vx ~max_rounds:cap
        in
        let mm =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:mx ~max_rounds:cap
        in
        (k, n, mv, mm))
      ks
  in
  let rows =
    List.map
      (fun (k, n, mv, mm) ->
        let ratio = Replicate.mean mm /. Float.max (Replicate.mean mv) 1e-9 in
        [
          string_of_int k;
          string_of_int n;
          time_cell mv;
          time_cell mm;
          Printf.sprintf "%.2f" ratio;
        ])
      measurements
  in
  let ratios =
    List.map
      (fun (_, _, mv, mm) -> Replicate.mean mm /. Float.max (Replicate.mean mv) 1e-9)
      measurements
  in
  let trend =
    match (ratios, List.rev ratios) with
    | first :: _, last :: _ ->
        Printf.sprintf
          "meetx/visitx ratio moves from %.2f (k=%d) to %.2f (k=%d); Lemma 9 \
           predicts growth ~ log n"
          first (List.hd ks) last (List.nth ks (List.length ks - 1))
    | _ -> ""
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          trend;
          "ring vertices c_i are never informed in meet-exchange, slowing \
           each ring hop by a log factor";
        ]
      ~title:"E5: cycle-of-stars-of-cliques (k^3+k^2+k vertices), source in a clique"
      ~claim:
        "Lemma 9: E[T_visitx] = O(n^{2/3}) while E[T_meetx] = Omega(n^{2/3} \
         log n): a logarithmic-factor separation on an (almost) regular graph"
      ~header:[ "k"; "n"; "visit-exchange"; "meet-exchange"; "ratio" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E6: push vs visit-exchange on regular graphs (Theorem 1)            *)
(* ------------------------------------------------------------------ *)

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let e6_family_table ~title ~seed ~profile rows =
  let specs = [ Protocol.push; vx ] in
  let measurements =
    List.mapi
      (fun i (label, _nval, graph) ->
        let mp =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:(List.nth specs 0) ~max_rounds:100_000
        in
        let mv =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:(List.nth specs 1) ~max_rounds:100_000
        in
        (label, mp, mv))
      rows
  in
  let table_rows =
    List.map
      (fun (label, mp, mv) ->
        let ratio = Replicate.mean mp /. Float.max (Replicate.mean mv) 1e-9 in
        [ label; time_cell mp; time_cell mv; Printf.sprintf "%.2f" ratio ])
      measurements
  in
  Table.make
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [
        "Theorem 1 predicts the ratio stays within constant bounds as n \
         grows (no drift to 0 or infinity)";
      ]
    ~title
    ~claim:
      "Theorem 1: on d-regular graphs with d = Omega(log n), T_push and \
       T_visitx are asymptotically equal up to constants"
    ~header:[ "n (d)"; "push"; "visit-exchange"; "push/visitx" ]
    table_rows

let e6_run profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096; 8192 ] in
  let rr_rows =
    List.map
      (fun n ->
        let d = max 6 (ilog2 n) in
        ( Printf.sprintf "%d (%d)" n d,
          n,
          fun rng -> (Gen_random.random_regular_connected rng ~n ~d, 0) ))
      ns
  in
  let hc_dims = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12; 13 ] in
  let hc_rows =
    List.map
      (fun dim ->
        ( Printf.sprintf "%d (%d)" (1 lsl dim) dim,
          1 lsl dim,
          fun _rng -> (Gen_basic.hypercube ~dim, 0) ))
      hc_dims
  in
  let neck_sizes = pick profile ~quick:[ (8, 16); (16, 16); (32, 16) ] ~full:[ (8, 16); (16, 16); (32, 16); (64, 16) ] in
  let neck_rows =
    List.map
      (fun (cliques, s) ->
        let n = cliques * s in
        ( Printf.sprintf "%d (%d)" n (s - 1),
          n,
          fun _rng -> (Gen_basic.necklace ~cliques ~clique_size:s, 0) ))
      neck_sizes
  in
  [
    e6_family_table ~title:"E6a: random d-regular, d = max(6, log2 n)" ~seed ~profile rr_rows;
    e6_family_table ~title:"E6b: hypercube (d = log2 n exactly)" ~seed:(seed + 1) ~profile hc_rows;
    e6_family_table
      ~title:"E6c: necklace of 16-cliques (15-regular, diameter Theta(n)): both protocols polynomial, ratio still constant"
      ~seed:(seed + 2) ~profile neck_rows;
  ]

(* ------------------------------------------------------------------ *)
(* E7: visit-exchange vs meet-exchange on regular graphs (Theorem 23)  *)
(* ------------------------------------------------------------------ *)

let e7_run profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096 ] in
  let measurements =
    List.mapi
      (fun i n ->
        let d = max 6 (ilog2 n) in
        let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
        let mvx =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:vx ~max_rounds:100_000
        in
        let mmx =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:mx ~max_rounds:100_000
        in
        (n, d, mvx, mmx))
      ns
  in
  let rows =
    List.map
      (fun (n, d, mvx, mmx) ->
        let gap = Replicate.mean mmx -. Replicate.mean mvx in
        let norm = gap /. log (float_of_int n) in
        [
          Printf.sprintf "%d (%d)" n d;
          time_cell mvx;
          time_cell mmx;
          Printf.sprintf "%.1f" gap;
          Printf.sprintf "%.2f" norm;
        ])
      measurements
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "Theorem 23 bounds T_visitx <= T_meetx + c log n: the (meetx - \
           visitx) gap should stay O(log n), i.e. the last column bounded";
        ]
      ~title:"E7: meet-exchange vs visit-exchange on random d-regular"
      ~claim:
        "Theorem 23: P[T_visitx <= k + c log n] >= P[T_meetx <= k] - n^-lambda \
         — meet-exchange is never more than an additive O(log n) faster"
      ~header:[ "n (d)"; "visit-exchange"; "meet-exchange"; "gap"; "gap/ln n" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E8: logarithmic lower bounds (Theorems 24, 25)                      *)
(* ------------------------------------------------------------------ *)

let e8_run profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096; 8192 ] in
  let measurements =
    List.mapi
      (fun i n ->
        let d = max 6 (ilog2 n) in
        let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
        let mvx =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:vx ~max_rounds:100_000
        in
        let mmx =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:mx ~max_rounds:100_000
        in
        (n, d, mvx, mmx))
      ns
  in
  let rows =
    List.map
      (fun (n, d, mvx, mmx) ->
        let ln = log (float_of_int n) in
        [
          Printf.sprintf "%d (%d)" n d;
          Printf.sprintf "%.1f" ln;
          time_cell mvx;
          Printf.sprintf "%.2f" (mvx.Replicate.summary.Stats.min /. ln);
          time_cell mmx;
          Printf.sprintf "%.2f" (mmx.Replicate.summary.Stats.min /. ln);
        ])
      measurements
  in
  let ns_f = Array.of_list (List.map (fun (n, _, _, _) -> float_of_int n) measurements) in
  let fit_for label extract =
    let ts = Array.of_list (List.map extract measurements) in
    let lf = Regress.log_fit ns_f ts in
    Printf.sprintf "%s: T ~ %.2f * ln n + %.2f (log-linear fit, r2=%.2f)" label
      lf.Regress.slope lf.Regress.intercept lf.Regress.r2
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          fit_for "visit-exchange" (fun (_, _, mvx, _) -> Replicate.mean mvx);
          fit_for "meet-exchange" (fun (_, _, _, mmx) -> Replicate.mean mmx);
          "Theorems 24/25: even the minimum over replications stays >= c ln n \
           with c > 0";
        ]
      ~title:"E8: Omega(log n) lower bounds on random d-regular"
      ~claim:
        "Theorems 24, 25: T_visitx and T_meetx are Omega(log n) w.h.p. on \
         d-regular graphs with d = Omega(log n), |A| = O(n)"
      ~header:[ "n (d)"; "ln n"; "visitx"; "min/ln n"; "meetx"; "min/ln n" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E9: the Section 5 coupling invariants (Lemmas 13, 14, Eq. 3)        *)
(* ------------------------------------------------------------------ *)

(* The Theorem 19 direction plus the tweaked processes: per vertex,
   visit-exchange's informing round t_u should be within a constant factor
   of tau_u + log n (Lemma 22), and the t-/r-clamps should never fire on
   d-regular graphs with d = Omega(log n) (Lemmas 12 and 21). *)
let e9b_table profile ~seed =
  let ns = pick profile ~quick:[ 256; 512 ] ~full:[ 256; 512; 1024; 2048 ] in
  let trials = pick profile ~quick:3 ~full:10 in
  let rows =
    List.mapi
      (fun i n ->
        (* Lemma 21 needs alpha * d >> log n before the Eq.(10) clamp is
           w.h.p. idle; d ~ 64 puts even n = 256 in that regime *)
        let d = max 64 (6 * ilog2 n) in
        let master = Rng.of_int (cell_seed seed i 0) in
        let worst_ratio = ref 0.0 in
        let t_interventions = ref 0 in
        let r_interventions = ref 0 in
        for _ = 1 to trials do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let tau = Array.make n 0 and vertex_time = Array.make n 0 in
          let (_ : P.Run_result.t) =
            P.Engine.push ~tau rng g ~source:0 ~max_rounds:(100 * n) ()
          in
          let (_ : P.Run_result.t) =
            P.Engine.visit_exchange ~tau:vertex_time rng g ~source:0
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n) ()
          in
          let ln_n = log (float_of_int n) in
          Array.iteri
            (fun u tu ->
              if tu < max_int && tau.(u) < max_int then begin
                let ratio = float_of_int tu /. (float_of_int tau.(u) +. ln_n) in
                if ratio > !worst_ratio then worst_ratio := ratio
              end)
            vertex_time;
          let t_run =
            P.Tweaked_visit_exchange.run_t_visit_exchange rng g ~source:0
              ~agents:(Placement.Linear alpha) ~gamma:6.0 ~max_rounds:(100 * n) ()
          in
          t_interventions :=
            !t_interventions + t_run.P.Tweaked_visit_exchange.interventions;
          let r_run =
            P.Tweaked_visit_exchange.run_r_visit_exchange rng g ~source:0
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n) ()
          in
          r_interventions :=
            !r_interventions + r_run.P.Tweaked_visit_exchange.interventions
        done;
        [
          Printf.sprintf "%d (%d)" n d;
          string_of_int trials;
          Printf.sprintf "%.2f" !worst_ratio;
          string_of_int !t_interventions;
          string_of_int !r_interventions;
        ])
      ns
  in
  Table.make
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [
        "max t/(tau+ln n): worst per-vertex ratio of visit-exchange's \
         informing round to push's plus log n; Theorem 19 bounds it by a \
         constant c";
        "t-/r-clamp: total agents removed by Eq.(3) (gamma = 6) / added by \
         Eq.(10) across all runs; Lemmas 12 and 21 say both are 0 w.h.p. \
         for d = Omega(log n)";
      ]
    ~title:"E9b: Theorem 19 direction and the tweaked processes"
    ~claim:
      "Lemma 22: t_u <= c (tau_u + log n) w.h.p.; Lemmas 12/21: the Eq.(3) \
       and Eq.(10) clamps never fire on d-regular graphs with d = \
       Omega(log n)"
    ~header:[ "n (d)"; "runs"; "max t/(tau+ln n)"; "t-clamp"; "r-clamp" ]
    rows

let e9_run profile ~seed =
  let ns = pick profile ~quick:[ 128; 256; 512 ] ~full:[ 128; 256; 512; 1024; 2048 ] in
  let trials = pick profile ~quick:3 ~full:10 in
  let rows =
    List.mapi
      (fun i n ->
        let d = max 6 (ilog2 n) in
        let master = Rng.of_int (cell_seed seed i 0) in
        let violations = ref 0 in
        let congestion_mismatches = ref 0 in
        let max_ratio = ref 0.0 in
        let max_load = ref 0 in
        for _ = 1 to trials do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let c = P.Coupling.create rng g ~source:0 in
          let o =
            P.Coupling.run_visit_exchange ~record_history:true c
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n)
          in
          let tau = P.Coupling.run_push c ~max_rounds:(100 * n) in
          violations := !violations + List.length (P.Coupling.lemma13_violations ~tau o);
          for u = 0 to n - 1 do
            if o.P.Coupling.vertex_time.(u) < max_int then begin
              let walk = P.Coupling.canonical_walk o u in
              let q = P.Coupling.congestion o walk in
              if q <> o.P.Coupling.c_counter.(u) then incr congestion_mismatches;
              if o.P.Coupling.vertex_time.(u) > 0 then begin
                let r =
                  float_of_int o.P.Coupling.c_counter.(u)
                  /. float_of_int o.P.Coupling.vertex_time.(u)
                in
                if r > !max_ratio then max_ratio := r
              end
            end
          done;
          let load = P.Coupling.max_neighborhood_load o g in
          if load > !max_load then max_load := load
        done;
        [
          Printf.sprintf "%d (%d)" n d;
          string_of_int trials;
          string_of_int !violations;
          string_of_int !congestion_mismatches;
          Printf.sprintf "%.2f" !max_ratio;
          Printf.sprintf "%d (%.1fd)" !max_load (float_of_int !max_load /. float_of_int d);
        ])
      ns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "violations = vertices with tau_u > C_u(t_u) under the shared-list \
           coupling (Lemma 13: must be 0)";
          "Q mismatches = canonical walks whose congestion differs from \
           C_u(t_u) (Lemma 14: must be 0)";
          "max C/t = worst congestion-per-round over vertices; Section 5.7 \
           bounds it by a constant beta w.h.p.";
          "max load = max_u sum_{v in N(u)} |Z_v(t)|; Lemma 12/Eq.(3) says \
           it stays O(d)";
        ]
      ~title:"E9a: coupling invariants of Section 5 on random d-regular"
      ~claim:
        "Lemma 13: tau_u <= C_u(t_u) for all u; Lemma 14: the canonical walk \
         to u has congestion exactly C_u(t_u); Eq.(3): neighborhood loads \
         stay O(d)"
      ~header:[ "n (d)"; "runs"; "Lemma13 viol."; "Q mismatches"; "max C/t"; "max nbhd load" ]
      rows;
    e9b_table profile ~seed:(seed + 17);
  ]

(* ------------------------------------------------------------------ *)
(* E10: the push-pull + visit-exchange combination (Section 1)         *)
(* ------------------------------------------------------------------ *)

let e10_run profile ~seed =
  let reps = reps profile in
  let size = pick profile ~quick:1024 ~full:4096 in
  let levels = pick profile ~quick:11 ~full:13 in
  let ds = Gen_paper.double_star ~leaves_per_star:(size / 2) in
  let ht = Gen_paper.heavy_binary_tree ~levels in
  let n_ds = Graph.n ds.Gen_paper.ds_graph in
  let n_ht = Graph.n ht.Gen_paper.ht_graph in
  let families =
    [
      ( "double star",
        n_ds,
        fun _rng -> (ds.Gen_paper.ds_graph, ds.Gen_paper.ds_leaf_a) );
      ( "heavy binary tree",
        n_ht,
        fun _rng -> (ht.Gen_paper.ht_graph, ht.Gen_paper.ht_first_leaf) );
    ]
  in
  let specs = [ Protocol.push_pull; vx; comb ] in
  let rows =
    List.mapi
      (fun i (label, n, graph) ->
        let cells =
          List.mapi
            (fun j spec ->
              let m =
                measure_cell ~seed:(cell_seed seed i j) ~reps ~graph ~spec
                  ~max_rounds:(60 * n)
              in
              time_cell m)
            specs
        in
        Printf.sprintf "%s (n=%d)" label n :: cells)
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "push-pull is polynomial on the double star; visit-exchange is \
           polynomial on the heavy tree; the combination is logarithmic on \
           both";
        ]
      ~title:"E10: combining push-pull with visit-exchange"
      ~claim:
        "Section 1: \"agent-based information dissemination, separately or \
         in combination with push-pull, can significantly improve the \
         broadcast time\""
      ~header:[ "graph"; "push-pull"; "visit-exchange"; "combined" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A1: agent density (Section 9 open problem)                          *)
(* ------------------------------------------------------------------ *)

let a1_run profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let d = max 6 (ilog2 n) in
  let alphas = [ 0.25; 0.5; 1.0; 2.0; 4.0 ] in
  let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
  let rows =
    List.mapi
      (fun i a ->
        let mvx =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:(Protocol.visit_exchange ~alpha:a ())
            ~max_rounds:100_000
        in
        let mmx =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:(Protocol.meet_exchange ~alpha:a ())
            ~max_rounds:100_000
        in
        [ Printf.sprintf "%.2f" a; time_cell mvx; time_cell mmx ])
      alphas
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ~notes:
        [
          "the paper assumes |A| = Theta(n) and leaves sub-linear agent \
           counts open (Section 9); broadcast slows gracefully as alpha \
           shrinks";
        ]
      ~title:
        (Printf.sprintf "A1: agent density sweep on random %d-regular, n = %d" d n)
      ~claim:"ablation: |A| = alpha n for alpha in [1/4, 4]"
      ~header:[ "alpha"; "visit-exchange"; "meet-exchange" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A2: lazy vs non-lazy walks on a bipartite graph (Section 3)         *)
(* ------------------------------------------------------------------ *)

let a2_run profile ~seed =
  let leaves = pick profile ~quick:512 ~full:2048 in
  let graph _rng = (Gen_basic.star ~leaves, 0) in
  let cap = 2000 in
  let cases =
    [
      ("meet-exchange, lazy", Protocol.Meet_exchange { agents = Placement.Linear alpha; laziness = Protocol.Lazy_on });
      ("meet-exchange, non-lazy", Protocol.Meet_exchange { agents = Placement.Linear alpha; laziness = Protocol.Lazy_off });
    ]
  in
  let rows =
    List.mapi
      (fun i (label, spec) ->
        let m =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec ~max_rounds:cap
        in
        [
          label;
          time_cell m;
          Printf.sprintf "%d/%d" (Array.length m.Replicate.times - m.Replicate.capped)
            (Array.length m.Replicate.times);
        ])
      cases
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ~notes:
        [
          "the star is bipartite: non-lazy walks split into parity classes \
           that never meet, so T_meetx = infinity unless walks are lazy \
           (Section 3's remark)";
          Printf.sprintf "round cap: %d" cap;
        ]
      ~title:(Printf.sprintf "A2: lazy walks on the bipartite star (n = %d)" (leaves + 1))
      ~claim:
        "Section 3: on bipartite graphs meet-exchange may never finish; lazy \
         walks guarantee E[T_meetx] < infinity"
      ~header:[ "variant"; "broadcast time"; "completed" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A3: stationary vs one-agent-per-vertex placement (Section 1)        *)
(* ------------------------------------------------------------------ *)

let a3_run profile ~seed =
  let ns = pick profile ~quick:[ 512; 1024 ] ~full:[ 512; 1024; 2048; 4096 ] in
  let rows =
    List.mapi
      (fun i n ->
        let d = max 6 (ilog2 n) in
        let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
        let m_st =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:vx ~max_rounds:100_000
        in
        let m_opv =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:(Protocol.Visit_exchange { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_off })
            ~max_rounds:100_000
        in
        [ Printf.sprintf "%d (%d)" n d; time_cell m_st; time_cell m_opv ])
      ns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ~notes:
        [
          "Section 1: \"our results for regular graphs hold also in the case \
           where there is exactly one agent starting from each node\"";
        ]
      ~title:"A3: initial placement, stationary vs one-per-vertex (visit-exchange)"
      ~claim:"placement choice does not change the broadcast time asymptotics on regular graphs"
      ~header:[ "n (d)"; "stationary"; "one-per-vertex" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A4: bandwidth fairness (Section 1)                                  *)
(* ------------------------------------------------------------------ *)

let a4_run profile ~seed =
  let leaves = pick profile ~quick:256 ~full:1024 in
  let ds = Gen_paper.double_star ~leaves_per_star:leaves in
  let g = ds.Gen_paper.ds_graph in
  let source = ds.Gen_paper.ds_leaf_a in
  let rounds = pick profile ~quick:200 ~full:500 in
  let run_with spec seed_off =
    let tr = P.Traffic.create g in
    let rng = Rng.of_int (cell_seed seed seed_off 0) in
    (* run for a fixed number of rounds so both protocols get equal time *)
    let (_ : P.Run_result.t) =
      Protocol.run ~traffic:tr spec rng g ~source ~max_rounds:rounds
    in
    tr
  in
  (* push-pull never finishes that fast on the double star, so both traffic
     snapshots cover comparable horizons *)
  let tr_pp = run_with Protocol.push_pull 1 in
  let tr_vx = run_with vx 2 in
  let bridge_pp = P.Traffic.count tr_pp ds.Gen_paper.ds_center_a ds.Gen_paper.ds_center_b in
  let bridge_vx = P.Traffic.count tr_vx ds.Gen_paper.ds_center_a ds.Gen_paper.ds_center_b in
  let f_pp = P.Traffic.fairness tr_pp in
  let f_vx = P.Traffic.fairness tr_vx in
  let row name (f : P.Traffic.fairness) bridge =
    [
      name;
      Printf.sprintf "%.2f" f.P.Traffic.mean;
      Printf.sprintf "%.2f" (float_of_int f.P.Traffic.min_load /. f.P.Traffic.mean);
      Printf.sprintf "%.2f" f.P.Traffic.max_over_mean;
      string_of_int bridge;
      Printf.sprintf "%.3f" (float_of_int bridge /. f.P.Traffic.mean);
    ]
  in
  [
    Table.make
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf
            "both protocols ran for exactly %d rounds on the double star (n = %d)"
            rounds (Graph.n g);
          "\"bridge uses\" counts traffic on the center-center edge: \
           visit-exchange uses every edge at roughly the mean rate \
           (bridge/mean near 1), push-pull starves the bridge by a factor \
           Theta(n) (Section 1's local fairness claim)";
        ]
      ~title:"A4: per-edge bandwidth fairness on the double star"
      ~claim:
        "Section 1: agent-based protocols use all edges with the same \
         frequency; push-pull does not"
      ~header:
        [ "protocol"; "mean edge load"; "min/mean"; "max/mean"; "bridge uses"; "bridge/mean" ]
      [ row "push-pull" f_pp bridge_pp; row "visit-exchange" f_vx bridge_vx ];
  ]

(* ------------------------------------------------------------------ *)
(* A5: synchronous vs asynchronous rumor spreading (Section 2)         *)
(* ------------------------------------------------------------------ *)

let a5_run profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024 ] ~full:[ 256; 512; 1024; 2048; 4096 ] in
  let reps = reps profile in
  let rows =
    List.mapi
      (fun i n ->
        let d = max 6 (ilog2 n) in
        let master = Rng.of_int (cell_seed seed i 0) in
        let sync = Stats.create () and async_p = Stats.create () and async_pp = Stats.create () in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let r = P.Engine.push rng g ~source:0 ~max_rounds:100_000 () in
          Stats.add_int sync (P.Run_result.time_exn r);
          (match
             (P.Async_engine.push rng g ~variant:P.Async_push.Async_push ~source:0
                ~max_time:1e6)
               .P.Async_push.broadcast_time
           with
          | Some t -> Stats.add async_p t
          | None -> ());
          match
            (P.Async_engine.push rng g ~variant:P.Async_push.Async_push_pull ~source:0
               ~max_time:1e6)
              .P.Async_push.broadcast_time
          with
          | Some t -> Stats.add async_pp t
          | None -> ()
        done;
        [
          Printf.sprintf "%d (%d)" n d;
          Printf.sprintf "%.1f" (Stats.mean sync);
          Printf.sprintf "%.1f" (Stats.mean async_p);
          Printf.sprintf "%.2f" (Stats.mean async_p /. Stats.mean sync);
          Printf.sprintf "%.1f" (Stats.mean async_pp);
        ])
      ns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "async time is continuous (one unit = one expected clock ring per \
           vertex), directly comparable to synchronous rounds";
          "Sauerwald [41]: on regular graphs asynchronous push matches \
           synchronous push asymptotically — the ratio column should stay \
           near a constant";
        ]
      ~title:"A5: synchronous vs asynchronous push on random d-regular"
      ~claim:
        "Section 2 (related work): asynchronous push has the same broadcast \
         time as synchronous push on regular graphs"
      ~header:[ "n (d)"; "sync push"; "async push"; "async/sync"; "async push-pull" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A6: dynamic agents under churn (Section 9 future work)              *)
(* ------------------------------------------------------------------ *)

let a6_run profile ~seed =
  let n = pick profile ~quick:512 ~full:2048 in
  let reps = reps profile in
  let d = max 6 (ilog2 n) in
  let churns = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  let measure ~replace churn i =
    let master = Rng.of_int (cell_seed seed i (if replace then 0 else 1)) in
    let times = Stats.create () in
    let completed = ref 0 in
    for _ = 1 to reps do
      let rng = Rng.split master in
      let g = Gen_random.random_regular_connected rng ~n ~d in
      let o =
        P.Dynamic_visit_exchange.run rng g ~source:0 ~agents:(Placement.Linear alpha)
          ~churn ~replace ~max_rounds:(50 * n) ()
      in
      match o.P.Dynamic_visit_exchange.result.P.Run_result.broadcast_time with
      | Some t ->
          incr completed;
          Stats.add_int times t
      | None -> ()
    done;
    (times, !completed)
  in
  let rows =
    List.mapi
      (fun i churn ->
        let with_rep, done_rep = measure ~replace:true churn i in
        let no_rep, done_norep = measure ~replace:false churn i in
        [
          Printf.sprintf "%.2f" churn;
          (if done_rep = 0 then "-" else Printf.sprintf "%.1f" (Stats.mean with_rep));
          Printf.sprintf "%d/%d" done_rep reps;
          (if done_norep = 0 then "-" else Printf.sprintf "%.1f" (Stats.mean no_rep));
          Printf.sprintf "%d/%d" done_norep reps;
        ])
      churns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "with births (replacement) the broadcast time degrades gracefully \
           even at 40% churn per round; without replacement heavy churn kills \
           the population before the slow graphs finish";
          Printf.sprintf "random %d-regular, n = %d, |A_0| = n, cap = 50n" d n;
        ]
      ~title:"A6: visit-exchange under agent churn (dynamic population)"
      ~claim:
        "Section 9: \"the protocols could tolerate some number of lost agents, \
         if a dynamic set of agents were used, where agents age ... while new \
         agents are born at a proportional rate\""
      ~header:
        [ "churn/round"; "T (with births)"; "done"; "T (no births)"; "done" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A7: push under random transmission failures ([22], used by Lemma 4) *)
(* ------------------------------------------------------------------ *)

let a7_run profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let d = max 6 (ilog2 n) in
  let reps = reps profile in
  let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75 ] in
  let rows =
    List.mapi
      (fun i failure_prob ->
        let master = Rng.of_int (cell_seed seed i 0) in
        let stats = Stats.create () in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let r = P.Engine.push ~failure_prob rng g ~source:0 ~max_rounds:(100 * n) () in
          Stats.add_int stats (P.Run_result.time_exn r)
        done;
        let t = Stats.mean stats in
        [
          Printf.sprintf "%.2f" failure_prob;
          Printf.sprintf "%.1f" t;
          Printf.sprintf "%.2f" (1.0 /. (1.0 -. failure_prob));
        ])
      ps
  in
  let baseline =
    match rows with (_ :: t0 :: _) :: _ -> float_of_string t0 | _ -> 1.0
  in
  let rows =
    List.map
      (fun row ->
        match row with
        | [ p; t; pred ] ->
            [ p; t; Printf.sprintf "%.2f" (float_of_string t /. baseline); pred ]
        | _ -> row)
      rows
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf "random %d-regular, n = %d; each transmission is \
                          lost independently with probability p" d n;
          "Elsasser-Sauerwald [22] (used inside the paper's Lemma 4 proof): \
           random transmission failures only rescale the broadcast time by \
           ~1/(1-p) — measured and predicted slowdowns should track";
        ]
      ~title:"A7: push under random transmission failures"
      ~claim:
        "Lemma 4 via [22]: transmission failures with constant probability \
         do not change push's asymptotic broadcast time"
      ~header:[ "p(loss)"; "push"; "slowdown"; "1/(1-p)" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R1: sub-linear agents on random regular graphs (Section 9; [14])    *)
(* ------------------------------------------------------------------ *)

let r1_run profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let d = max 6 (ilog2 n) in
  let ks = pick profile ~quick:[ 8; 16; 32; 64; 128 ] ~full:[ 8; 16; 32; 64; 128; 256; 512 ] in
  let rows =
    List.mapi
      (fun i k ->
        let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
        let spec =
          Protocol.Meet_exchange
            { agents = Placement.Stationary k; laziness = Protocol.Lazy_auto }
        in
        let m =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph ~spec
            ~max_rounds:(200 * n)
        in
        let t = Replicate.mean m in
        let predicted = float_of_int n *. log (float_of_int k) /. float_of_int k in
        [
          string_of_int k;
          time_cell m;
          Printf.sprintf "%.0f" predicted;
          Printf.sprintf "%.2f" (t /. predicted);
        ])
      ks
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf "random %d-regular, n = %d, k agents from stationarity" d n;
          "Cooper-Frieze-Radzik [14]: E[T_meetx] = O(n log k / k) for k <= n \
           random walks on random regular graphs — the last column should \
           stay bounded as k varies";
        ]
      ~title:"R1: meet-exchange with k << n agents on random regular graphs"
      ~claim:
        "Section 9 open problem (sub-linear agents), calibrated against the \
         [14] bound E[T] = O(n log k / k)"
      ~header:[ "k"; "meet-exchange"; "n ln k / k"; "T / (n ln k / k)" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R2: sub-linear agents on the torus (Section 9; [39], [35])          *)
(* ------------------------------------------------------------------ *)

let r2_run profile ~seed =
  let side = pick profile ~quick:24 ~full:48 in
  let n = side * side in
  let ks = pick profile ~quick:[ 4; 16; 64; 256 ] ~full:[ 4; 16; 64; 256; 1024 ] in
  let rows =
    List.mapi
      (fun i k ->
        let graph _rng = (Gen_basic.torus ~rows:side ~cols:side, 0) in
        let spec =
          Protocol.Meet_exchange
            { agents = Placement.Stationary k; laziness = Protocol.Lazy_auto }
        in
        let m =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph ~spec
            ~max_rounds:(500 * n)
        in
        let t = Replicate.mean m in
        let predicted = float_of_int n /. sqrt (float_of_int k) in
        [
          string_of_int k;
          time_cell m;
          Printf.sprintf "%.0f" predicted;
          Printf.sprintf "%.2f" (t /. predicted);
        ])
      ks
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf "%dx%d torus (n = %d), k agents, lazy walks (bipartite)" side side n;
          "Pettarin et al. [39]: broadcast time on the 2-d grid is \
           Theta~(n / sqrt k) — the normalized column should stay within a \
           polylog band as k grows";
        ]
      ~title:"R2: meet-exchange with k agents on the 2-d torus"
      ~claim:
        "Section 2 (related work [39], [35]): k random walks spread a rumor \
         on the 2-d grid in Theta~(n / sqrt k) rounds"
      ~header:[ "k"; "meet-exchange"; "n / sqrt k"; "T / (n / sqrt k)" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R3: quasirandom vs fully random push (Section 2; [19])              *)
(* ------------------------------------------------------------------ *)

let r3_run profile ~seed =
  let families =
    let sizes = pick profile ~quick:[ 256; 1024 ] ~full:[ 256; 1024; 4096 ] in
    List.concat_map
      (fun n ->
        let d = max 6 (ilog2 n) in
        [
          ( Printf.sprintf "random-regular n=%d" n,
            n,
            fun rng -> (Gen_random.random_regular_connected rng ~n ~d, 0) );
        ])
      sizes
    @ [
        ("hypercube n=1024", 1024, fun _rng -> (Gen_basic.hypercube ~dim:10, 0));
        ("star n=257", 257, fun _rng -> (Gen_basic.star ~leaves:256, 0));
      ]
  in
  let rows =
    List.mapi
      (fun i (label, _n, graph) ->
        let m_push =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:Protocol.push ~max_rounds:1_000_000
        in
        let m_quasi =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:Protocol.quasi_push ~max_rounds:1_000_000
        in
        [
          label;
          time_cell m_push;
          time_cell m_quasi;
          Printf.sprintf "%.2f" (Replicate.mean m_quasi /. Replicate.mean m_push);
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "quasirandom push cycles each vertex's neighbor list from a random \
           start: O(log deg) random bits per vertex instead of per round";
          "Doerr-Friedrich-Sauerwald [19]: same O(log n) order on expanders \
           and hypercubes; on the star it removes the coupon-collector \
           factor entirely (ratio ~ 1 / ln n)";
        ]
      ~title:"R3: quasirandom vs fully random push"
      ~claim:
        "Section 2 (related work [19]): quasirandom rumor spreading matches \
         push's broadcast time with exponentially fewer random bits"
      ~header:[ "graph"; "push"; "quasi-push"; "quasi/push" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R4: COBRA walks — branching factor sweep (Section 2; [7], [36])     *)
(* ------------------------------------------------------------------ *)

let r4_run profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let d = max 6 (ilog2 n) in
  let branchings = [ 1; 2; 3; 4 ] in
  let rows =
    List.mapi
      (fun i branching ->
        let graph rng = (Gen_random.random_regular_connected rng ~n ~d, 0) in
        let m =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:(Protocol.Cobra { branching })
            ~max_rounds:(200 * n)
        in
        [
          string_of_int branching;
          time_cell m;
          Printf.sprintf "%.2f" (Replicate.mean m /. log (float_of_int n));
        ])
      branchings
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf "random %d-regular, n = %d; branching 1 is a plain \
                          random walk (cover time Theta(n log n))" d n;
          "Berenbrink-Giakkoupis-Kling [7]: branching 2 covers regular \
           expanders in O(log n) rounds — the T / ln n column collapses from \
           ~n to a small constant as soon as branching exceeds 1";
        ]
      ~title:"R4: COBRA walk cover time vs branching factor"
      ~claim:
        "Section 2 (related work [7], [36]): coalescing-branching walks with \
         branching >= 2 cover regular expanders exponentially faster than a \
         single walk"
      ~header:[ "branching"; "cover time"; "T / ln n" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R5: the frog model vs the paper's agent protocols (Section 2; [3])  *)
(* ------------------------------------------------------------------ *)

let r5_run profile ~seed =
  let families =
    let n = pick profile ~quick:1024 ~full:4096 in
    let d = max 6 (ilog2 n) in
    let side = pick profile ~quick:24 ~full:48 in
    [
      ( Printf.sprintf "random %d-regular n=%d" d n,
        (fun rng -> (Gen_random.random_regular_connected rng ~n ~d, 0)),
        100 * n );
      ( Printf.sprintf "torus %dx%d" side side,
        (fun _rng -> (Gen_basic.torus ~rows:side ~cols:side, 0)),
        500 * side * side );
    ]
  in
  let specs =
    [
      Protocol.frog ();
      Protocol.Visit_exchange
        { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_off };
      Protocol.Meet_exchange
        { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_auto };
    ]
  in
  let rows =
    List.mapi
      (fun i (label, graph, cap) ->
        let cells =
          List.mapi
            (fun j spec ->
              let m =
                measure_cell ~seed:(cell_seed seed i j) ~reps:(reps profile) ~graph
                  ~spec ~max_rounds:cap
              in
              time_cell m)
            specs
        in
        label :: cells)
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "all three processes start one agent per vertex; they differ in \
           who moves and who stores: frogs sleep until visited, \
           visit-exchange moves everyone and stores at vertices, \
           meet-exchange moves everyone and stores only at agents";
        ]
      ~title:"R5: frog model vs visit-exchange vs meet-exchange"
      ~claim:
        "Section 2 (related work [3], [29], [40]): the frog model is the \
         sleeping-agent sibling of the paper's protocols"
      ~header:[ "graph"; "frog"; "visit-exchange"; "meet-exchange" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R6: push-pull vs the conductance bound (Section 2; [11])            *)
(* ------------------------------------------------------------------ *)

let r6_run profile ~seed =
  let families =
    [
      ("complete n=128", Gen_basic.complete 128, 0);
      ("hypercube n=256", Gen_basic.hypercube ~dim:8, 0);
      ("torus 12x12", Gen_basic.torus ~rows:12 ~cols:12, 0);
      ("necklace 16x8", Gen_basic.necklace ~cliques:16 ~clique_size:8, 0);
      ( "double star n=130",
        (Gen_paper.double_star ~leaves_per_star:64).Gen_paper.ds_graph,
        2 );
      ("cycle n=128", Gen_basic.cycle 128, 0);
    ]
  in
  let rows =
    List.mapi
      (fun i (label, g, source) ->
        let n = Graph.n g in
        let phi = Rumor_graph.Spectral.conductance_sweep ~iterations:2000 g in
        let bound = log (float_of_int n) /. phi in
        let m =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile)
            ~graph:(fun _rng -> (g, source))
            ~spec:Protocol.push_pull ~max_rounds:(1000 * n)
        in
        let t = Replicate.mean m in
        [
          label;
          time_cell m;
          Printf.sprintf "%.4f" phi;
          Printf.sprintf "%.0f" bound;
          Printf.sprintf "%.2f" (t /. bound);
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "phi is the sweep-cut conductance estimate (exact on the \
           bottleneck families); the bound is (1/phi) ln n";
          "Chierichetti et al. [11]: T_ppull = O(phi^-1 log n) — the last \
           column must stay bounded by a constant across four orders of \
           magnitude of phi";
        ]
      ~title:"R6: push-pull against the conductance bound"
      ~claim:
        "Section 2 (related work [11]): push-pull completes in O(phi^-1 log \
         n) rounds on any graph with conductance phi"
      ~header:[ "graph"; "push-pull"; "phi"; "ln n / phi"; "T*phi/ln n" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R7: meet-exchange vs the exact meeting time (Section 2; [16])       *)
(* ------------------------------------------------------------------ *)

let r7_run profile ~seed =
  let families =
    [
      ("complete n=24", Gen_basic.complete 24, false);
      ("cycle n=25", Gen_basic.cycle 25, false);
      ("torus 5x5", Gen_basic.torus ~rows:5 ~cols:5, false);
      ("lollipop 12+12", Gen_basic.lollipop ~clique_size:12 ~tail_len:12, false);
      ("star n=25 (lazy)", Gen_basic.star ~leaves:24, true);
    ]
  in
  let reps = reps profile in
  let rows =
    List.mapi
      (fun i (label, g, lazy_walk) ->
        let n = Graph.n g in
        let meeting = Rumor_graph.Hitting.max_meeting_time ~lazy_walk g in
        (* two agents: the regime of the [16] bound *)
        let master = Rng.of_int (cell_seed seed i 0) in
        let stats = Stats.create () in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let r =
            P.Engine.meet_exchange ~lazy_walk rng g ~source:0
              ~agents:(Placement.Stationary 2)
              ~max_rounds:(int_of_float (2000.0 *. meeting))
              ()
          in
          match r.P.Run_result.broadcast_time with
          | Some t -> Stats.add_int stats t
          | None -> ()
        done;
        let t = Stats.mean stats in
        [
          label;
          Printf.sprintf "%.1f" t;
          Printf.sprintf "%.1f" meeting;
          Printf.sprintf "%.0f" (meeting *. log (float_of_int n));
          Printf.sprintf "%.2f" (t /. (meeting *. log (float_of_int n)));
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "M is the exact maximum expected meeting time of two walks, \
           computed by solving the product-chain linear system \
           (Rumor_graph.Hitting); T is measured with exactly 2 agents";
          "Dimitriou-Nikoletseas-Spirakis [16]: T_meetx = O(M log n), and \
           the bound is tight on some graphs — the last column stays below \
           a small constant";
        ]
      ~title:"R7: meet-exchange (2 agents) vs the exact meeting time"
      ~claim:
        "Section 2 (related work [16]): the meet-exchange broadcast time is \
         at most O(log n) times the meeting time of two random walks"
      ~header:[ "graph"; "T_meetx"; "M (exact)"; "M ln n"; "T / (M ln n)" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R8: a stream of rumors over one agent population (Section 1)        *)
(* ------------------------------------------------------------------ *)

let r8_run profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let d = max 6 (ilog2 n) in
  let reps = reps profile in
  let rumor_count = 32 in
  let gap_between = 5 in
  let master = Rng.of_int (cell_seed seed 0 0) in
  let stream_stats = Stats.create () in
  let single_stats = Stats.create () in
  for _ = 1 to reps do
    let rng = Rng.split master in
    let g = Gen_random.random_regular_connected rng ~n ~d in
    (* a stream: rumor i injected at round 5i from a rotating source *)
    let injections =
      Array.init rumor_count (fun i ->
          {
            P.Multi_rumor.rumor_source = i * 7 mod n;
            start_round = i * gap_between;
          })
    in
    let r =
      P.Multi_rumor.run rng g ~injections ~agents:(Placement.Linear alpha)
        ~max_rounds:100_000
    in
    Array.iter
      (fun t -> if t < max_int then Stats.add_int stream_stats t)
      r.P.Multi_rumor.per_rumor_time;
    (* baseline: one isolated rumor on the same graph *)
    let b =
      P.Engine.visit_exchange rng g ~source:0 ~agents:(Placement.Linear alpha)
        ~max_rounds:100_000 ()
    in
    Stats.add_int single_stats (P.Run_result.time_exn b)
  done;
  let rows =
    [
      [
        Printf.sprintf "%d rumors, one every %d rounds" rumor_count gap_between;
        Printf.sprintf "%.1f" (Stats.mean stream_stats);
        Printf.sprintf "%.1f" (Stats.max_value stream_stats);
      ];
      [
        "single rumor (baseline)";
        Printf.sprintf "%.1f" (Stats.mean single_stats);
        Printf.sprintf "%.1f" (Stats.max_value single_stats);
      ];
    ]
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf "random %d-regular, n = %d, |A| = n shared by all rumors" d n;
          "per-rumor broadcast time is measured from each rumor's injection \
           round; matching the single-rumor baseline shows rumors ride the \
           same walks without slowing each other down — the paper's Section \
           1 motivation for stationary agent starts";
        ]
      ~title:"R8: a stream of rumors over one shared agent population"
      ~claim:
        "Section 1: \"several pieces of information are generated frequently \
         and distributed in parallel over time by the same set of agents\""
      ~header:[ "workload"; "mean per-rumor time"; "max" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A8: continuous vs synchronized meet-exchange ([33], [34])           *)
(* ------------------------------------------------------------------ *)

let a8_run profile ~seed =
  let reps = reps profile in
  let n = pick profile ~quick:256 ~full:1024 in
  let families =
    [
      ("star (bipartite)", (fun _rng -> (Gen_basic.star ~leaves:(n - 1), 0)), true);
      ( "random regular",
        (fun rng ->
          (Gen_random.random_regular_connected rng ~n ~d:(max 6 (ilog2 n)), 0)),
        false );
    ]
  in
  let rows =
    List.mapi
      (fun i (label, graph, bipartite) ->
        let master = Rng.of_int (cell_seed seed i 0) in
        let cont = Stats.create () in
        let disc = Stats.create () in
        let disc_nonlazy_completed = ref 0 in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let g, source = graph rng in
          (* ~lazy_walk:false on purpose: A8 studies the pure continuous
             process, where parity needs no lazy fix. *)
          (match
             (P.Async_engine.meet_exchange ~lazy_walk:false rng g ~source
                ~agents:(Placement.Linear alpha) ~max_time:1e6)
               .P.Async_meet_exchange.broadcast_time
           with
          | Some t -> Stats.add cont t
          | None -> ());
          let d =
            P.Engine.meet_exchange ~lazy_walk:true rng g ~source
              ~agents:(Placement.Linear alpha) ~max_rounds:100_000 ()
          in
          (match d.P.Run_result.broadcast_time with
          | Some t -> Stats.add_int disc t
          | None -> ());
          let nl =
            P.Engine.meet_exchange ~lazy_walk:false rng g ~source
              ~agents:(Placement.Linear alpha) ~max_rounds:2000 ()
          in
          if nl.P.Run_result.broadcast_time <> None then incr disc_nonlazy_completed
        done;
        [
          label;
          Printf.sprintf "%.1f" (Stats.mean cont);
          Printf.sprintf "%.1f" (Stats.mean disc);
          Printf.sprintf "%d/%d" !disc_nonlazy_completed reps;
          (if bipartite then "parity trap" else "-");
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "continuous time: each agent moves at the rings of a unit-rate \
           Poisson clock (the [33]/[34] model); one time unit = one expected \
           move per agent, comparable to a synchronous round";
          "on bipartite graphs the synchronized non-lazy process deadlocks \
           in parity classes; continuous time needs no laziness at all";
        ]
      ~title:"A8: continuous-time vs synchronized meet-exchange"
      ~claim:
        "Section 2 ([33], [34]) studies meet-exchange in continuous time; \
         the paper's lazy-walk fix (Section 3) exists only because of \
         synchronized rounds"
      ~header:
        [ "graph"; "continuous"; "discrete (lazy)"; "non-lazy done"; "remark" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A9: sync/async push agree to a constant (Section 2, [41])           *)
(* ------------------------------------------------------------------ *)

(* The DES engine's end-to-end sanity gate.  Sauerwald [41] shows
   asynchronous push matches synchronous push asymptotically on regular
   graphs, and both are Theta(log n) on G(n,p) above the connectivity
   threshold — so the mean async/sync ratio must sit inside a fixed
   constant band.  Both columns go through Protocol/measure_cell, so the
   async column runs on Async_engine's calendar-queue/batched-clock path
   and the verdict column doubles as a Theorem-level regression check on
   the engine itself. *)
let a9_run profile ~seed =
  let ns = pick profile ~quick:[ 256; 512 ] ~full:[ 512; 1024; 2048; 4096 ] in
  let reps = reps profile in
  let lo = 1.0 /. 3.0 and hi = 3.0 in
  (* p = 2 ln n / n is comfortably above the ln n / n threshold; resample
     the rare disconnected draw like random_regular_connected does *)
  let connected_er rng ~n ~p =
    let rec go () =
      let g = Gen_random.erdos_renyi rng ~n ~p in
      if Rumor_graph.Algo.is_connected g then g else go ()
    in
    go ()
  in
  let models =
    [
      ( "G(n,p)",
        fun n ->
          let p = 2.0 *. log (float_of_int n) /. float_of_int n in
          fun rng -> (connected_er rng ~n ~p, 0) );
      ( "random regular",
        fun n ->
          let d = max 6 (ilog2 n) in
          fun rng -> (Gen_random.random_regular_connected rng ~n ~d, 0) );
    ]
  in
  let rows =
    List.concat
      (List.mapi
         (fun mi (model, graph_of_n) ->
           List.mapi
             (fun ni n ->
               let i = (mi * List.length ns) + ni in
               let graph = graph_of_n n in
               let m_sync =
                 measure_cell ~seed:(cell_seed seed i 0) ~reps ~graph
                   ~spec:Protocol.push ~max_rounds:100_000
               in
               let m_async =
                 measure_cell ~seed:(cell_seed seed i 1) ~reps ~graph
                   ~spec:Protocol.async_push ~max_rounds:100_000
               in
               let ratio = Replicate.mean m_async /. Replicate.mean m_sync in
               [
                 model;
                 string_of_int n;
                 time_cell m_sync;
                 time_cell m_async;
                 Printf.sprintf "%.2f" ratio;
                 (if ratio >= lo && ratio <= hi then "ok" else "FAIL");
               ])
             ns)
         models)
  in
  [
    Table.make
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right;
        ]
      ~notes:
        [
          "async push times are continuous and rounded up to integer marks \
           by to_run_result; one time unit = one expected clock ring per \
           vertex, directly comparable to a synchronous round";
          Printf.sprintf
            "verdict is ok iff the mean async/sync ratio lies in [%.2f, %.2f] \
             — the constant band the asymptotic agreement predicts" lo hi;
          "the async column runs on the calendar-queue DES engine \
           (Async_engine), making this a Theorem-level engine check";
        ]
      ~title:"A9: sync vs async push on G(n,p) and random regular"
      ~claim:
        "Section 2 ([41]): asynchronous push completes within a constant \
         factor of synchronous push on G(n,p) and random-regular graphs"
      ~header:[ "graph"; "n"; "sync push"; "async push"; "async/sync"; "verdict" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A10: dense vs sparse walker representations agree distributionally  *)
(* ------------------------------------------------------------------ *)

(* The sparse-walker engine's end-to-end sanity gate.  Count-compressed
   occupancy is exchangeable with per-agent positions up to informed
   status, so the broadcast-time distribution must be the same law; the
   representations only reshuffle which walker takes which step.  The
   finite-sample analogue: paired dense/sparse cells on the same seeds
   must have mean broadcast times within a fixed constant band.  We use
   the golden ratio phi as the (generous) band edge — any representation
   bug (mass leak, lost witness, wrong self-loop slot) blows far past
   it, while honest sampling noise at these reps sits well inside. *)
let a10_run profile ~seed =
  let n = pick profile ~quick:256 ~full:1024 in
  let reps = reps profile in
  let seeds_per_cell = 3 in
  let phi = 1.618033988749895 in
  let lo = 1.0 /. phi and hi = phi in
  let connected_er rng ~n ~p =
    let rec go () =
      let g = Gen_random.erdos_renyi rng ~n ~p in
      if Rumor_graph.Algo.is_connected g then g else go ()
    in
    go ()
  in
  let side = int_of_float (Float.round (sqrt (float_of_int n))) in
  let families =
    [
      ( "complete",
        let g = Gen_basic.complete n in
        fun _rng -> (g, 0) );
      ( Printf.sprintf "torus %dx%d" side side,
        let g = Gen_basic.torus ~rows:side ~cols:side in
        fun _rng -> (g, 0) );
      ( "G(n,p)",
        let p = 2.0 *. log (float_of_int n) /. float_of_int n in
        fun rng -> (connected_er rng ~n ~p, 0) );
      ( "random regular",
        let d = max 6 (ilog2 n) in
        fun rng -> (Gen_random.random_regular_connected rng ~n ~d, 0) );
    ]
  in
  let specs =
    [
      ("visit-exchange", vx);
      ("meet-exchange", mx);
      ("async-meet-exchange", Protocol.async_meet_exchange ~alpha ());
    ]
  in
  (* Both columns run the same kernels; only [walkers] differs.  The same
     cell seed drives the dense and sparse measurement of a pair, so the
     comparison is paired: same graphs, same placements, independent walk
     randomness past the divergence point. *)
  let measure_walkers ~walkers ~seed ~graph ~spec =
    Replicate.broadcast_times ?sink:!metrics_sink ~jobs:!current_jobs
      ?trace:!current_trace ~walkers ~seed ~reps ~graph ~spec
      ~max_rounds:(100 * n) ()
  in
  let rows =
    List.concat
      (List.mapi
         (fun fi (family, graph) ->
           List.mapi
             (fun si (sname, spec) ->
               let i = (fi * List.length specs) + si in
               let mean_over walkers =
                 let acc = ref 0.0 in
                 for s = 0 to seeds_per_cell - 1 do
                   let m =
                     measure_walkers ~walkers ~seed:(cell_seed seed i s) ~graph
                       ~spec
                   in
                   acc := !acc +. Replicate.mean m
                 done;
                 !acc /. float_of_int seeds_per_cell
               in
               let dense = mean_over Protocol.Dense in
               let sparse = mean_over Protocol.Sparse in
               let ratio = sparse /. dense in
               [
                 family;
                 sname;
                 Printf.sprintf "%.1f" dense;
                 Printf.sprintf "%.1f" sparse;
                 Printf.sprintf "%.2f" ratio;
                 (if ratio >= lo && ratio <= hi then "ok" else "FAIL");
               ])
             specs)
         families)
  in
  [
    Table.make
      ~aligns:
        [
          Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right;
        ]
      ~notes:
        [
          Printf.sprintf
            "n = %d, %d base seeds x %d replications per cell; both columns \
             run the engine kernels, dense per-agent positions vs \
             count-compressed per-vertex occupancy (async: per-agent \
             clocks vs one aggregate clock over a walker-slot array)"
            n seeds_per_cell reps;
          Printf.sprintf
            "verdict is ok iff the mean sparse/dense broadcast-time ratio \
             lies in [%.3f, %.3f] (the golden-ratio band); the \
             representations sample the same process, so only a kernel bug \
             moves the mean" lo hi;
          "sparse runs are seed-deterministic but not bit-identical to \
           dense — this distributional gate is the contract (see \
           Sparse_walkers)";
        ]
      ~title:"A10: dense vs sparse walker distributional gate"
      ~claim:
        "Count-compressed occupancy kernels (Sparse_walkers, and the \
         slot-array kernel of continuous-time meet-exchange) simulate the \
         same visit-/meet-exchange processes as the per-agent dense \
         kernels: broadcast-time means agree within a constant band on \
         every graph family"
      ~header:[ "graph"; "protocol"; "dense"; "sparse"; "sparse/dense"; "verdict" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R9: social-network models — push-pull beats push ([12], [17])       *)
(* ------------------------------------------------------------------ *)

let r9_run profile ~seed =
  let ns = pick profile ~quick:[ 512; 1024; 2048 ] ~full:[ 512; 1024; 2048; 4096; 8192 ] in
  let m = 4 in
  let rows =
    List.mapi
      (fun i n ->
        let graph rng = (Gen_random.preferential_attachment rng ~n ~m, 0) in
        let m_push =
          measure_cell ~seed:(cell_seed seed i 0) ~reps:(reps profile) ~graph
            ~spec:Protocol.push ~max_rounds:(100 * n)
        in
        let m_ppull =
          measure_cell ~seed:(cell_seed seed i 1) ~reps:(reps profile) ~graph
            ~spec:Protocol.push_pull ~max_rounds:(100 * n)
        in
        let m_vx =
          measure_cell ~seed:(cell_seed seed i 2) ~reps:(reps profile) ~graph
            ~spec:vx ~max_rounds:(100 * n)
        in
        [
          string_of_int n;
          time_cell m_push;
          time_cell m_ppull;
          Printf.sprintf "%.2f" (Replicate.mean m_push /. Replicate.mean m_ppull);
          time_cell m_vx;
        ])
      ns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf
            "Barabasi-Albert preferential attachment, m = %d edges per new \
             vertex (power-law degrees)" m;
          "Chierichetti-Lattanzi-Panconesi [12] and Doerr-Fouz-Friedrich \
           [17]: push-pull is fast (even sublogarithmic) on \
           preferential-attachment graphs while push pays for the hubs' \
           coupon collection — the push/push-pull ratio should grow with n";
        ]
      ~title:"R9: push vs push-pull on preferential-attachment graphs"
      ~claim:
        "Section 1/2 (related work [12], [17]): push-pull is significantly \
         faster than push on social-network models"
      ~header:[ "n"; "push"; "push-pull"; "push/ppull"; "visit-exchange" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "E1"; title = "star"; paper_ref = "Fig 1(a), Lemma 2"; run = e1_run };
    { id = "E2"; title = "double star"; paper_ref = "Fig 1(b), Lemma 3"; run = e2_run };
    { id = "E3"; title = "heavy binary tree"; paper_ref = "Fig 1(c), Lemma 4"; run = e3_run };
    { id = "E4"; title = "Siamese heavy trees"; paper_ref = "Fig 1(d), Lemma 8"; run = e4_run };
    { id = "E5"; title = "cycle of stars of cliques"; paper_ref = "Fig 1(e), Lemma 9"; run = e5_run };
    { id = "E6"; title = "push ~ visit-exchange on regular graphs"; paper_ref = "Theorem 1 (10, 19)"; run = e6_run };
    { id = "E7"; title = "visit-exchange vs meet-exchange"; paper_ref = "Theorem 23"; run = e7_run };
    { id = "E8"; title = "logarithmic lower bounds"; paper_ref = "Theorems 24, 25"; run = e8_run };
    { id = "E9"; title = "coupling invariants"; paper_ref = "Section 5, Lemmas 13/14"; run = e9_run };
    { id = "E10"; title = "push-pull + visit-exchange combination"; paper_ref = "Section 1"; run = e10_run };
    { id = "A1"; title = "agent density ablation"; paper_ref = "Section 9"; run = a1_run };
    { id = "A2"; title = "lazy walk ablation"; paper_ref = "Section 3"; run = a2_run };
    { id = "A3"; title = "placement ablation"; paper_ref = "Section 1"; run = a3_run };
    { id = "A4"; title = "bandwidth fairness ablation"; paper_ref = "Section 1"; run = a4_run };
    { id = "A5"; title = "sync vs async rumor spreading"; paper_ref = "Section 2, [41]"; run = a5_run };
    { id = "A6"; title = "dynamic agents under churn"; paper_ref = "Section 9"; run = a6_run };
    { id = "A7"; title = "push under transmission failures"; paper_ref = "Lemma 4 via [22]"; run = a7_run };
    { id = "A8"; title = "continuous-time meet-exchange"; paper_ref = "Section 2, [33], [34]"; run = a8_run };
    { id = "A9"; title = "sync vs async push constant-factor gate"; paper_ref = "Section 2, [41]"; run = a9_run };
    { id = "A10"; title = "dense vs sparse walker distributional gate"; paper_ref = "Sections 3, 9"; run = a10_run };
    { id = "R1"; title = "sub-linear agents, random regular"; paper_ref = "Section 9, [14]"; run = r1_run };
    { id = "R2"; title = "sub-linear agents, 2-d torus"; paper_ref = "Section 2, [39]"; run = r2_run };
    { id = "R3"; title = "quasirandom push"; paper_ref = "Section 2, [19]"; run = r3_run };
    { id = "R4"; title = "COBRA walk branching"; paper_ref = "Section 2, [7], [36]"; run = r4_run };
    { id = "R5"; title = "frog model comparison"; paper_ref = "Section 2, [3], [40]"; run = r5_run };
    { id = "R6"; title = "push-pull vs conductance bound"; paper_ref = "Section 2, [11]"; run = r6_run };
    { id = "R7"; title = "meet-exchange vs exact meeting time"; paper_ref = "Section 2, [16]"; run = r7_run };
    { id = "R8"; title = "multi-rumor stream"; paper_ref = "Section 1"; run = r8_run };
    { id = "R9"; title = "social-network models"; paper_ref = "Section 2, [12], [17]"; run = r9_run };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = id) all

let run_all ?ids ?metrics ?trace ?(jobs = 1) ?(walkers = Protocol.Dense)
    profile ~seed =
  let selected =
    match ids with
    | None -> all
    | Some wanted ->
        List.filter_map
          (fun id ->
            match find id with
            | Some e -> Some e
            | None -> invalid_arg (Printf.sprintf "Experiments.run_all: unknown id %s" id))
          wanted
  in
  let run_one e =
    let go () =
      match metrics with
      | None -> e.run profile ~seed
      | Some sink ->
          (* label each record with the experiment id, which is more useful
             downstream than the anonymous per-cell graph closures *)
          with_metrics_sink
            (fun r -> sink { r with Rumor_obs.Run_record.graph = e.id })
            (fun () -> e.run profile ~seed)
    in
    (* one span per experiment, so the trace timeline reads as E1, E2, ... *)
    Rumor_obs.Trace.with_span trace e.id go
  in
  let with_opt_trace f =
    match trace with None -> f () | Some tr -> with_trace tr f
  in
  with_opt_trace (fun () ->
      with_walkers walkers (fun () ->
          with_jobs jobs (fun () -> List.map (fun e -> (e, run_one e)) selected)))
