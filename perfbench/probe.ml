(* Layer probes for the traced run: each times one library primitive in a
   tight loop on the workload's own graph or sizes, three times, and keeps
   the median.  Allocation is measured in minor words per call. *)

module Rng = Rumor_prob.Rng
module Alias = Rumor_prob.Alias
module Fenwick = Rumor_prob.Fenwick
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement
module Exp_stream = Rumor_des.Exp_stream
module Calendar_queue = Rumor_des.Calendar_queue
module Clock = Rumor_obs.Clock

type t = {
  rng_ns_per_int : float;
  rng_words_per_int : float;
  alias_ns_per_sample : float;
  placement_ns_per_agent : float;
  placement_words_per_agent : float;
  placement_counts_ns_per_agent : float;
  exp_stream_ns_per_gap : float;
  fenwick_ns_per_find : float;
  fenwick_ns_per_add : float;
  calendar_ns_per_hold : float;
  calendar_words_per_hold : float;
}

let sink = ref 0

(* (ns per op, minor words per op) of [f], which performs [ops] operations *)
let measure ~ops f =
  let once () =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_s () in
    f ();
    let s = Clock.elapsed_s ~since:t0 in
    (s *. 1e9 /. float_of_int ops, (Gc.minor_words () -. w0) /. float_of_int ops)
  in
  let runs = Array.init 3 (fun _ -> once ()) in
  (Arith.median (Array.map fst runs), Arith.median (Array.map snd runs))

let rng ~seed ~bound ~draws =
  let r = Rng.of_int seed in
  measure ~ops:draws (fun () ->
      for _ = 1 to draws do
        sink := !sink + Rng.int r bound
      done)

let alias ~seed graphs ~samples =
  let r = Rng.of_int seed in
  let tables = List.map Placement.stationary_weights graphs in
  let per = max 1 (samples / List.length tables) in
  fst
    (measure ~ops:(per * List.length tables) (fun () ->
         List.iter
           (fun a ->
             for _ = 1 to per do
               sink := !sink + Alias.sample a r
             done)
           tables))

(* every graph of the workload, [reps] placements each *)
let placement ~seed graphs ~place =
  let r = Rng.of_int seed in
  let agents = List.fold_left (fun acc g -> acc + Placement.count Workload.agents g) 0 graphs in
  let reps = max 1 (1_000_000 / agents) in
  measure ~ops:(reps * agents) (fun () ->
      for _ = 1 to reps do
        List.iter (fun g -> sink := !sink + Array.length (place r Workload.agents g)) graphs
      done)

let exp_stream ~seed ~gaps =
  let s = Exp_stream.create (Rng.of_int seed) in
  let acc = ref 0.0 in
  let ns =
    fst
      (measure ~ops:gaps (fun () ->
           for _ = 1 to gaps do
             acc := !acc +. Exp_stream.next s
           done))
  in
  if Float.is_nan !acc then incr sink;
  ns

(* a tree over [n] slots holding one unit each, like one walker per vertex;
   targets and slots are drawn before timing *)
let fenwick ~seed ~n ~ops =
  let r = Rng.of_int seed in
  let t = Fenwick.of_counts (Array.make n 1) in
  let targets = Array.init ops (fun _ -> Rng.int r n) in
  let find, _ =
    measure ~ops (fun () ->
        Array.iter (fun x -> sink := !sink + fst (Fenwick.find t x)) targets)
  in
  (* +1 then -1 on the same slot: the counts stay as they were *)
  let add, _ =
    measure ~ops:(2 * ops) (fun () ->
        Array.iter
          (fun x ->
            Fenwick.add t x 1;
            Fenwick.add t x (-1))
          targets)
  in
  (find, add)

(* the hold model: [pending] events in the queue, each hold pops the
   minimum and pushes it back an Exp(1) gap later *)
let calendar ~seed ~pending ~holds =
  let r = Rng.of_int seed in
  let exp () = -.log (1.0 -. Rng.float r 1.0) in
  let q = Calendar_queue.create () in
  for i = 0 to pending - 1 do
    Calendar_queue.push q (exp ()) i
  done;
  let gaps = Array.init holds (fun _ -> exp ()) in
  let cell = ref 0 in
  measure ~ops:holds (fun () ->
      Array.iter
        (fun gap ->
          let t = Calendar_queue.pop_into q cell in
          Calendar_queue.push q (t +. gap) !cell)
        gaps)

let mean_degree graphs =
  let arcs = List.fold_left (fun acc g -> acc + Graph.arc_count g) 0 graphs in
  let n = List.fold_left (fun acc g -> acc + Graph.n g) 0 graphs in
  max 1 (int_of_float (Float.round (float_of_int arcs /. float_of_int n)))

let run ~seed graphs =
  let n = List.fold_left (fun acc g -> max acc (Graph.n g)) 1 graphs in
  let rng_ns, rng_words = rng ~seed ~bound:(mean_degree graphs) ~draws:2_000_000 in
  let place_ns, place_words = placement ~seed graphs ~place:Placement.place in
  let counts_ns, _ = placement ~seed graphs ~place:Placement.place_counts in
  let find, add = fenwick ~seed ~n ~ops:1_000_000 in
  let hold_ns, hold_words = calendar ~seed ~pending:n ~holds:1_000_000 in
  {
    rng_ns_per_int = rng_ns;
    rng_words_per_int = rng_words;
    alias_ns_per_sample = alias ~seed graphs ~samples:1_000_000;
    placement_ns_per_agent = place_ns;
    placement_words_per_agent = place_words;
    placement_counts_ns_per_agent = counts_ns;
    exp_stream_ns_per_gap = exp_stream ~seed ~gaps:2_000_000;
    fenwick_ns_per_find = find;
    fenwick_ns_per_add = add;
    calendar_ns_per_hold = hold_ns;
    calendar_words_per_hold = hold_words;
  }
