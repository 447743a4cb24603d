module Rng = Rumor_prob.Rng

let erdos_renyi ?trace rng ~n ~p =
  if n < 1 then invalid_arg "Gen_random.erdos_renyi: n < 1";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Gen_random.erdos_renyi: bad p";
  let total = n * (n - 1) / 2 in
  let b =
    Graph.Builder.create ?trace
      ~capacity:(if p >= 1.0 then total else 1 + int_of_float (p *. float_of_int total))
      ~n ()
  in
  if p >= 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        Graph.Builder.add_edge b u v
      done
    done
  else if p > 0.0 then begin
    (* Iterate over the n(n-1)/2 potential edges with geometric skips: the
       index of the next present edge is current + Geometric(p). *)
    let log1mp = log1p (-.p) in
    let idx = ref (-1) in
    (* The linear index is monotone, so the (row, col) decode keeps a running
       row cursor instead of rescanning from row 0 per edge — the whole sweep
       is O(n + m), which is what makes p ~ ln n / n at n = 10^7 feasible. *)
    let row = ref 0 in
    let row_start = ref 0 in
    let continue = ref true in
    while !continue do
      let u = 1.0 -. Rng.float rng 1.0 in
      let gap = int_of_float (ceil (log u /. log1mp)) in
      let gap = if gap < 1 then 1 else gap in
      idx := !idx + gap;
      if !idx >= total then continue := false
      else begin
        while !idx - !row_start >= n - 1 - !row do
          row_start := !row_start + (n - 1 - !row);
          incr row
        done;
        Graph.Builder.add_edge b !row (!row + 1 + (!idx - !row_start))
      end
    done
  end;
  Graph.Builder.finish b

let gnm ?trace rng ~n ~m =
  if n < 1 then invalid_arg "Gen_random.gnm: n < 1";
  let max_m = n * (n - 1) / 2 in
  if m < 0 || m > max_m then invalid_arg "Gen_random.gnm: m out of range";
  let seen = Hashtbl.create (2 * m) in
  let b = Graph.Builder.create ?trace ~capacity:(max 1 m) ~n () in
  let count = ref 0 in
  while !count < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = (min u v * n) + max u v in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        Graph.Builder.add_edge b (min u v) (max u v);
        incr count
      end
    end
  done;
  Graph.Builder.finish b

let complete_builder ?trace n =
  let b = Graph.Builder.create ?trace ~capacity:(n * (n - 1) / 2) ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.finish b

(* Configuration-model pairing followed by defect repair: loops and parallel
   edges left by the random pairing are removed by random degree-preserving
   edge switches.  This is the standard practical generator; the output
   distribution is not exactly uniform over d-regular graphs but is
   contiguity-equivalent for the structural properties measured here. *)
let rec random_regular ?trace rng ~n ~d =
  if d <= 0 || d >= n then invalid_arg "Gen_random.random_regular: need 0 < d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen_random.random_regular: n*d must be even";
  if d = n - 1 then
    (* the complete graph is the unique (n-1)-regular graph on n vertices,
       and the switch repair cannot operate there *)
    complete_builder ?trace n
  else if 2 * d > n then
    (* dense regime: sample the (n-1-d)-regular complement instead, where
       the pairing model is simple with decent probability *)
    complement ?trace (random_regular ?trace rng ~n ~d:(n - 1 - d))
  else random_regular_sparse ?trace rng ~n ~d

and complement ?trace g =
  let n = Graph.n g in
  let b = Graph.Builder.create ?trace ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if not (Graph.mem_edge g u v) then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.finish b

and random_regular_sparse ?trace rng ~n ~d =
  let attempt () =
    let stubs = Array.make (n * d) 0 in
    let pos = ref 0 in
    for v = 0 to n - 1 do
      for _ = 1 to d do
        stubs.(!pos) <- v;
        incr pos
      done
    done;
    Rng.shuffle rng stubs;
    let half = n * d / 2 in
    (* edge list as parallel arrays so endpoints can be rewired in place *)
    let ea = Array.make half 0 and eb = Array.make half 0 in
    for i = 0 to half - 1 do
      ea.(i) <- stubs.(2 * i);
      eb.(i) <- stubs.((2 * i) + 1)
    done;
    let key u v = if u < v then (u * n) + v else (v * n) + u in
    (* Seen-set of healthy edges: an open-addressing table of edge indices
       (-1 = empty) with linear probing, keyed by [key ea.(i) eb.(i)].  The
       key is recomputed from the edge arrays, so an index must leave the
       table before its edge is rewired.  Load factor <= 1/2. *)
    let bits =
      let b = ref 1 in
      while 1 lsl !b < 2 * half do
        incr b
      done;
      !b
    in
    let mask = (1 lsl bits) - 1 in
    let table = Array.make (mask + 1) (-1) in
    (* Fibonacci hashing: the top [bits] bits of a 63-bit product *)
    let home k = (k * 0x9E3779B97F4A7C1) lsr (63 - bits) in
    (* slot holding key [k], or the empty slot ending its probe run *)
    let probe k =
      let p = ref (home k) in
      while
        let i = table.(!p) in
        i >= 0 && key ea.(i) eb.(i) <> k
      do
        p := (!p + 1) land mask
      done;
      !p
    in
    let find k = table.(probe k) in
    let add k i = table.(probe k) <- i in
    (* backward-shift delete: pull later members of the probe run into the
       hole unless that would move one before its home slot *)
    let remove k =
      let hole = ref (probe k) in
      if table.(!hole) >= 0 then begin
        let j = ref ((!hole + 1) land mask) in
        while table.(!j) >= 0 do
          let e = table.(!j) in
          let h = home (key ea.(e) eb.(e)) in
          let stays =
            if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
          in
          if not stays then begin
            table.(!hole) <- e;
            hole := !j
          end;
          j := (!j + 1) land mask
        done;
        table.(!hole) <- -1
      end
    in
    (* defective pairs are counted as they are found; the switch budget uses
       that running count rather than an O(defects) List.length pass *)
    let bad = ref [] in
    let nbad = ref 0 in
    for i = 0 to half - 1 do
      let u = ea.(i) and v = eb.(i) in
      if u = v || find (key u v) >= 0 then begin
        bad := i :: !bad;
        incr nbad
      end
      else add (key u v) i
    done;
    (* Repair each defective pair by switching with a random healthy edge. *)
    let switches = ref 0 in
    let max_switches = (200 * (!nbad + 1)) + 1000 in
    let rec repair defective =
      match defective with
      | [] -> true
      | i :: rest ->
          if !switches > max_switches then false
          else begin
            incr switches;
            let j = Rng.int rng half in
            let u = ea.(i) and v = eb.(i) in
            let x = ea.(j) and y = eb.(j) in
            (* propose (u,x) and (v,y); healthy iff simple and fresh *)
            let ok =
              j <> i && u <> x && v <> y
              && find (key u x) < 0
              && find (key v y) < 0
              && key u x <> key v y
              && find (key x y) = j
            in
            if ok then begin
              remove (key x y);
              ea.(i) <- u;
              eb.(i) <- x;
              ea.(j) <- v;
              eb.(j) <- y;
              add (key u x) i;
              add (key v y) j;
              repair rest
            end
            else repair defective
          end
    in
    if repair !bad then begin
      let b = Graph.Builder.create ?trace ~capacity:half ~n () in
      for i = 0 to half - 1 do
        Graph.Builder.add_edge b ea.(i) eb.(i)
      done;
      Some (Graph.Builder.finish b)
    end
    else None
  in
  let rec loop tries =
    if tries > 100 then failwith "Gen_random.random_regular: repair failed repeatedly"
    else match attempt () with Some g -> g | None -> loop (tries + 1)
  in
  loop 0

let preferential_attachment ?trace rng ~n ~m =
  if m < 1 then invalid_arg "Gen_random.preferential_attachment: m < 1";
  if n <= m then invalid_arg "Gen_random.preferential_attachment: need n > m";
  (* repeated-endpoints trick: sampling a uniform element of the flat edge-
     endpoint array is exactly degree-proportional sampling *)
  let seed_edges = m * (m + 1) / 2 in
  let total_edges = seed_edges + (m * (n - m - 1)) in
  let capacity = 2 * total_edges in
  let endpoints = Array.make capacity 0 in
  let endpoint_count = ref 0 in
  let b = Graph.Builder.create ?trace ~capacity:total_edges ~n () in
  let add_edge u v =
    Graph.Builder.add_edge b u v;
    endpoints.(!endpoint_count) <- u;
    endpoints.(!endpoint_count + 1) <- v;
    endpoint_count := !endpoint_count + 2
  in
  for u = 0 to m do
    for v = u + 1 to m do
      add_edge u v
    done
  done;
  for v = m + 1 to n - 1 do
    (* choose m distinct targets against the state before v's own edges *)
    let snapshot = !endpoint_count in
    let targets = Hashtbl.create m in
    while Hashtbl.length targets < m do
      let u = endpoints.(Rng.int rng snapshot) in
      if not (Hashtbl.mem targets u) then Hashtbl.add targets u ()
    done;
    Hashtbl.iter (fun u () -> add_edge u v) targets
  done;
  Graph.Builder.finish b

let random_regular_connected ?trace rng ~n ~d =
  let rec loop tries =
    if tries > 100 then
      failwith "Gen_random.random_regular_connected: no connected sample in 100 tries"
    else
      let g = random_regular ?trace rng ~n ~d in
      if Algo.is_connected g then g else loop (tries + 1)
  in
  loop 0
