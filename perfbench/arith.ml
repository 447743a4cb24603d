(* The benchmark's own arithmetic: order statistics, the tail-percentile
   rule, per-operation ratios and the operation/failure tally.  Pure
   functions over plain arrays, so perfbench/test can pin every rule. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Arith.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank index of the [p]-th percentile in a sorted sample of [n]:
   the smallest rank r (1-based) with r >= p/100 * n.  The epsilon keeps
   decimal percentiles such as 99.9 from rounding up a whole rank. *)
let rank ~n p =
  let r = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  max 1 (min n r)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Arith.percentile: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Arith.percentile: p outside (0, 100]";
  (sorted xs).(rank ~n p - 1)

let beyond ~n p = n - rank ~n p

let min_beyond = 10

let tail_ladder = [ 99.9; 99.0; 90.0; 75.0 ]

let tail_percentile ~n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) tail_ladder

type timing = { median : float; samples : int; tail : (float * float) option }

let timing xs =
  let n = Array.length xs in
  {
    median = median xs;
    samples = n;
    tail = Option.map (fun p -> (p, percentile xs p)) (tail_percentile ~n);
  }

let per_op ~total ~ops = if ops <= 0 then None else Some (total /. float_of_int ops)

let self_time ~dur ~children =
  Float.max 0.0 (List.fold_left (fun acc c -> acc -. c) dur children)

type tally = { attempted : int; failed : int }

let empty_tally = { attempted = 0; failed = 0 }

let count_op t ~ok =
  { attempted = t.attempted + 1; failed = (if ok then t.failed else t.failed + 1) }

let all_ok t = t.attempted > 0 && t.failed = 0
