(* Span arithmetic over a trace read back with [Rumor_obs.Trace.read_file]:
   nesting (per track, by interval containment), self time, per-name totals
   and per-track busy time inside an enclosing span. *)

module Trace = Rumor_obs.Trace

type span = {
  name : string;
  tid : int;
  start_s : float;
  dur_s : float;
  alloc_w : float;
  self_s : float;
}

(* Timestamps are microseconds from one clock; a child's recomputed end can
   exceed its parent's by float rounding, never by more than this. *)
let eps_s = 1e-7

let stop s = s.start_s +. s.dur_s

let contains outer inner =
  inner.start_s +. eps_s >= outer.start_s && stop inner <= stop outer +. eps_s

let of_events (events : Trace.event list) =
  let raw =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.ph with
        | `Span ->
            Some
              {
                name = e.name;
                tid = e.tid;
                start_s = e.ts_us *. 1e-6;
                dur_s = e.dur_us *. 1e-6;
                alloc_w = e.alloc_w;
                self_s = 0.0;
              }
        | `Instant | `Counter -> None)
      events
  in
  (* per track, parents sort before their children: earlier start first,
     longer span first on a tie *)
  let a = Array.of_list raw in
  Array.stable_sort
    (fun x y ->
      match Int.compare x.tid y.tid with
      | 0 -> (
          match Float.compare x.start_s y.start_s with
          | 0 -> Float.compare y.dur_s x.dur_s
          | c -> c)
      | c -> c)
    a;
  let n = Array.length a in
  let children = Array.make n [] in
  let stack = ref [] in
  for i = 0 to n - 1 do
    let rec unwind () =
      match !stack with
      | top :: rest when a.(top).tid <> a.(i).tid || not (contains a.(top) a.(i)) ->
          stack := rest;
          unwind ()
      | _ -> ()
    in
    unwind ();
    (match !stack with
    | top :: _ -> children.(top) <- a.(i).dur_s :: children.(top)
    | [] -> ());
    stack := i :: !stack
  done;
  Array.mapi (fun i s -> { s with self_s = Arith.self_time ~dur:s.dur_s ~children:children.(i) }) a

let named name spans = List.filter (fun s -> String.equal s.name name) (Array.to_list spans)

let total name spans = List.fold_left (fun acc s -> acc +. s.dur_s) 0.0 (named name spans)

let self_total name spans =
  List.fold_left (fun acc s -> acc +. s.self_s) 0.0 (named name spans)

let alloc_total name spans =
  List.fold_left (fun acc s -> acc +. s.alloc_w) 0.0 (named name spans)

let durations pred spans =
  Array.of_list
    (List.filter_map (fun s -> if pred s.name then Some s.dur_s else None) (Array.to_list spans))

(* Busy time of the [name] spans inside [outer]'s interval, per track, in
   ascending track order; tracks listed in [tracks] but without such spans
   count as idle. *)
let busy_by_track ~name ~outer ~tracks spans =
  let busy = Hashtbl.create 4 in
  List.iter (fun tid -> Hashtbl.replace busy tid 0.0) tracks;
  Array.iter
    (fun s ->
      if String.equal s.name name && contains outer s then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt busy s.tid) in
        Hashtbl.replace busy s.tid (prev +. s.dur_s))
    spans;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.of_seq (Hashtbl.to_seq busy))
