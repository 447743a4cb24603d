(* Tests for Rumor_des.Calendar_queue: the calendar must be drain-for-drain
   indistinguishable from the binary heap (Queue_intf's determinism
   contract), on top of the usual scheduler unit tests. *)

module Cal = Rumor_des.Calendar_queue
module Heap = Rumor_des.Event_queue

(* both schedulers implement the shared signature *)
module _ : Rumor_des.Queue_intf.S = Rumor_des.Calendar_queue
module _ : Rumor_des.Queue_intf.S = Rumor_des.Event_queue

let test_empty () =
  let q : int Cal.t = Cal.create () in
  Alcotest.(check bool) "empty" true (Cal.is_empty q);
  Alcotest.(check int) "size 0" 0 (Cal.size q);
  Alcotest.(check bool) "pop none" true (Cal.pop q = None);
  Alcotest.(check bool) "peek none" true (Cal.peek_time q = None);
  let slot = ref 0 in
  Alcotest.(check bool) "pop_into nan" true (Float.is_nan (Cal.pop_into q slot));
  Alcotest.(check int) "slot untouched" 0 !slot

let test_ordering () =
  let q = Cal.create () in
  Cal.push q 3.0 "c";
  Cal.push q 1.0 "a";
  Cal.push q 2.0 "b";
  Alcotest.(check (option (float 1e-9))) "peek earliest" (Some 1.0) (Cal.peek_time q);
  let order = List.init 3 (fun _ -> match Cal.pop q with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "sorted by time" [ "a"; "b"; "c" ] order

let test_fifo_ties () =
  let q = Cal.create () in
  Cal.push q 1.0 "first";
  Cal.push q 1.0 "second";
  Cal.push q 1.0 "third";
  let order = List.init 3 (fun _ -> match Cal.pop q with Some (_, x) -> x | None -> "?") in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ]
    order

let test_push_into_past () =
  let q = Cal.create () in
  Cal.push q 10.0 10;
  Cal.push q 20.0 20;
  Cal.push q 30.0 30;
  (match Cal.pop q with
  | Some (_, 10) -> ()
  | _ -> Alcotest.fail "expected 10 first");
  (* the year cursor has advanced past day 0; a push behind it must rewind *)
  Cal.push q 0.5 0;
  let rest = List.init 3 (fun _ -> match Cal.pop q with Some (_, x) -> x | None -> -1) in
  Alcotest.(check (list int)) "past push drains first" [ 0; 20; 30 ] rest

let test_single_instant_degenerate () =
  (* every event at one time: one bucket takes the whole load across
     resizes; order must still be pure FIFO *)
  let q = Cal.create () in
  for i = 0 to 499 do
    Cal.push q 7.0 i
  done;
  let ok = ref true in
  for i = 0 to 499 do
    match Cal.pop q with
    | Some (t, x) -> if x <> i || Float.compare t 7.0 <> 0 then ok := false
    | None -> ok := false
  done;
  Alcotest.(check bool) "FIFO through resizes" true !ok

let test_nan_rejected () =
  let q = Cal.create () in
  try
    Cal.push q Float.nan ();
    Alcotest.fail "NaN accepted"
  with Invalid_argument _ -> ()

let test_clear () =
  let q = Cal.create () in
  for i = 0 to 99 do
    Cal.push q (float_of_int i) ()
  done;
  Cal.clear q;
  Alcotest.(check bool) "cleared" true (Cal.is_empty q);
  let s = Cal.stats q in
  Alcotest.(check int) "geometry reset" 16 s.Cal.buckets;
  Cal.push q 3.0 ();
  Alcotest.(check (option (float 1e-9))) "usable after clear" (Some 3.0)
    (Cal.peek_time q)

let test_clear_releases_payloads () =
  let q : int array Cal.t = Cal.create () in
  let w = Weak.create 1 in
  Cal.push q 1.0
    (let payload = Array.make 1024 0 in
     Weak.set w 0 (Some payload);
     payload);
  Cal.clear q;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "payload collected after clear" true
    (Option.is_none (Weak.get w 0));
  ignore (Sys.opaque_identity (Cal.size q))

let test_resize_stats () =
  let q = Cal.create () in
  let rng = Rumor_prob.Rng.of_int 17 in
  for i = 0 to 4999 do
    Cal.push q (Rumor_prob.Rng.float rng 1000.0) i
  done;
  let s = Cal.stats q in
  Alcotest.(check bool) "grew past the initial year" true (s.Cal.buckets > 16);
  Alcotest.(check bool) "resized at least once" true (s.Cal.resizes > 0);
  Alcotest.(check bool) "width positive" true (s.Cal.width > 0.0);
  let grow_resizes = s.Cal.resizes in
  for _ = 0 to 4999 do
    ignore (Cal.pop q)
  done;
  let s' = Cal.stats q in
  Alcotest.(check bool) "shrank while draining" true (s'.Cal.resizes > grow_resizes);
  Alcotest.(check bool) "drained" true (Cal.is_empty q)

(* --- heap/calendar equivalence ------------------------------------- *)

let drain_both heap cal ops =
  (* apply the same op stream to both queues; fail on the first
     divergence in pop results (time, payload, or exhaustion) *)
  let id = ref 0 in
  List.for_all
    (fun op ->
      if op < 20 then begin
        let h = Heap.pop heap and c = Cal.pop cal in
        match (h, c) with
        | None, None -> true
        | Some (th, xh), Some (tc, xc) -> Float.compare th tc = 0 && xh = xc
        | _ -> false
      end
      else begin
        (* coarse time grid so FIFO ties are common *)
        let t = float_of_int ((op - 20) mod 11) /. 2.0 in
        incr id;
        Heap.push heap t !id;
        Cal.push cal t !id;
        true
      end)
    ops
  &&
  (* drain the rest in lockstep *)
  let rec finish () =
    match (Heap.pop heap, Cal.pop cal) with
    | None, None -> true
    | Some (th, xh), Some (tc, xc) ->
        Float.compare th tc = 0 && xh = xc && finish ()
    | _ -> false
  in
  finish ()

let prop_heap_calendar_equivalent =
  QCheck.Test.make ~count:300
    ~name:"calendar drains identically to heap (interleaved push/pop, ties)"
    QCheck.(list (int_bound 60))
    (fun ops -> drain_both (Heap.create ()) (Cal.create ()) ops)

let test_des_hold_equivalence () =
  (* the DES access pattern itself: prefill, then pop-and-reschedule with
     exponential gaps, long enough to rotate the year and trigger both
     grow and shrink resizes *)
  let rng = Rumor_prob.Rng.of_int 99 in
  let heap = Heap.create () and cal = Cal.create () in
  for i = 0 to 511 do
    let t = Rumor_prob.Rng.float rng 1.0 in
    Heap.push heap t i;
    Cal.push cal t i
  done;
  let slot_h = ref (-1) and slot_c = ref (-1) in
  for _ = 1 to 20_000 do
    let th = Heap.pop_into heap slot_h in
    let tc = Cal.pop_into cal slot_c in
    if Float.compare th tc <> 0 || !slot_h <> !slot_c then
      Alcotest.failf "hold divergence: heap (%f, %d) vs calendar (%f, %d)" th
        !slot_h tc !slot_c;
    let gap = Rumor_prob.Dist.exponential rng 1.0 in
    Heap.push heap (th +. gap) !slot_h;
    Cal.push cal (tc +. gap) !slot_c
  done;
  Alcotest.(check int) "sizes agree" (Heap.size heap) (Cal.size cal)

(* --- flat slab ------------------------------------------------------- *)

let exp1 rng = Rumor_prob.Dist.exponential rng 1.0

(* Hold in lockstep: pop both queues, compare, push back [gap] later.
   Works for any payload type with a monomorphic equality. *)
let hold_both ~equal heap cal ~gap =
  let h = Heap.pop heap and c = Cal.pop cal in
  match (h, c) with
  | Some (th, xh), Some (tc, xc) ->
      if Float.compare th tc <> 0 || not (equal xh xc) then
        Alcotest.failf "hold divergence at heap time %f, calendar time %f" th tc;
      Heap.push heap (th +. gap) xh;
      Cal.push cal (tc +. gap) xc
  | None, None -> ()
  | _ -> Alcotest.fail "one queue ran dry before the other"

let drain_lockstep ~equal heap cal =
  let rec go () =
    match (Heap.pop heap, Cal.pop cal) with
    | None, None -> ()
    | Some (th, xh), Some (tc, xc) ->
        if Float.compare th tc <> 0 || not (equal xh xc) then
          Alcotest.failf "drain divergence at heap time %f, calendar time %f" th tc;
        go ()
    | _ -> Alcotest.fail "one queue ran dry before the other"
  in
  go ()

let test_front_tuned_width () =
  (* pending Poisson clocks: the front is ~ln(n) times denser than the
     population average, and the width must follow the front (a width
     tuned to the whole population gives width * n ~ 34 here) *)
  let rng = Rumor_prob.Rng.of_int 2024 in
  let q = Cal.create () in
  let n = 100_000 in
  for i = 0 to n - 1 do
    Cal.push q (exp1 rng) i
  done;
  let s = Cal.stats q in
  let per_day = s.Cal.width *. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "width * n = %.2f <= 4" per_day)
    true (per_day <= 4.0)

let test_hold_lockstep_resizes () =
  (* 10^4 pending events: fill (grow resizes), hold, then drain (shrink
     resizes), comparing every pop against the heap *)
  let rng = Rumor_prob.Rng.of_int 31 in
  let heap = Heap.create () and cal = Cal.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    let t = exp1 rng in
    Heap.push heap t i;
    Cal.push cal t i
  done;
  let grown = (Cal.stats cal).Cal.resizes in
  Alcotest.(check bool) "grew" true (grown > 0);
  for _ = 1 to 5 * n do
    hold_both ~equal:Int.equal heap cal ~gap:(exp1 rng)
  done;
  Alcotest.(check int) "holds resize nothing" grown (Cal.stats cal).Cal.resizes;
  drain_lockstep ~equal:Int.equal heap cal;
  Alcotest.(check bool) "shrank" true ((Cal.stats cal).Cal.resizes > grown);
  Alcotest.(check int) "back to the minimum geometry" 16 (Cal.stats cal).Cal.buckets

let test_float_payloads () =
  (* a float payload array is built flat by Array.make; slots must still
     read and write through it correctly across slab growth *)
  let rng = Rumor_prob.Rng.of_int 32 in
  let heap = Heap.create () and cal = Cal.create () in
  for i = 0 to 2_999 do
    let t = exp1 rng in
    Heap.push heap t (float_of_int i +. 0.5);
    Cal.push cal t (float_of_int i +. 0.5)
  done;
  for _ = 1 to 10_000 do
    hold_both ~equal:Float.equal heap cal ~gap:(exp1 rng)
  done;
  drain_lockstep ~equal:Float.equal heap cal

let test_boxed_payloads () =
  let rng = Rumor_prob.Rng.of_int 33 in
  let heap = Heap.create () and cal = Cal.create () in
  for i = 0 to 2_999 do
    let t = Float.round (exp1 rng *. 8.0) in
    (* coarse times: many FIFO ties between boxed payloads *)
    Heap.push heap t (string_of_int i, [ i ]);
    Cal.push cal t (string_of_int i, [ i ])
  done;
  let equal (a, la) (b, lb) = String.equal a b && List.equal Int.equal la lb in
  for _ = 1 to 10_000 do
    hold_both ~equal heap cal ~gap:(Float.round (exp1 rng *. 8.0))
  done;
  drain_lockstep ~equal heap cal

let test_past_after_growth () =
  (* grow the slab and the year well past the initial geometry, advance
     the clock, then push behind the cursor *)
  let rng = Rumor_prob.Rng.of_int 34 in
  let heap = Heap.create () and cal = Cal.create () in
  for i = 0 to 4_999 do
    let t = 100.0 +. exp1 rng in
    Heap.push heap t i;
    Cal.push cal t i
  done;
  for _ = 1 to 2_000 do
    hold_both ~equal:Int.equal heap cal ~gap:(exp1 rng)
  done;
  List.iteri
    (fun k t ->
      Heap.push heap t (-1 - k);
      Cal.push cal t (-1 - k))
    [ 0.0; -5.0; 50.0; 100.0; 0.0; -1e12 ];
  (match Cal.pop cal with
  | Some (t, x) ->
      Alcotest.(check (float 0.0)) "farthest past first" (-1e12) t;
      Alcotest.(check int) "its payload" (-6) x;
      ignore (Heap.pop heap)
  | None -> Alcotest.fail "empty");
  for _ = 1 to 2_000 do
    hold_both ~equal:Int.equal heap cal ~gap:(exp1 rng)
  done;
  drain_lockstep ~equal:Int.equal heap cal

let test_clear_then_reuse () =
  (* a cleared queue orders events exactly like a fresh one, even after
     the old slab had grown and its free list was in use *)
  let rng = Rumor_prob.Rng.of_int 35 in
  let cal = Cal.create () in
  for i = 0 to 3_000 do
    Cal.push cal (exp1 rng) i
  done;
  for _ = 1 to 1_000 do
    ignore (Cal.pop cal)
  done;
  Cal.clear cal;
  let heap = Heap.create () in
  for i = 0 to 999 do
    let t = Float.round (exp1 rng *. 4.0) in
    Heap.push heap t i;
    Cal.push cal t i
  done;
  for _ = 1 to 3_000 do
    hold_both ~equal:Int.equal heap cal ~gap:(Float.round (exp1 rng *. 4.0))
  done;
  drain_lockstep ~equal:Int.equal heap cal

(* Allocation pin: a steady-state hold allocates only the two boxed floats
   at the call boundary (the popped time and the pushed time, 2 words
   each).  The slab, bucket lists and free list allocate nothing. *)
let test_hold_allocation () =
  let rng = Rumor_prob.Rng.of_int 36 in
  let q : int Cal.t = Cal.create () in
  for i = 0 to 9_999 do
    Cal.push q (exp1 rng) i
  done;
  let holds = 100_000 in
  let gaps = Array.init holds (fun _ -> exp1 rng) in
  let cell = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to holds - 1 do
    let t = Cal.pop_into q cell in
    Cal.push q (t +. gaps.(i)) !cell
  done;
  let per_hold = (Gc.minor_words () -. w0) /. float_of_int holds in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per hold <= 4" per_hold)
    true (per_hold <= 4.0)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_ties;
    Alcotest.test_case "push into the past" `Quick test_push_into_past;
    Alcotest.test_case "single-instant degenerate load" `Quick
      test_single_instant_degenerate;
    Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "clear releases payloads" `Quick test_clear_releases_payloads;
    Alcotest.test_case "resize statistics" `Quick test_resize_stats;
    Alcotest.test_case "DES hold pattern equivalence" `Quick test_des_hold_equivalence;
    Alcotest.test_case "front-tuned width" `Quick test_front_tuned_width;
    Alcotest.test_case "hold lockstep across resizes" `Quick test_hold_lockstep_resizes;
    Alcotest.test_case "float payloads" `Quick test_float_payloads;
    Alcotest.test_case "boxed payloads" `Quick test_boxed_payloads;
    Alcotest.test_case "push into the past after growth" `Quick test_past_after_growth;
    Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse;
    Alcotest.test_case "hold allocation pin" `Quick test_hold_allocation;
    QCheck_alcotest.to_alcotest prop_heap_calendar_equivalent;
  ]
