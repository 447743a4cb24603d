type variant = Async_push | Async_push_pull

type result = {
  broadcast_time : float option;
  rings : int;
  informed : int;
  curve : int array;
}

(* Integer-mark curve shared by Async_engine's loops: the curve value at
   mark m is the informed count after every event with time <= m.  Marks strictly below the current event's time are emitted
   just before the event applies (the DES pops in time order, so at that
   point every earlier event has been processed). *)
let[@inline] curve_marks curve next_mark ~now ~count =
  while now > float_of_int !next_mark do
    Curve_buf.push curve count;
    incr next_mark
  done

let curve_hint max_time =
  if max_time >= 1e15 then max_int else int_of_float (Float.ceil max_time)

(* completion: pad with the final count up to mark ceil(finish) *)
let curve_finish curve ~finish ~count =
  let last = int_of_float (Float.ceil finish) in
  while Curve_buf.length curve < last + 1 do
    Curve_buf.push curve count
  done;
  last

(* cap: every integer mark <= max_time is determined, pad through it *)
let curve_cap curve next_mark ~max_time ~count =
  while float_of_int !next_mark <= max_time do
    Curve_buf.push curve count;
    incr next_mark
  done

let to_run_result r =
  Run_result.make
    ~broadcast_time:(Option.map (fun t -> int_of_float (Float.ceil t)) r.broadcast_time)
    ~rounds_run:(Array.length r.curve - 1)
    ~informed_curve:r.curve ~contacts:r.rings ()
