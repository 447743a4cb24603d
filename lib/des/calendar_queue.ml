(* Calendar queue (Brown 1988) over one flat slab.

   Events live in slots of parallel arrays: [times] (a flat float array),
   [seqs], [next] and [payloads].  A released slot goes on a free
   list threaded through [next], so a steady-state hold touches no
   allocator.  The [nbuckets] buckets (always a power of two) are
   intrusive singly linked lists through [next], each sorted ascending by
   (time, seq) and headed in [heads]; an empty bucket's head is -1.

   An event's virtual day is floor(time / width) as an int, clamped to
   +-2^61 so that day arithmetic never overflows; it is recomputed from
   [times] where needed rather than stored.  Its bucket is
   [day land (nbuckets - 1)]: a "year" of [nbuckets] consecutive days
   visits every bucket once, and later years wrap onto the same buckets
   further down each sorted list.

   Determinism contract (shared with Event_queue): events drain in
   ascending (time, seq) where [seq] is the insertion counter, so a DES
   run is a function of the inserted events only, never of the bucket
   geometry.

   Geometry invariant: [vb] (the current virtual day) never exceeds the
   virtual day of any pending event.  Pop advances [vb] only across days
   verified empty, push into the past rewinds it, and resize re-anchors it
   at the earliest event.

   Width: a resize sorts the live slots and sets the day width to twice
   the mean gap among the earliest [front] events (Brown's sampling of the
   queue head), then re-links the slots in descending order so every
   insertion lands at its bucket head.  Tuning to the front rather than
   to the whole population matters for DES clocks: pending rings at
   now + Exp(1) are about ln(len) times denser at the front than on
   average, and the front is where pop spends its time. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable next : int array;  (* bucket-list or free-list successor, -1 ends *)
  mutable payloads : 'a array;
  mutable top : int;  (* slots [0, top) have been handed out *)
  mutable free : int;  (* free-list head, -1 when empty *)
  mutable heads : int array;  (* first slot of each bucket, -1 when empty *)
  mutable nbuckets : int;
  mutable width : float;  (* day length in time units *)
  mutable inv_width : float;
  mutable vb : int;  (* current virtual day *)
  mutable len : int;
  mutable next_seq : int;
  mutable resizes : int;
}

let min_buckets = 16
let min_slots = 16

(* events sampled at the queue head when a resize re-tunes the width *)
let front = 64

let create () =
  {
    times = [||];
    seqs = [||];
    next = [||];
    payloads = [||];
    top = 0;
    free = -1;
    heads = Array.make min_buckets (-1);
    nbuckets = min_buckets;
    width = 1.0;
    inv_width = 1.0;
    vb = 0;
    len = 0;
    next_seq = 0;
    resizes = 0;
  }

let is_empty q = q.len = 0
let size q = q.len

(* Virtual day of time [t].  The clamp keeps days and [vb + nbuckets]
   inside an OCaml int for absurd inputs; it is sound because the day map
   stays monotone in [t], which is all that locate relies on, and the
   direct-search fallback picks its minimum by (time, seq) alone. *)
let day_clamp = 1 lsl 61
let day_clamp_f = 0x1p61

let[@inline] day_of q t =
  let x = t *. q.inv_width in
  if x >= day_clamp_f then day_clamp
  else if x <= -.day_clamp_f then -day_clamp
  else
    let d = int_of_float x in
    if Float.of_int d > x then d - 1 else d

(* Double the slab, filling fresh payload cells with [filler] (the
   payload being pushed: a float filler keeps a float payload array
   flat). *)
let grow q filler =
  let cap = max min_slots (2 * Array.length q.times) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 q.top;
    b
  in
  q.times <- extend q.times 0.0;
  q.seqs <- extend q.seqs 0;
  q.next <- extend q.next (-1);
  q.payloads <- extend q.payloads filler

(* slot [a] drains before slot [b]; times are never NaN *)
let[@inline] before (times : float array) seqs a b =
  times.(a) < times.(b) || (times.(a) = times.(b) && seqs.(a) < seqs.(b))

(* Insert slot [s] into its day's bucket, keeping the list sorted by
   (time, seq).  Pushes carry the largest seq so far, so they stop after
   every earlier-or-equal time in the bucket; resize inserts in
   descending order, so it always stops at the head. *)
(* lint: hot *)
let link q s =
  let times = q.times and seqs = q.seqs and next = q.next in
  let b = day_of q times.(s) land (q.nbuckets - 1) in
  let h = q.heads.(b) in
  if h < 0 || before times seqs s h then begin
    next.(s) <- h;
    q.heads.(b) <- s
  end
  else begin
    let prev = ref h in
    let cur = ref next.(h) in
    while !cur >= 0 && before times seqs !cur s do
      prev := !cur;
      cur := next.(!cur)
    done;
    next.(s) <- !cur;
    next.(!prev) <- s
  end

(* Global minimum by scanning every bucket head: the O(nbuckets) fallback
   when a whole year holds no event (width far off the event spacing,
   e.g. right before a resize re-tunes it).  Requires [q.len > 0]. *)
let direct_min q =
  let times = q.times and seqs = q.seqs in
  let best = ref (-1) in
  for idx = 0 to q.nbuckets - 1 do
    let h = q.heads.(idx) in
    if h >= 0 then
      if !best < 0 then best := idx
      else if before times seqs h q.heads.(!best) then best := idx
  done;
  !best

(* Find the bucket holding the earliest event, advancing [q.vb] across
   verified-empty days.  A bucket's head has the minimal virtual day in
   that bucket and days map to buckets injectively within a year, so the
   first head whose day is the current day is the global minimum.
   Requires [q.len > 0]. *)
(* lint: hot *)
let locate q =
  let heads = q.heads and times = q.times in
  let mask = q.nbuckets - 1 in
  let vb = ref q.vb in
  let found = ref (-1) in
  let steps = ref 0 in
  while !found < 0 && !steps < q.nbuckets do
    let idx = !vb land mask in
    let h = heads.(idx) in
    if h >= 0 && day_of q times.(h) <= !vb then found := idx
    else begin
      incr vb;
      incr steps
    end
  done;
  if !found >= 0 then begin
    q.vb <- !vb;
    !found
  end
  else begin
    let idx = direct_min q in
    q.vb <- day_of q times.(heads.(idx));
    idx
  end

(* Width for the sorted live slots [live]: twice the mean gap among the
   earliest [front] events, falling back to the whole population when
   those all share one instant.  The floor keeps [t / width] far inside
   the day clamp for every pending time. *)
let front_width times live =
  let len = Array.length live in
  if len < 2 then 1.0
  else begin
    let t0 = times.(live.(0)) and tmax = times.(live.(len - 1)) in
    let k = min len front in
    let span = times.(live.(k - 1)) -. t0 in
    let w =
      if span > 0.0 then 2.0 *. span /. float_of_int (k - 1)
      else if tmax -. t0 > 0.0 then 2.0 *. (tmax -. t0) /. float_of_int len
      else 1.0
    in
    let eps = (Float.max (Float.abs t0) (Float.abs tmax) +. 1.0) *. 0x1p-40 in
    let w = Float.max w eps in
    if Float.is_finite w then w else Float.max_float
  end

(* Rebuild with [new_n] buckets and a front-tuned width.  The slab itself
   is left alone, so a slot popped just before a shrink stays readable. *)
let resize q new_n =
  q.resizes <- q.resizes + 1;
  let times = q.times and seqs = q.seqs in
  let live = Array.make q.len 0 in
  let k = ref 0 in
  Array.iter
    (fun h ->
      let cur = ref h in
      while !cur >= 0 do
        live.(!k) <- !cur;
        incr k;
        cur := q.next.(!cur)
      done)
    q.heads;
  Array.stable_sort
    (fun a b ->
      let c = Float.compare times.(a) times.(b) in
      if c <> 0 then c else Int.compare seqs.(a) seqs.(b))
    live;
  q.heads <- Array.make new_n (-1);
  q.nbuckets <- new_n;
  q.width <- front_width times live;
  q.inv_width <- 1.0 /. q.width;
  for i = q.len - 1 downto 0 do
    link q live.(i)
  done;
  q.vb <- (if q.len > 0 then day_of q times.(live.(0)) else 0)

(* lint: hot *)
let push q time payload =
  if Float.is_nan time then invalid_arg "Calendar_queue.push: NaN time";
  let s =
    if q.free >= 0 then begin
      let s = q.free in
      q.free <- q.next.(s);
      s
    end
    else begin
      if q.top = Array.length q.times then grow q payload;
      let s = q.top in
      q.top <- s + 1;
      s
    end
  in
  q.times.(s) <- time;
  q.seqs.(s) <- q.next_seq;
  q.payloads.(s) <- payload;
  q.next_seq <- q.next_seq + 1;
  let d = day_of q time in
  if q.len = 0 || d < q.vb then q.vb <- d;
  link q s;
  q.len <- q.len + 1;
  if q.len > 2 * q.nbuckets then resize q (2 * q.nbuckets)

(* Unlink the earliest event and return its slot, now on the free list;
   requires [q.len > 0].  The slot's time and payload stay readable until
   the next push reuses it, so a popped payload stays reachable until
   then (same policy as Event_queue); [clear] drops the slab wholesale. *)
(* lint: hot *)
let take q =
  let idx = locate q in
  let s = q.heads.(idx) in
  q.heads.(idx) <- q.next.(s);
  q.next.(s) <- q.free;
  q.free <- s;
  q.len <- q.len - 1;
  if q.len < q.nbuckets / 4 && q.nbuckets > min_buckets then
    resize q (q.nbuckets / 2);
  s

let pop q =
  if q.len = 0 then None
  else begin
    let s = take q in
    Some (q.times.(s), q.payloads.(s))
  end

(* lint: hot *)
let pop_into q slot =
  if q.len = 0 then Float.nan
  else begin
    let s = take q in
    slot := q.payloads.(s);
    q.times.(s)
  end

let peek_time q =
  if q.len = 0 then None else Some q.times.(q.heads.(locate q))

let clear q =
  q.times <- [||];
  q.seqs <- [||];
  q.next <- [||];
  q.payloads <- [||];
  q.top <- 0;
  q.free <- -1;
  q.heads <- Array.make min_buckets (-1);
  q.nbuckets <- min_buckets;
  q.width <- 1.0;
  q.inv_width <- 1.0;
  q.vb <- 0;
  q.len <- 0;
  q.next_seq <- 0

(* declared last: the field names shadow the main record's otherwise *)
type stats = { resizes : int; buckets : int; width : float }

let stats (q : _ t) = { resizes = q.resizes; buckets = q.nbuckets; width = q.width }
