(* Struct-of-arrays event buffer.  One logical event is a slot across the
   parallel arrays below; spans additionally get their [dur]/[alloc_w]/
   [major_gcs] cells back-filled by [end_span] (the open-span stack holds
   the slot index).  Everything grows by doubling from the [create] hint.

   Cost model (enabled): begin+end of a span is 2 clock reads, 2 GC counter
   reads and ~12 array stores; no allocation beyond the amortized buffer
   doubling.  Disabled is not this module's concern — instrumented call
   sites match on [t option] before touching us. *)

type kind = Span | Instant | Counter_sample

type t = {
  epoch_us : float;
  pid : int;
  tr_tid : int;
  cs : Counters.t;
  mutable kinds : kind array;
  mutable names : string array;  (* caller's pointer; literals alloc nothing *)
  mutable ts : float array;  (* us since epoch *)
  mutable dur : float array;  (* span duration; 0 otherwise *)
  mutable tids : int array;
  mutable args : int array;  (* [no_arg] when absent; counter value for C *)
  mutable alloc_w : float array;  (* begin: abs minor words; end: delta *)
  mutable major_gcs : int array;  (* same trick for major collections *)
  mutable len : int;
  mutable stack : int array;  (* slot indices of open spans *)
  mutable depth : int;
}

let no_arg = min_int

let make ~epoch_us ~pid ~tid ~hint cs =
  let cap = max 16 hint in
  {
    epoch_us;
    pid;
    tr_tid = tid;
    cs;
    kinds = Array.make cap Span;
    names = Array.make cap "";
    ts = Array.make cap 0.0;
    dur = Array.make cap 0.0;
    tids = Array.make cap 0;
    args = Array.make cap no_arg;
    alloc_w = Array.make cap 0.0;
    major_gcs = Array.make cap 0;
    len = 0;
    stack = Array.make 64 0;
    depth = 0;
  }

let create ?(hint = 1024) ?(pid = 0) ?(tid = 0) () =
  if hint < 0 then invalid_arg "Trace.create: negative hint";
  make ~epoch_us:(Clock.now_us ()) ~pid ~tid ~hint (Counters.create ())

let counters t = t.cs
let tid t = t.tr_tid
let events t = t.len
let open_spans t = t.depth

let grow t =
  let old = Array.length t.names in
  let cap = 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.kinds <- extend t.kinds Span;
  t.names <- extend t.names "";
  t.ts <- extend t.ts 0.0;
  t.dur <- extend t.dur 0.0;
  t.tids <- extend t.tids 0;
  t.args <- extend t.args no_arg;
  t.alloc_w <- extend t.alloc_w 0.0;
  t.major_gcs <- extend t.major_gcs 0

let push t kind name ~arg =
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.kinds.(i) <- kind;
  t.names.(i) <- name;
  t.ts.(i) <- Clock.now_us () -. t.epoch_us;
  t.dur.(i) <- 0.0;
  t.tids.(i) <- t.tr_tid;
  t.args.(i) <- arg;
  t.alloc_w.(i) <- 0.0;
  t.major_gcs.(i) <- 0;
  t.len <- i + 1;
  i

let begin_span t ?(arg = no_arg) name =
  let i = push t Span name ~arg in
  (* stash the absolute GC readings; end_span turns them into deltas.  The
     minor-word reading comes last here and first in end_span, so the boxed
     clock floats and quick_stat records of the tracer's own bookkeeping are
     not charged to the span *)
  t.major_gcs.(i) <- (Gc.quick_stat ()).Gc.major_collections;
  t.alloc_w.(i) <- Gc.minor_words ();
  if t.depth = Array.length t.stack then begin
    let bigger = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1

let end_span t =
  if t.depth = 0 then invalid_arg "Trace.end_span: no open span";
  t.depth <- t.depth - 1;
  let i = t.stack.(t.depth) in
  t.alloc_w.(i) <- Gc.minor_words () -. t.alloc_w.(i);
  t.dur.(i) <- Clock.now_us () -. t.epoch_us -. t.ts.(i);
  t.major_gcs.(i) <-
    (Gc.quick_stat ()).Gc.major_collections - t.major_gcs.(i)

let instant t ?(arg = no_arg) name = ignore (push t Instant name ~arg)
let counter t name v = ignore (push t Counter_sample name ~arg:v)

let with_span trace ?arg name f =
  match trace with
  | None -> f ()
  | Some t ->
      begin_span t ?arg name;
      Fun.protect ~finally:(fun () -> end_span t) f

(* The child gets its own counter registry: a worker domain must never
   write into the parent's mutable cells (single-writer discipline, and
   lib/obs carries no locks).  [join] folds it back. *)
let fork t ~tid =
  make ~epoch_us:t.epoch_us ~pid:t.pid ~tid ~hint:256 (Counters.create ())

let join parent child =
  if child.depth > 0 then
    invalid_arg "Trace.join: child has open spans";
  if not (Float.equal child.epoch_us parent.epoch_us) then
    invalid_arg "Trace.join: child was not forked from this tracer";
  Counters.merge_into ~dst:parent.cs ~src:child.cs;
  for i = 0 to child.len - 1 do
    if parent.len = Array.length parent.names then grow parent;
    let j = parent.len in
    parent.kinds.(j) <- child.kinds.(i);
    parent.names.(j) <- child.names.(i);
    parent.ts.(j) <- child.ts.(i);
    parent.dur.(j) <- child.dur.(i);
    parent.tids.(j) <- child.tids.(i);
    parent.args.(j) <- child.args.(i);
    parent.alloc_w.(j) <- child.alloc_w.(i);
    parent.major_gcs.(j) <- child.major_gcs.(i);
    parent.len <- j + 1
  done

(* ------------------------------------------------------------- export -- *)

let schema = "rumor-trace/1"

let check_balanced ~who t =
  if t.depth > 0 then
    invalid_arg
      (Printf.sprintf "%s: %d span(s) still open — end them before exporting"
         who t.depth)

let distinct_tids t =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  for i = 0 to t.len - 1 do
    if not (Hashtbl.mem seen t.tids.(i)) then begin
      Hashtbl.add seen t.tids.(i) ();
      order := t.tids.(i) :: !order
    end
  done;
  List.sort Int.compare !order

let thread_label tid = if tid = 0 then "main" else Printf.sprintf "worker-%d" tid

let span_args t i =
  let args = [ ("alloc_w", Json.Float t.alloc_w.(i));
               ("major_gcs", Json.Int t.major_gcs.(i)) ] in
  if t.args.(i) = no_arg then args
  else ("arg", Json.Int t.args.(i)) :: args

let event_to_chrome t i =
  let common ph extra =
    Json.Obj
      ([
         ("name", Json.String t.names.(i));
         ("cat", Json.String "rumor");
         ("ph", Json.String ph);
         ("ts", Json.Float t.ts.(i));
         ("pid", Json.Int t.pid);
         ("tid", Json.Int t.tids.(i));
       ]
      @ extra)
  in
  match t.kinds.(i) with
  | Span ->
      common "X"
        [ ("dur", Json.Float t.dur.(i)); ("args", Json.Obj (span_args t i)) ]
  | Instant ->
      common "i"
        [
          ("s", Json.String "t");
          ( "args",
            Json.Obj
              (if t.args.(i) = no_arg then []
               else [ ("arg", Json.Int t.args.(i)) ]) );
        ]
  | Counter_sample ->
      common "C" [ ("args", Json.Obj [ ("value", Json.Int t.args.(i)) ]) ]

let to_chrome_json t =
  check_balanced ~who:"Trace.to_chrome_json" t;
  let metadata =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int t.pid);
        ("args", Json.Obj [ ("name", Json.String "rumor") ]);
      ]
    :: List.map
         (fun tid ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int t.pid);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.String (thread_label tid)) ]);
             ])
         (distinct_tids t)
  in
  let events = List.init t.len (fun i -> event_to_chrome t i) in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ events));
      ("displayTimeUnit", Json.String "ms");
      ("counters", Counters.to_json t.cs);
    ]

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      output_char oc '\n')

let write_chrome t path = write_file path (Json.to_string_json (to_chrome_json t))

let event_to_jsonl t i =
  let common ph extra =
    Json.Obj
      ([
         ("ph", Json.String ph);
         ("name", Json.String t.names.(i));
         ("ts", Json.Float t.ts.(i));
         ("tid", Json.Int t.tids.(i));
       ]
      @ extra)
  in
  match t.kinds.(i) with
  | Span ->
      common "X" (("dur", Json.Float t.dur.(i)) :: span_args t i)
  | Instant ->
      common "I"
        (if t.args.(i) = no_arg then [] else [ ("arg", Json.Int t.args.(i)) ])
  | Counter_sample -> common "C" [ ("value", Json.Int t.args.(i)) ]

let write_jsonl t path =
  check_balanced ~who:"Trace.write_jsonl" t;
  let buf = Buffer.create (256 + (64 * t.len)) in
  Buffer.add_string buf
    (Json.to_string_json
       (Json.Obj [ ("schema", Json.String schema); ("pid", Json.Int t.pid) ]));
  Buffer.add_char buf '\n';
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (Json.to_string_json (event_to_jsonl t i));
    Buffer.add_char buf '\n'
  done;
  if not (Counters.is_empty t.cs) then begin
    Buffer.add_string buf
      (Json.to_string_json (Json.Obj [ ("counters", Counters.to_json t.cs) ]));
    Buffer.add_char buf '\n'
  end;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------- reading -- *)

type event = {
  ph : [ `Span | `Instant | `Counter ];
  name : string;
  ts_us : float;
  dur_us : float;
  tid : int;
  arg : int option;
  value : int;
  alloc_w : float;
  major_gcs : int;
}

type file = { file_events : event list; file_counters : Counters.t }

let ( let* ) r f = Result.bind r f

let field j name conv =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let opt_field j name conv ~default =
  match Json.member name j with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let event_of_json ~chrome j =
  let* ph = field j "ph" Json.to_string in
  match ph with
  | "M" -> Ok None (* chrome metadata: track names, not events *)
  | "X" | "I" | "i" | "C" ->
      let* name = field j "name" Json.to_string in
      let* ts_us = field j "ts" Json.to_float in
      let* tid = opt_field j "tid" Json.to_int ~default:0 in
      (* chrome nests the payload under "args"; the JSONL form is flat *)
      let payload =
        if chrome then
          match Json.member "args" j with Some a -> a | None -> Json.Obj []
        else j
      in
      let* arg =
        match Json.member "arg" payload with
        | None -> Ok None
        | Some v -> (
            match Json.to_int v with
            | Some a -> Ok (Some a)
            | None -> Error "field \"arg\" has the wrong type")
      in
      let* value = opt_field payload "value" Json.to_int ~default:0 in
      let* alloc_w = opt_field payload "alloc_w" Json.to_float ~default:0.0 in
      let* major_gcs = opt_field payload "major_gcs" Json.to_int ~default:0 in
      if ph = "X" then
        let* dur_us = field j "dur" Json.to_float in
        Ok (Some { ph = `Span; name; ts_us; dur_us; tid; arg; value; alloc_w; major_gcs })
      else if ph = "C" then
        Ok (Some { ph = `Counter; name; ts_us; dur_us = 0.0; tid; arg; value; alloc_w; major_gcs })
      else
        Ok (Some { ph = `Instant; name; ts_us; dur_us = 0.0; tid; arg; value; alloc_w; major_gcs })
  | other -> Error (Printf.sprintf "unsupported event phase %S" other)

let read_counters j =
  match Json.member "counters" j with
  | None -> Ok (Counters.create ())
  | Some c -> Counters.of_json c

let read_chrome j =
  let* items = field j "traceEvents" Json.to_list in
  let* events =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* ev = event_of_json ~chrome:true item in
        match ev with None -> Ok acc | Some e -> Ok (e :: acc))
      (Ok []) items
  in
  let* cs = read_counters j in
  Ok { file_events = List.rev events; file_counters = cs }

let read_jsonl_lines lines =
  match lines with
  | [] -> Error "empty trace file"
  | header :: rest ->
      let* hj = Json.parse_result header in
      let* () =
        match Json.member "schema" hj with
        | Some (Json.String s) when s = schema -> Ok ()
        | Some (Json.String s) ->
            Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
        | _ -> Error "not a rumor-trace JSONL stream (no \"schema\" header line)"
      in
      let* events, cs =
        List.fold_left
          (fun acc line ->
            let* events, cs = acc in
            if String.trim line = "" then Ok (events, cs)
            else
              let* j = Json.parse_result line in
              match Json.member "counters" j with
              | Some c ->
                  let* cs = Counters.of_json c in
                  Ok (events, cs)
              | None -> (
                  let* ev = event_of_json ~chrome:false j in
                  match ev with
                  | None -> Ok (events, cs)
                  | Some e -> Ok (e :: events, cs)))
          (Ok ([], Counters.create ()))
          rest
      in
      Ok { file_events = List.rev events; file_counters = cs }

let read_file path =
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match read () with
  | exception Sys_error msg -> Error msg
  | text -> (
      let result =
        match Json.parse_result (String.trim text) with
        | Ok (Json.Obj _ as j) when Option.is_some (Json.member "traceEvents" j)
          ->
            read_chrome j
        | Ok _ | Error _ ->
            read_jsonl_lines (String.split_on_char '\n' (String.trim text))
      in
      match result with
      | Ok _ as ok -> ok
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
