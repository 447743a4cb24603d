module Gen_basic = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Gen_random = Rumor_graph.Gen_random

type t =
  | Complete of int
  | Path of int
  | Cycle of int
  | Star of int
  | Double_star of int
  | Tree of int
  | Heavy_tree of int
  | Siamese of int
  | Csc of int
  | Grid of int * int
  | Torus of int * int
  | Hypercube of int
  | Necklace of int * int
  | Barbell of int * int
  | Lollipop of int * int
  | Random_regular of int * int
  | Er of int * float
  | Gnm of int * int
  | Ba of int * int

let families =
  [
    "complete"; "path"; "cycle"; "star"; "double-star"; "tree"; "heavy-tree";
    "siamese"; "csc"; "grid"; "torus"; "hypercube"; "necklace"; "barbell";
    "lollipop"; "random-regular"; "er"; "gnm"; "ba";
  ]

let parse_syntax text =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let family, args =
    match String.index_opt text ':' with
    | None -> (text, "")
    | Some i ->
        (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
  in
  let ints sep =
    String.split_on_char sep args
    |> List.map String.trim
    |> List.map int_of_string_opt
  in
  let one_int k =
    match ints ',' with
    | [ Some a ] -> Ok (k a)
    | _ -> fail "%s expects one integer argument, got %S" family args
  in
  let two_ints sep k =
    match ints sep with
    | [ Some a; Some b ] -> Ok (k a b)
    | _ ->
        fail "%s expects two integers separated by %C, got %S" family sep args
  in
  match String.lowercase_ascii family with
  | "complete" -> one_int (fun n -> Complete n)
  | "path" -> one_int (fun n -> Path n)
  | "cycle" -> one_int (fun n -> Cycle n)
  | "star" -> one_int (fun l -> Star l)
  | "double-star" -> one_int (fun l -> Double_star l)
  | "tree" -> one_int (fun l -> Tree l)
  | "heavy-tree" -> one_int (fun l -> Heavy_tree l)
  | "siamese" -> one_int (fun l -> Siamese l)
  | "csc" -> one_int (fun k -> Csc k)
  | "grid" -> two_ints 'x' (fun r c -> Grid (r, c))
  | "torus" -> two_ints 'x' (fun r c -> Torus (r, c))
  | "hypercube" -> one_int (fun d -> Hypercube d)
  | "necklace" -> two_ints 'x' (fun c s -> Necklace (c, s))
  | "barbell" -> two_ints ',' (fun s b -> Barbell (s, b))
  | "lollipop" -> two_ints ',' (fun s t -> Lollipop (s, t))
  | "random-regular" -> two_ints ',' (fun n d -> Random_regular (n, d))
  | "gnm" -> two_ints ',' (fun n m -> Gnm (n, m))
  | "ba" -> two_ints ',' (fun n m -> Ba (n, m))
  | "er" -> (
      match String.split_on_char ',' args |> List.map String.trim with
      | [ n; p ] -> (
          match (int_of_string_opt n, float_of_string_opt p) with
          | Some n, Some p -> Ok (Er (n, p))
          | _ -> fail "er expects N,P (int, float), got %S" args)
      | _ -> fail "er expects N,P, got %S" args)
  | other -> fail "unknown graph family %S (known: %s)" other (String.concat ", " families)

let to_string = function
  | Complete n -> Printf.sprintf "complete:%d" n
  | Path n -> Printf.sprintf "path:%d" n
  | Cycle n -> Printf.sprintf "cycle:%d" n
  | Star l -> Printf.sprintf "star:%d" l
  | Double_star l -> Printf.sprintf "double-star:%d" l
  | Tree l -> Printf.sprintf "tree:%d" l
  | Heavy_tree l -> Printf.sprintf "heavy-tree:%d" l
  | Siamese l -> Printf.sprintf "siamese:%d" l
  | Csc k -> Printf.sprintf "csc:%d" k
  | Grid (r, c) -> Printf.sprintf "grid:%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus:%dx%d" r c
  | Hypercube d -> Printf.sprintf "hypercube:%d" d
  | Necklace (c, s) -> Printf.sprintf "necklace:%dx%d" c s
  | Barbell (s, b) -> Printf.sprintf "barbell:%d,%d" s b
  | Lollipop (s, t) -> Printf.sprintf "lollipop:%d,%d" s t
  | Random_regular (n, d) -> Printf.sprintf "random-regular:%d,%d" n d
  | Er (n, p) -> Printf.sprintf "er:%d,%g" n p
  | Gnm (n, m) -> Printf.sprintf "gnm:%d,%d" n m
  | Ba (n, m) -> Printf.sprintf "ba:%d,%d" n m

(* Each generator's own preconditions, checked at parse time so that a bad
   spec is a one-line error instead of an Invalid_argument from inside the
   build. *)
let validate spec =
  let need ok what =
    if ok then Ok spec else Error (Printf.sprintf "%s: %s" (to_string spec) what)
  in
  match spec with
  | Complete n | Path n -> need (n >= 1) "need N >= 1"
  | Cycle n -> need (n >= 3) "need N >= 3"
  | Star l | Double_star l -> need (l >= 1) "need LEAVES >= 1"
  | Tree l -> need (l >= 1) "need LEVELS >= 1"
  | Heavy_tree l | Siamese l -> need (l >= 2) "need LEVELS >= 2"
  | Csc k -> need (k >= 3) "need K >= 3"
  | Grid (r, c) -> need (r >= 1 && c >= 1) "need ROWS, COLS >= 1"
  | Torus (r, c) -> need (r >= 3 && c >= 3) "need ROWS, COLS >= 3"
  | Hypercube d -> need (d >= 1 && d <= 24) "need 1 <= DIM <= 24"
  | Necklace (c, s) -> need (c >= 3 && s >= 4) "need CLIQUES >= 3 and SIZE >= 4"
  | Barbell (s, b) -> need (s >= 2 && b >= 0) "need SIZE >= 2 and BRIDGE >= 0"
  | Lollipop (s, t) -> need (s >= 2 && t >= 1) "need SIZE >= 2 and TAIL >= 1"
  | Random_regular (n, d) ->
      if not (d > 0 && d < n) then need false "need 0 < D < N"
      else if n * d mod 2 <> 0 then need false "N*D must be even"
      else need (d > 1 || n = 2) "a 1-regular graph is connected only for N = 2"
  | Er (n, p) -> need (n >= 1 && p >= 0.0 && p <= 1.0) "need N >= 1 and 0 <= P <= 1"
  | Gnm (n, m) ->
      need (n >= 1 && m >= 0 && m <= n * (n - 1) / 2) "need N >= 1 and 0 <= M <= N(N-1)/2"
  | Ba (n, m) -> need (m >= 1 && n > m) "need 1 <= M < N"

let parse text = Result.bind (parse_syntax text) validate

let parse_exn text =
  match parse text with Ok t -> t | Error m -> invalid_arg ("Graph_spec: " ^ m)

let is_random = function
  | Random_regular _ | Er _ | Gnm _ | Ba _ -> true
  | Complete _ | Path _ | Cycle _ | Star _ | Double_star _ | Tree _
  | Heavy_tree _ | Siamese _ | Csc _ | Grid _ | Torus _ | Hypercube _
  | Necklace _ | Barbell _ | Lollipop _ -> false

let build ?trace rng spec =
  match spec with
  | Complete n -> (Gen_basic.complete n, 0)
  | Path n -> (Gen_basic.path n, 0)
  | Cycle n -> (Gen_basic.cycle n, 0)
  | Star l -> (Gen_basic.star ~leaves:l, 0)
  | Double_star l ->
      let ds = Gen_paper.double_star ~leaves_per_star:l in
      (ds.Gen_paper.ds_graph, ds.Gen_paper.ds_leaf_a)
  | Tree l -> (Gen_basic.complete_binary_tree ~levels:l, 0)
  | Heavy_tree l ->
      let ht = Gen_paper.heavy_binary_tree ~levels:l in
      (ht.Gen_paper.ht_graph, ht.Gen_paper.ht_first_leaf)
  | Siamese l ->
      let si = Gen_paper.siamese_heavy_tree ~levels:l in
      (si.Gen_paper.si_graph, si.Gen_paper.si_leaf_left)
  | Csc k ->
      let csc = Gen_paper.cycle_stars_cliques ~k in
      (csc.Gen_paper.csc_graph, csc.Gen_paper.csc_a_clique_vertex)
  | Grid (r, c) -> (Gen_basic.grid ~rows:r ~cols:c, 0)
  | Torus (r, c) -> (Gen_basic.torus ~rows:r ~cols:c, 0)
  | Hypercube d -> (Gen_basic.hypercube ~dim:d, 0)
  | Necklace (c, s) -> (Gen_basic.necklace ~cliques:c ~clique_size:s, 0)
  | Barbell (s, b) -> (Gen_basic.barbell ~clique_size:s ~bridge_len:b, 0)
  | Lollipop (s, t) -> (Gen_basic.lollipop ~clique_size:s ~tail_len:t, 0)
  | Random_regular (n, d) ->
      (Gen_random.random_regular_connected ?trace rng ~n ~d, 0)
  | Er (n, p) -> (Gen_random.erdos_renyi ?trace rng ~n ~p, 0)
  | Gnm (n, m) -> (Gen_random.gnm ?trace rng ~n ~m, 0)
  | Ba (n, m) -> (Gen_random.preferential_attachment ?trace rng ~n ~m, 0)
