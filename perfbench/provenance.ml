(* Where a result came from: core count, compiler, and the cache sizes the
   workloads are sized against, read from sysfs when it is readable. *)

type cache = { l2_bytes : int option; llc_bytes : int option }

let read_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          match input_line ic with
          | line -> Some (String.trim line)
          | exception End_of_file -> None)

(* "2048K" / "105M" / "512" -> bytes *)
let parse_size s =
  let n = String.length s in
  if n = 0 then None
  else
    let scale, digits =
      match s.[n - 1] with
      | 'K' | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    Option.map (fun v -> v * scale) (int_of_string_opt digits)

let cache_root = "/sys/devices/system/cpu/cpu0/cache"

(* the largest unified or data cache per level *)
let read_cache () =
  let levels =
    List.filter_map
      (fun i ->
        let dir = Printf.sprintf "%s/index%d" cache_root i in
        match (read_line (dir ^ "/level"), read_line (dir ^ "/type"), read_line (dir ^ "/size")) with
        | Some level, Some kind, Some size when not (String.equal kind "Instruction") -> (
            match (int_of_string_opt level, parse_size size) with
            | Some l, Some b -> Some (l, b)
            | _ -> None)
        | _ -> None)
      (List.init 8 Fun.id)
  in
  let at l = List.fold_left (fun acc (l', b) -> if l' = l then Some b else acc) None levels in
  let top = List.fold_left (fun acc (l, _) -> max acc l) 0 levels in
  { l2_bytes = at 2; llc_bytes = (if top >= 2 then at top else None) }

(* The cache regime each workload is meant to run in; a violated one is a
   flag on the result, not a failure. *)
let flags ~workload ~cache ~csr_bytes =
  let mib b = float_of_int b /. 1048576.0 in
  match workload with
  | "er1m" -> (
      match cache.llc_bytes with
      | Some llc when List.for_all (fun b -> b <= llc) csr_bytes ->
          [ Printf.sprintf "er1m CSR (%.1f MiB) does not exceed the LLC (%.1f MiB)"
              (mib (List.fold_left ( + ) 0 csr_bytes)) (mib llc) ]
      | Some _ | None -> [])
  | "figure1" -> (
      match cache.l2_bytes with
      | Some l2 ->
          List.filter_map
            (fun b ->
              if b > l2 then
                Some (Printf.sprintf "figure1 graph CSR (%.2f MiB) exceeds L2 (%.2f MiB)" (mib b) (mib l2))
              else None)
            csr_bytes
      | None -> [])
  | _ -> []

let describe_bytes = function None -> "unknown" | Some b -> string_of_int b
