(* Self-time rollup over a span forest.

   A span's self time is its duration minus the part of its interval that
   its child spans cover (children of a parallel span overlap, so the
   covered part is the union of their intervals, clipped to the parent).
   Summing self time by layer splits a workload's traced wall clock into
   per-layer shares without any support from the library beyond the spans
   it already emits. *)

module Trace = Telemetry.Trace

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

let duration (n : Trace.node) =
  if Float.is_nan n.end_t || n.end_t < n.start_t then 0.0
  else n.end_t -. n.start_t

let self_time (n : Trace.node) =
  let lo = n.start_t and hi = n.start_t +. duration n in
  let kids =
    List.map (fun (c : Trace.node) -> (c.start_t, c.start_t +. duration c)) n.children
  in
  Float.max 0.0 (duration n -. covered ~lo ~hi kids)

(* Which layer a span belongs to.  Library spans are named after their
   layer; the benchmark's own spans carry a [<layer>.] prefix.  A span
   opened by the benchmark under [interp.] times an uninstrumented run,
   so everything beneath it is interpretation. *)
let layer_of ~parent name =
  let has p = String.starts_with ~prefix:p name in
  if parent = Some "interp" then "interp"
  else if has "interp." then "interp"
  else if name = "field_run" || has "instrument." then "instrument"
  else if name = "reproduce" || has "replay." then "replay"
  else if has "engine." || name = "analyze.dynamic" || has "concolic." then
    "concolic"
  else if has "solver." then "solver"
  else if has "triage." then "triage"
  else if name = "analyze.static" || has "staticanalysis." then
    "staticanalysis"
  else match parent with Some l -> l | None -> "bench"

(* Self seconds per layer over the forest, plus the grand total. *)
let rollup (forest : Trace.node list) =
  let tbl = Hashtbl.create 16 in
  let add l s =
    Hashtbl.replace tbl l (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l))
  in
  let rec walk parent (n : Trace.node) =
    let l = layer_of ~parent n.name in
    add l (self_time n);
    List.iter (walk (Some l)) n.children
  in
  List.iter (walk None) forest;
  let total = Hashtbl.fold (fun _ s acc -> acc +. s) tbl 0.0 in
  (tbl, total)

let seconds tbl layer = Option.value ~default:0.0 (Hashtbl.find_opt tbl layer)

(* Every node of the forest, depth first. *)
let rec nodes (forest : Trace.node list) =
  List.concat_map (fun (n : Trace.node) -> n :: nodes n.children) forest

let named name forest =
  List.filter (fun (n : Trace.node) -> n.name = name) (nodes forest)
