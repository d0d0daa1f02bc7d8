(** The unified counter-snapshot view.

    The repo used to expose three divergent record types for the same
    idea — [Engine.stats], [Guided.stats] and [Solver.Cache.snapshot] —
    each with its own field names and printing code.  A [snapshot] is the
    common shape they all convert into: a scope name, monotonic integer
    counters and point-in-time float gauges.  The record types survive for
    the bench tables; everything that wants "the numbers" generically
    (CLI [--metrics], the JSONL trace, tests) goes through this view. *)

type snapshot = {
  scope : string;  (** e.g. ["engine"], ["replay"], ["solver.cache"] *)
  counters : (string * int) list;  (** monotonic counts, emission order *)
  gauges : (string * float) list;  (** point-in-time values (rates, seconds) *)
}

let make ?(gauges = []) ~scope counters = { scope; counters; gauges }

let find (s : snapshot) name = List.assoc_opt name s.counters
let gauge (s : snapshot) name = List.assoc_opt name s.gauges

(** Sum counters pointwise (union of names); right-biased on gauges.
    Scope is taken from the left operand. *)
let merge (a : snapshot) (b : snapshot) : snapshot =
  let names l = List.map fst l in
  let counter_names =
    names a.counters @ List.filter (fun n -> not (List.mem_assoc n a.counters)) (names b.counters)
  in
  let counters =
    List.map
      (fun n ->
        let va = Option.value ~default:0 (find a n)
        and vb = Option.value ~default:0 (find b n) in
        (n, va + vb))
      counter_names
  in
  let gauges =
    a.gauges
    |> List.filter (fun (n, _) -> not (List.mem_assoc n b.gauges))
    |> fun rest -> rest @ b.gauges
  in
  { scope = a.scope; counters; gauges }

(** Prefix every counter and gauge name with [scope ^ "."] and re-scope;
    used to fold stage snapshots into one flat view. *)
let prefixed (s : snapshot) : (string * int) list * (string * float) list =
  ( List.map (fun (n, v) -> (s.scope ^ "." ^ n, v)) s.counters,
    List.map (fun (n, v) -> (s.scope ^ "." ^ n, v)) s.gauges )

(** Flatten several scoped snapshots into one, names prefixed by their
    original scope. *)
let union ~scope (l : snapshot list) : snapshot =
  let counters = List.concat_map (fun s -> fst (prefixed s)) l in
  let gauges = List.concat_map (fun s -> snd (prefixed s)) l in
  { scope; counters; gauges }

(** Snapshot of a handle's metric registry (counters plus histogram means
    as gauges), sorted by name for stable output. *)
let of_core ?(scope = "metrics") (core : Core.t) : snapshot =
  let counters =
    Core.fold_counters core (fun n v acc -> (n, v) :: acc) []
    |> List.sort compare
  in
  let gauges =
    Core.fold_hists core
      (fun n (count, sum, minv, maxv) acc ->
        if count = 0 then acc
        else
          (n ^ ".mean", sum /. float_of_int count)
          :: (n ^ ".min", minv) :: (n ^ ".max", maxv)
          :: (n ^ ".count", float_of_int count) :: acc)
      []
    |> List.sort compare
  in
  { scope; counters; gauges }

let pp (fmt : Format.formatter) (s : snapshot) =
  Format.fprintf fmt "[%s]@\n" s.scope;
  List.iter (fun (n, v) -> Format.fprintf fmt "  %-36s %d@\n" n v) s.counters;
  List.iter (fun (n, v) -> Format.fprintf fmt "  %-36s %g@\n" n v) s.gauges

let to_string (s : snapshot) = Format.asprintf "%a" pp s

(** Strict-JSON object: [{"scope": .., "counters": {..}, "gauges": {..}}]. *)
let to_json (s : snapshot) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"scope\": \"%s\", \"counters\": {" (Json.escape s.scope));
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" (Json.escape n) v))
    s.counters;
  Buffer.add_string b "}, \"gauges\": {";
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %s" (Json.escape n) (Json.float v)))
    s.gauges;
  Buffer.add_string b "}}";
  Buffer.contents b
