(** Sliding-window ingestion analytics (see window.mli). *)

type event = { e_cohort : string; e_key : string; e_novel : bool }

type t = {
  k : int;
  ring : event option array;
  mutable seen : int;  (** lifetime event count; ring slot = seen mod size *)
}

let make ?(k = 5) ~size () =
  if size <= 0 then invalid_arg "Window.make: size must be positive";
  { k; ring = Array.make size None; seen = 0 }

let observe t ~cohort ~key ~novel =
  t.ring.(t.seen mod Array.length t.ring) <-
    Some { e_cohort = cohort; e_key = key; e_novel = novel };
  t.seen <- t.seen + 1

type cohort_stats = {
  cohort : string;
  events : int;
  new_clusters : int;
  distinct : int;
  top : (string * int) list;
}

type stats = {
  window : int;
  seen : int;
  total : cohort_stats;
  cohorts : cohort_stats list;
}

let new_cluster_rate (c : cohort_stats) =
  if c.events = 0 then 0.0
  else float_of_int c.new_clusters /. float_of_int c.events

let dedup_ratio (c : cohort_stats) =
  if c.events = 0 then 1.0 else float_of_int c.distinct /. float_of_int c.events

(* Fold one cohort's events (already filtered) into a stats row.  Top-K
   order is count desc then key asc — a total order, so ties cannot make
   two identically-fed windows disagree. *)
let fold_cohort name (events : event list) k : cohort_stats =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let new_clusters = ref 0 in
  List.iter
    (fun e ->
      if e.e_novel then incr new_clusters;
      Hashtbl.replace counts e.e_key
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.e_key)))
    events;
  let by_count =
    Hashtbl.fold (fun key n acc -> (key, n) :: acc) counts []
    |> List.sort (fun (ka, na) (kb, nb) ->
           let c = compare nb na in
           if c <> 0 then c else String.compare ka kb)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  {
    cohort = name;
    events = List.length events;
    new_clusters = !new_clusters;
    distinct = Hashtbl.length counts;
    top = take k by_count;
  }

let stats t : stats =
  let events =
    Array.to_list t.ring |> List.filter_map Fun.id
  in
  let cohort_names =
    List.fold_left
      (fun acc e -> if List.mem e.e_cohort acc then acc else e.e_cohort :: acc)
      [] events
    |> List.sort String.compare
  in
  {
    window = Array.length t.ring;
    seen = t.seen;
    total = fold_cohort "*" events t.k;
    cohorts =
      List.map
        (fun name ->
          fold_cohort name
            (List.filter (fun e -> e.e_cohort = name) events)
            t.k)
        cohort_names;
  }

(* ------------------------------------------------------------------ *)
(* Strict JSON, hand-rendered like Summary.to_json *)

module J = Telemetry.Json

let cohort_to_json (c : cohort_stats) =
  Printf.sprintf
    "{\"cohort\":%s,\"events\":%d,\"new_clusters\":%d,\"new_cluster_rate\":%s,\"distinct\":%d,\"dedup_ratio\":%s,\"top\":[%s]}"
    (J.quote c.cohort) c.events c.new_clusters
    (J.float (new_cluster_rate c))
    c.distinct
    (J.float (dedup_ratio c))
    (String.concat ","
       (List.map
          (fun (key, n) ->
            Printf.sprintf "{\"key\":%s,\"count\":%d}" (J.quote key) n)
          c.top))

let stats_to_json (s : stats) =
  Printf.sprintf
    "{\"window\":%d,\"seen\":%d,\"total\":%s,\"cohorts\":[%s]}" s.window s.seen
    (cohort_to_json s.total)
    (String.concat "," (List.map cohort_to_json s.cohorts))
