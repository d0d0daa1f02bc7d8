(** Fingerprint clustering (see cluster.mli). *)

type t = {
  fp : Fingerprint.t;
  representative : Ingest.item;
  members : Ingest.item list;
}

let size t = List.length t.members
let salvaged t = Ingest.salvaged t.representative

(* Election order: intact beats salvaged (a full log replays under pure
   log-guidance; a torn one starts forking at the tear), longer log beats
   shorter (more §3.1 case-2a pins), path breaks the remaining ties. *)
let better (a : Ingest.item) (b : Ingest.item) =
  let intact i = if Ingest.salvaged i then 1 else 0 in
  let c = compare (intact a) (intact b) in
  if c <> 0 then c < 0
  else
    let c =
      compare
        (Instrument.Report.nbits b.report)
        (Instrument.Report.nbits a.report)
    in
    if c <> 0 then c < 0 else String.compare a.path b.path < 0

(* ------------------------------------------------------------------ *)
(* Incremental builder: the same buckets as a one-shot [group], grown one
   item at a time.  Snapshots re-sort members and re-elect from scratch,
   so the rendered clusters depend only on the item *set*, never the
   insertion order — the property the restart oracle locks. *)

type builder = {
  tbl : (string, Fingerprint.t * Ingest.item list ref) Hashtbl.t;
  mutable n_items : int;
}

let builder () = { tbl = Hashtbl.create 64; n_items = 0 }

let insert (b : builder) (i : Ingest.item) =
  let fp = Fingerprint.of_report i.Ingest.report in
  let k = Fingerprint.key fp in
  b.n_items <- b.n_items + 1;
  match Hashtbl.find_opt b.tbl k with
  | Some (_, members) ->
      members := i :: !members;
      `Merged fp
  | None ->
      Hashtbl.add b.tbl k (fp, ref [ i ]);
      `New fp

let bucket_count (b : builder) = Hashtbl.length b.tbl
let item_count (b : builder) = b.n_items

let snapshot (b : builder) : t list =
  Hashtbl.fold
    (fun _k (fp, members) acc ->
      let members =
        List.sort
          (fun (a : Ingest.item) b -> String.compare a.path b.path)
          !members
      in
      let representative =
        match members with
        | [] -> assert false
        | first :: rest ->
            List.fold_left
              (fun best i -> if better i best then i else best)
              first rest
      in
      { fp; representative; members } :: acc)
    b.tbl []
  |> List.sort (fun a b ->
         String.compare (Fingerprint.key a.fp) (Fingerprint.key b.fp))

let group (items : Ingest.item list) : t list =
  let b = builder () in
  List.iter (fun i -> ignore (insert b i)) items;
  snapshot b
