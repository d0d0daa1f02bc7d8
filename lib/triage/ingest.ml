(** Report ingestion (see ingest.mli). *)

open Instrument

type item = {
  path : string;
  report : Report.t;
  salvage : Wire.salvage option;
}

type rejected = { path : string; error : Wire.error }

let salvaged (i : item) = i.salvage <> None

let of_string ~path (s : string) : (item, rejected) result =
  match Wire.deserialize_salvage s with
  | Ok (report, diag) ->
      Ok { path; report; salvage = (if diag.complete then None else Some diag) }
  | Error error -> Error { path; error }

(* Read the whole file; any I/O failure (missing, EISDIR, a file that
   shrank between length and read) becomes an error string carrying the
   OS error text, never an exception. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error (path ^ ": truncated while reading")

let of_file path : (item, rejected) result =
  match read_file path with
  | Error msg -> Error { path; error = Wire.Malformed ("unreadable: " ^ msg) }
  | Ok text -> of_string ~path text

let report_names dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter (fun n -> Filename.check_suffix n ".report")
      |> List.sort String.compare
  | exception Sys_error _ -> []

let ingest_names dir names : item list * rejected list =
  let items, rejects =
    List.fold_left
      (fun (items, rejects) name ->
        match of_file (Filename.concat dir name) with
        | Ok i -> (i :: items, rejects)
        | Error r -> (items, r :: rejects))
      ([], []) names
  in
  (List.rev items, List.rev rejects)

let load_dir dir : item list * rejected list =
  ingest_names dir (report_names dir)

(* ------------------------------------------------------------------ *)
(* Incremental ingestion *)

(* What the scanner remembers about an offered name.  [Sticky] — the
   strict parser accepted the file, so its content is settled and the
   name is never offered again.  [Retry] — the ingest had to salvage or
   reject (typically a file scanned mid-write), so the name is offered
   again whenever the file's (size, mtime) moves past what was read:
   once the writer finishes, the intact version replaces the torn one
   downstream ({!Cluster.better} prefers intact over salvaged). *)
type entry = Sticky | Retry of { size : int; mtime : float }

type scanner = { dir : string; seen_tbl : (string, entry) Hashtbl.t }

let scanner dir = { dir; seen_tbl = Hashtbl.create 64 }

let stat_entry path =
  match Unix.stat path with
  | st -> Some (Retry { size = st.Unix.st_size; mtime = st.Unix.st_mtime })
  | exception Unix.Unix_error _ -> None

let poll (s : scanner) : item list * rejected list =
  let offer =
    report_names s.dir
    |> List.filter (fun n ->
           match Hashtbl.find_opt s.seen_tbl n with
           | None -> true
           | Some Sticky -> false
           | Some (Retry _ as prior) -> (
               (* re-offer only when the file demonstrably changed since
                  the salvaged/rejected read; a failed stat (vanished
                  file) keeps the prior entry and skips this round *)
               match stat_entry (Filename.concat s.dir n) with
               | Some now -> now <> prior
               | None -> false))
  in
  (* Stat [before] reading: if the writer appends during or after our
     read, the live stat moves past the recorded one and the next poll
     re-offers the name.  Stat-after would race — a write finishing
     between read and stat records the settled file against torn
     content, burying the intact version forever. *)
  let pre =
    List.map (fun n -> (n, stat_entry (Filename.concat s.dir n))) offer
  in
  let items, rejects = ingest_names s.dir offer in
  let record name ~settled =
    if settled then Hashtbl.replace s.seen_tbl name Sticky
    else
      match List.assoc_opt name pre with
      | Some (Some e) -> Hashtbl.replace s.seen_tbl name e
      | Some None | None ->
          (* vanished before we could stat it: forget the name so a
             reappearance is treated as fresh *)
          Hashtbl.remove s.seen_tbl name
  in
  List.iter
    (fun (i : item) ->
      record (Filename.basename i.path) ~settled:(i.salvage = None))
    items;
  List.iter
    (fun (r : rejected) -> record (Filename.basename r.path) ~settled:false)
    rejects;
  (items, rejects)

let seen (s : scanner) =
  Hashtbl.fold (fun n _ acc -> n :: acc) s.seen_tbl []
  |> List.sort String.compare
