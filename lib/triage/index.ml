(** Persistent sharded fingerprint index (see index.mli). *)

let magic_prefix = "bugrepro-index/"
let version = 1

type error = Unknown_version of int | Malformed of string

let error_to_string = function
  | Unknown_version v -> Printf.sprintf "unsupported index version %d" v
  | Malformed m -> "malformed index: " ^ m

type t = {
  dir : string;
  shards : out_channel array;  (** append handles, one per shard file *)
  mutable loaded : Ingest.item list;  (** reverse record order *)
  mutable n_records : int;
  truncated_bytes : int;  (** torn-tail bytes cut off by {!open_} *)
  mutable closed : bool;
}

let shard_path dir i = Filename.concat dir (Printf.sprintf "shard-%03d.idx" i)

(* Shard choice: the crash-site key alone (not the full fingerprint, whose
   log sketch would stream every bit of the report), so every report of
   one crash bucket — torn or intact, any log length — lands in the same
   file. *)
let shard_of_report nshards (r : Instrument.Report.t) =
  Hashtbl.hash (Fingerprint.crash_key r.crash) mod nshards

(* ------------------------------------------------------------------ *)
(* Record format, after the header line:
     item <salvaged:0|1> <path-byte-length> <raw-byte-length>\n
     <path bytes>\n
     <raw bytes>\n
   Lengths are byte counts of the payloads alone (not the framing \n). *)

let write_record oc ~salvaged ~path ~raw =
  Printf.fprintf oc "item %d %d %d\n%s\n%s\n"
    (if salvaged then 1 else 0)
    (String.length path) (String.length raw) path raw;
  flush oc

(* A synthetic diagnosis for reloads where only the flag survived (the
   caller appended a re-serialized report): keeps Ingest.salvaged true
   without inventing loss numbers. *)
let synthetic_salvage : Instrument.Wire.salvage =
  {
    complete = false;
    damage = Some "salvaged before a re-serialized copy was appended";
    dropped_lines = 0;
    lost_log_bits = 0;
    dropped_syscalls = 0;
    dropped_schedule = false;
  }

let header_line = Printf.sprintf "%s%d\n" magic_prefix version

(* [s] could be the start of a record header line cut short by a kill *)
let torn_record_header s =
  let k = "item " in
  let m = min (String.length s) (String.length k) in
  String.sub s 0 m = String.sub k 0 m
  && String.for_all
       (fun c -> c = ' ' || (c >= '0' && c <= '9'))
       (String.sub s m (String.length s - m))

(* A record header line starts somewhere in [text] after [from]: a frame
   that runs past the end of the file yet holds the next record's header
   has a corrupted length, not a torn write. *)
let rec record_header_after text from =
  match String.index_from_opt text from '\n' with
  | None -> false
  | Some i ->
      (i + 6 <= String.length text && String.sub text (i + 1) 5 = "item ")
      || record_header_after text (i + 1)

(* Parse a shard into its records and the byte length of the prefix they
   (and the header) occupy.  Only the tail can be torn: a kill during
   [write_record], or during a fresh shard's header write, leaves trailing
   bytes that are a strict prefix of a frame.  That append never returned,
   so those bytes are not history; the caller cuts them off.  A header-less
   shard reports a prefix of 0 (the header must be rewritten).  Anything
   else wrong — a complete frame that fails to ingest, any damage before
   the tail — still fails closed. *)
let parse_shard ~file (text : string) : (Ingest.item list * int, error) result =
  let n = String.length text in
  let fail fmt = Printf.ksprintf (fun m -> Error (Malformed (file ^ ": " ^ m))) fmt in
  match String.index_opt text '\n' with
  | None ->
      if String.starts_with ~prefix:text header_line then Ok ([], 0)
      else fail "missing newline"
  | Some hdr_end -> (
      let header = String.sub text 0 hdr_end in
      let plen = String.length magic_prefix in
      if
        String.length header < plen
        || String.sub header 0 plen <> magic_prefix
      then fail "bad magic in header %S" header
      else
        match int_of_string_opt (String.sub header plen (String.length header - plen)) with
        | None -> fail "unreadable version in header %S" header
        | Some v when v < 1 || v > version -> Error (Unknown_version v)
        | Some _ ->
            let torn pos acc = Ok (List.rev acc, pos) in
            let rec records pos acc =
              if pos >= n then Ok (List.rev acc, n)
              else
                match String.index_from_opt text pos '\n' with
                | None ->
                    let rest = String.sub text pos (n - pos) in
                    if torn_record_header rest then torn pos acc
                    else fail "bad record header %S" rest
                | Some hend -> (
                    let hline = String.sub text pos (hend - pos) in
                    match String.split_on_char ' ' hline with
                    | [ "item"; sflag; spath; sraw ] -> (
                        match
                          ( int_of_string_opt sflag,
                            int_of_string_opt spath,
                            int_of_string_opt sraw )
                        with
                        | Some flag, Some plen, Some rlen
                          when (flag = 0 || flag = 1)
                               (* bounded so the frame arithmetic cannot
                                  overflow; a torn frame may be longer
                                  than the file *)
                               && 0 <= plen && plen <= Sys.max_string_length
                               && 0 <= rlen && rlen <= Sys.max_string_length -> (
                            let path_end = hend + 1 + plen in
                            let frame_end = path_end + 1 + rlen + 1 in
                            if frame_end > n then
                              (* the frame runs past the end of the file:
                                 torn, if what is there is a prefix of it *)
                              if
                                (path_end >= n || text.[path_end] = '\n')
                                && not (record_header_after text hend)
                              then torn pos acc
                              else fail "record %S runs past the end of the file" hline
                            else if
                              text.[path_end] <> '\n' || text.[frame_end - 1] <> '\n'
                            then fail "bad record framing after %S" hline
                            else
                              let path = String.sub text (hend + 1) plen in
                              let raw = String.sub text (path_end + 1) rlen in
                              (* re-ingest the original bytes through the
                                 one wire read — identical to the live
                                 submission path *)
                              match Ingest.of_string ~path raw with
                              | Error r ->
                                  fail "record %S no longer ingests (%s)" path
                                    (Instrument.Wire.error_to_string
                                       r.Ingest.error)
                              | Ok item ->
                                  let item =
                                    if flag = 1 && item.Ingest.salvage = None
                                    then
                                      (* appended from a parsed report whose
                                         original tear is gone; restore the
                                         salvage flag the submitter saw *)
                                      { item with
                                        Ingest.salvage = Some synthetic_salvage }
                                    else item
                                  in
                                  if flag = 0 && Ingest.salvaged item then
                                    fail
                                      "record %S was intact at append time but \
                                       salvages now"
                                      path
                                  else records frame_end (item :: acc))
                        | _ -> fail "bad record header %S" hline)
                    | _ -> fail "bad record header %S" hline)
            in
            records (hdr_end + 1) [])

(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let existing_shards dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter (fun n ->
             String.length n = String.length "shard-000.idx"
             && String.sub n 0 6 = "shard-"
             && Filename.check_suffix n ".idx")
      |> List.sort String.compare
  | exception Sys_error _ -> []

let open_ ?(shards = 16) ~dir () : (t, error) result =
  if shards <= 0 then invalid_arg "Index.open_: shards must be positive";
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let names = existing_shards dir in
  let fresh = names = [] in
  let nshards = if fresh then shards else List.length names in
  let write_header file =
    Out_channel.with_open_bin file (fun oc -> output_string oc header_line)
  in
  if fresh then
    (* write every header up front so the shard count is recorded on disk
       and reopen never has to guess it *)
    for i = 0 to nshards - 1 do
      write_header (shard_path dir i)
    done;
  (* parse every shard before cutting any torn tail, so an index that
     fails closed is left exactly as it was found *)
  let rec load i acc =
    if i >= nshards then Ok (List.rev acc)
    else
      let file = shard_path dir i in
      match read_file file with
      | exception Sys_error msg -> Error (Malformed ("unreadable: " ^ msg))
      | text -> (
          match parse_shard ~file:(Filename.basename file) text with
          | Error e -> Error e
          | Ok (items, keep) ->
              load (i + 1) ((file, String.length text - keep, keep, items) :: acc))
  in
  match load 0 [] with
  | Error e -> Error e
  | Ok shards_read ->
      List.iter
        (fun (file, torn, keep, _) ->
          if keep = 0 then write_header file
          else if torn > 0 then Unix.truncate file keep)
        shards_read;
      let loaded_items = List.concat_map (fun (_, _, _, items) -> items) shards_read in
      let handles =
        Array.init nshards (fun i ->
            open_out_gen [ Open_append; Open_binary ] 0o644 (shard_path dir i))
      in
      Ok
        {
          dir;
          shards = handles;
          loaded = List.rev loaded_items;
          n_records = List.length loaded_items;
          truncated_bytes =
            List.fold_left (fun acc (_, torn, _, _) -> acc + torn) 0 shards_read;
          closed = false;
        }

let items (t : t) = List.rev t.loaded
let size (t : t) = t.n_records
let shard_count (t : t) = Array.length t.shards
let truncated_bytes (t : t) = t.truncated_bytes

let append ?raw (t : t) (item : Ingest.item) =
  if t.closed then invalid_arg "Index.append: index is closed";
  let raw =
    match raw with
    | Some r -> r
    | None -> Instrument.Wire.serialize item.Ingest.report
  in
  let shard = shard_of_report (Array.length t.shards) item.Ingest.report in
  write_record t.shards.(shard) ~salvaged:(Ingest.salvaged item)
    ~path:item.Ingest.path ~raw;
  t.n_records <- t.n_records + 1

let close (t : t) =
  if not t.closed then begin
    t.closed <- true;
    Array.iter close_out_noerr t.shards
  end
