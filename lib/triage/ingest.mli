(** Report ingestion: one read, salvage on damage.

    Every input is read once by {!Instrument.Wire.deserialize_salvage}.
    A complete diagnosis is exactly what the fail-closed
    {!Instrument.Wire.deserialize_v} would accept, so an intact report
    comes through unsalvaged and is never silently reinterpreted; a
    damaged one keeps its diagnosis.  An [Unknown_version] stays a
    rejection — "upgrade your tool" must not be laundered into a shorter
    log. *)

type item = {
  path : string;  (** source file (or a synthetic label for in-memory) *)
  report : Instrument.Report.t;
  salvage : Instrument.Wire.salvage option;
      (** [None] = intact (the strict reader accepts it); [Some d] =
          recovered prefix *)
}

type rejected = { path : string; error : Instrument.Wire.error }

(** True when the item came through the salvage path. *)
val salvaged : item -> bool

(** Ingest one report's wire text. *)
val of_string : path:string -> string -> (item, rejected) result

(** Ingest one report file.  An unreadable file is a rejection whose
    [Malformed] message carries the OS error text verbatim (e.g.
    ["unreadable: r0.report: Permission denied"]), never an exception. *)
val of_file : string -> (item, rejected) result

(** Ingest every [*.report] file of a directory, in sorted filename order
    (the order is part of the deterministic summary).  Unreadable files
    are rejected with the OS error text, not raised. *)
val load_dir : string -> item list * rejected list

(** {2 Incremental ingestion}

    A long-running service must pick up report files {e as they appear}
    without re-reading the whole directory's contents each time.  A
    {!scanner} remembers which filenames it has already offered; each
    {!poll} lists the directory once and ingests only names that are new
    — or whose previous ingest was provisional.  A name whose strict
    parse succeeded is settled and never offered again; a name that had
    to be salvaged or was rejected (typically a file scanned mid-write)
    is remembered with the (size, mtime) observed {e before} the read,
    and is offered again as soon as the file's stat moves past it — so
    when the writer finishes, the intact version flows through and
    supersedes the torn one in clustering.  A stat that stays put keeps
    the damaged verdict without re-reading the file every poll. *)

type scanner

(** Watch [dir] for [*.report] files.  The directory need not exist yet;
    polls before it appears return nothing. *)
val scanner : string -> scanner

(** Ingest files that appeared since the previous poll, in sorted
    filename order.  A directory that vanished or cannot be listed yields
    ([[]], [[]]) — the next poll retries. *)
val poll : scanner -> item list * rejected list

(** Filenames the scanner has already offered (sorted). *)
val seen : scanner -> string list
