(** Persistent on-disk fingerprint index: crash buckets survive restarts.

    The streaming service appends every accepted report to an index
    directory so that a killed and reopened service rebuilds exactly the
    clusters it had — the representative election, the salvage flags, the
    member paths, all of it.  Records therefore store the {e original}
    wire text as received (a torn report is re-salvaged on reload, so a
    salvaged member does not silently become intact across a restart)
    plus the salvage flag as a consistency check.

    Layout: [dir/shard-NNN.idx], one file per shard, sharded by a hash of
    the report's crash-site key ([kind@file:line:col#func]) so one hot
    crash bucket's churn stays in one file.  Each shard is append-only:
    a version header line, then length-prefixed records.  Appends are
    single buffered writes flushed before {!append} returns, so a crash
    of the {e service} loses at most the record being written.

    A kill of the service {e during} an append leaves a torn tail: the
    shard's trailing bytes are a strict prefix of a record frame (or of the
    header line, for a kill while a fresh index is being created).  That
    append never returned, so the bytes are not history: {!open_} cuts them
    off (reporting the count through {!truncated_bytes}) before reopening
    the shard for append.

    Otherwise fail-closed like {!Instrument.Wire}: {!open_} rejects a shard
    whose header names an unsupported version ([Unknown_version] is an
    upgrade problem) and rejects any malformed record before the tail, or
    any complete record that no longer ingests ([Malformed]), rather than
    guessing — a triage tier must not silently drop history it was asked
    to keep. *)

(** Header written to every shard: [magic_prefix ^ version]. *)
val magic_prefix : string

val version : int

type error =
  | Unknown_version of int  (** intact header naming a newer format *)
  | Malformed of string  (** anything else wrong with a shard *)

val error_to_string : error -> string

type t

(** [open_ ~dir ()] creates [dir] (and its shards' header lines) if
    missing, or loads every existing shard.  [shards] (default 16) only
    applies to a fresh directory — an existing index keeps the shard
    count it was created with.  Truncates a torn shard tail to its last
    complete record; fails closed on any other damage, leaving every shard
    untouched. *)
val open_ : ?shards:int -> dir:string -> unit -> (t, error) result

(** Reports recovered on open, in (shard, record) order.  Re-ingested
    through {!Ingest.of_string}, so salvage state matches the original
    submission; the recorded salvage flag is verified against the
    re-ingest and mismatches fail closed. *)
val items : t -> Ingest.item list

(** Append one accepted report.  [raw] is the wire text as originally
    received (defaults to re-serializing the parsed report, in which case
    a salvaged item is recorded with its salvage flag so reload can
    restore it).  Flushed before returning. *)
val append : ?raw:string -> t -> Ingest.item -> unit

(** Number of records across all shards (loaded + appended). *)
val size : t -> int

val shard_count : t -> int

(** Torn-tail bytes {!open_} cut off across all shards (0 for a clean
    index). *)
val truncated_bytes : t -> int

(** Flush and close every shard file.  The index stays readable on disk;
    a later {!open_} reloads it. *)
val close : t -> unit
