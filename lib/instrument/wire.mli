(** Wire format for bug reports.

    Line-oriented text with hex-encoded log bytes; everything in it is
    shippable by design (branch bits, numeric syscall results, schedule
    decisions, crash site, input shape — no input content exists to leak).
    Round-trip identity is property-tested.

    The header line is [magic_prefix ^ version] — the version integer is
    the format's version byte.  Writers emit the current {!version};
    readers accept [1 .. version] and reject anything else with
    {!Unknown_version}, distinct from {!Malformed} so callers can tell
    "upgrade your tool" apart from corruption.  v1 -> v2 added the
    [branch-flushes] field (v1 reports read back with [flushes = 0]);
    v2 -> v3 the fail-closed [suppression] probe-elision table; v3 -> v4
    the online-encoded [branch-enc] payload (a {!Codec} token stream;
    exactly one of [branch-log]/[branch-enc] per report, the stream must
    decode to exactly the claimed bit count, salvage cuts it at the last
    complete token). *)

val magic_prefix : string

(** Version written by {!serialize}; the newest {!deserialize_v} reads. *)
val version : int

(** The full current header line, [magic_prefix ^ string_of_int version]. *)
val magic : string

type error =
  | Unknown_version of int
      (** well-formed header naming an unsupported format version *)
  | Malformed of string  (** anything else wrong with the input *)

val error_to_string : error -> string
val serialize : Report.t -> string

(** Lower-case hex, two digits per byte: the encoding of the payload
    lines. *)
val hex_of_string : string -> string

(** The byte range [(start, stop)] of the branch payload hex: the text
    after the first ["branch-enc: "] when the wire has one, else after the
    first ["branch-log: "], up to the end of that line (or of the wire).
    [None] when neither key occurs.  Fault injectors use it to cut a
    report inside its payload. *)
val payload_span : string -> (int * int) option

(** {2 Reading}

    One field walk, {!deserialize_salvage}, reads every report; it
    records each departure from a clean report as damage and keeps going
    where it can.  {!deserialize_v} is the strict view of the same walk:
    it accepts exactly the inputs salvage diagnoses [complete], and
    otherwise fails {!Malformed} naming the first damage.  Use
    {!deserialize_v} when corruption should be loud; use salvage in
    ingestion tiers that would rather replay a shorter log than lose the
    report — a report whose tail was lost when the crashing process tore
    its own 4 KB log buffer can still be replayed, degrading into
    [log_exhausted] forking (§3.1 case 1) instead of being dropped.

    Damage, each named by the field it hits: a field line that does not
    parse, a line without [':'], a repeated key, a missing [branch-bits]
    or payload line, both payload lines, [branch-enc] below v4, hex that
    is not whole bytes (an odd trailing nibble included), a token stream
    that does not decode to exactly the claimed bit count, a raw log
    shorter than its claim, and a torn syscall or schedule list.  Unknown
    keys are not damage (forward compatibility within a version). *)

(** Diagnosis of what a salvage pass had to give up. *)
type salvage = {
  complete : bool;
      (** no damage: the strict reader accepts this input as is *)
  damage : string option;
      (** the first damage found, naming its field; [None] iff [complete] *)
  dropped_lines : int;  (** field lines lost to the tear (or unparsable) *)
  lost_log_bits : int;  (** claimed branch bits minus salvaged bits *)
  dropped_syscalls : int;  (** syscall entries lost from the log's tail *)
  dropped_schedule : bool;  (** the schedule log did not survive *)
}

(** Recover the longest valid prefix of a torn report.  The header must
    be intact and name a supported version ({!Unknown_version} stays
    fail-closed — that is an upgrade problem, not a tear); field lines
    are then consumed in order up to the first damaged one, with the
    branch payload hex, syscall list and schedule list each cut back to
    their longest complete prefix.  An encoded payload is cut at its last
    complete token and never decodes past the claimed [branch-bits];
    without a claim no payload bit is kept.  Fails {!Malformed} only when
    the identity fields (program, method, crash site, input shape) did
    not survive, or when a [suppression] table is damaged (fail-closed: a
    suppressed log without its exact table is garbage).  Never raises. *)
val deserialize_salvage : string -> (Report.t * salvage, error) result

(** The strict reader: [Ok r] exactly when {!deserialize_salvage} returns
    [r] with a [complete] diagnosis; {!Unknown_version} on a version
    outside [1 .. version]; {!Malformed} naming the first damage
    otherwise. *)
val deserialize_v : string -> (Report.t, error) result
