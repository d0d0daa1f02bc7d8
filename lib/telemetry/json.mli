(** The repository's one JSON codec.

    Every strict-JSON artifact (the [--trace] JSONL lines, triage and
    service summaries, precision/suppression/adaptive reports, the bench
    summary) is rendered by its own [Printf] layout over {!escape} and
    {!float}, and every JSON input (trace re-reading, the bench gate's
    baselines) goes through {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

(** Parse one RFC 8259 value, surrounded by optional whitespace.  Rejects
    what Python's [json] rejects: leading zeros, a leading [+], a bare
    [.] or a missing fraction/exponent digit, [NaN]/[Infinity], trailing
    commas, raw control characters inside strings, malformed [\u]
    escapes and unpaired surrogates.  [\u] escapes decode to UTF-8 (a
    surrogate pair to one code point); other string bytes are copied
    through unchanged.  Errors name the byte offset. *)
val parse : string -> (t, string) result

(** [member k v] is the first member [k] of object [v]. *)
val member : string -> t -> t option

(** The body of a JSON string literal for [s] (no surrounding quotes):
    escapes the double quote, the backslash, [\n], [\t] and every other
    byte below 0x20 as [\u00XX]; all other bytes pass through. *)
val escape : string -> string

(** [escape s] between double quotes: a whole JSON string literal. *)
val quote : string -> string

(** A JSON number for [v]: integers below 1e15 without a fraction,
    otherwise the shortest of [%.15g]/[%.17g] that reads back as [v];
    NaN and infinities print [null]. *)
val float : float -> string
