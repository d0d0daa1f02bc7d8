(** Telemetry events: the vocabulary every sink consumes.

    Timestamps are seconds relative to the owning handle's creation. *)

type attr_value = Str of string | Int of int | Float of float | Bool of bool

type attrs = (string * attr_value) list

type t =
  | Span_begin of {
      id : int;
      parent : int option;
      name : string;
      t : float;
      attrs : attrs;
    }
  | Span_end of { id : int; name : string; t : float; attrs : attrs }
  | Sample of { name : string; t : float; value : float }
      (** one point of a time series, emitted as it is observed *)
  | Counter of { name : string; t : float; value : int }
      (** final (monotonic) counter value, emitted on publish *)

(** One-line strict-JSON form, the unit of the [--trace] JSONL output. *)
val to_json : t -> string

(**/**)

(* exposed for the trace pretty-printer *)
val attr_value_to_json : attr_value -> string
