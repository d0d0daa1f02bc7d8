(** Telemetry events: the vocabulary every sink consumes.

    Four event kinds cover the whole observation surface of the pipeline:
    span begin/end pairs (nested, monotonic timestamps), point-in-time
    samples (time series such as the exploration frontier depth) and final
    counter values published when a stage closes.  Timestamps are seconds
    relative to the owning handle's creation, so traces are
    machine-comparable without a shared epoch. *)

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

(* ------------------------------------------------------------------ *)
(* Strict-JSON encoding (one object per line; CI parses it) *)

let attr_value_to_json = function
  | Str s -> Json.quote s
  | Int i -> string_of_int i
  | Float f -> Json.float f
  | Bool b -> if b then "true" else "false"

let attrs_to_json (attrs : attrs) =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %s" (Json.escape k) (attr_value_to_json v)))
    attrs;
  Buffer.add_char b '}';
  Buffer.contents b

(** One-line strict-JSON form, the unit of the [--trace] JSONL output. *)
let to_json (e : t) : string =
  match e with
  | Span_begin s ->
      Printf.sprintf
        "{\"ev\": \"span_begin\", \"id\": %d%s, \"name\": \"%s\", \"t\": %s, \
         \"attrs\": %s}"
        s.id
        (match s.parent with
        | Some p -> Printf.sprintf ", \"parent\": %d" p
        | None -> "")
        (Json.escape s.name) (Json.float s.t) (attrs_to_json s.attrs)
  | Span_end s ->
      Printf.sprintf
        "{\"ev\": \"span_end\", \"id\": %d, \"name\": \"%s\", \"t\": %s, \
         \"attrs\": %s}"
        s.id (Json.escape s.name) (Json.float s.t) (attrs_to_json s.attrs)
  | Sample s ->
      Printf.sprintf "{\"ev\": \"sample\", \"name\": \"%s\", \"t\": %s, \"value\": %s}"
        (Json.escape s.name) (Json.float s.t) (Json.float s.value)
  | Counter c ->
      Printf.sprintf "{\"ev\": \"counter\", \"name\": \"%s\", \"t\": %s, \"value\": %d}"
        (Json.escape c.name) (Json.float c.t) c.value
