(** Trace decoding, validation and pretty-printing.

    A trace is the event stream a sink saw: in-memory (from
    {!Sink.memory}) or re-read from a JSONL file (the [--trace]
    artifact).  [of_jsonl] parses the latter line by line with
    {!Json.parse} — the emitter and the reader live in the same library,
    so the format is round-trip tested.  [validate] checks the structural
    invariants CI enforces on every emitted trace: every span closed
    exactly once, start before end, parents resolving to already-open
    spans.  [tree]/[pp_tree] rebuild and render the span hierarchy. *)

(* ------------------------------------------------------------------ *)
(* JSON -> event *)

let ( let* ) = Result.bind

let obj_field o k =
  match Json.member k o with
  | Some v -> Ok v
  | None -> Error ("missing field " ^ k)

let as_int = function
  | Json.Num f when Float.is_integer f -> Ok (int_of_float f)
  | _ -> Error "expected integer"

let as_float = function
  | Json.Num f -> Ok f
  | Json.Null -> Ok Float.nan
  | _ -> Error "expected number"

let as_string = function Json.Str s -> Ok s | _ -> Error "expected string"

let attr_of_json : Json.t -> (Event.attr_value, string) result = function
  | Json.Str s -> Ok (Event.Str s)
  | Json.Bool b -> Ok (Event.Bool b)
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Ok (Event.Int (int_of_float f))
  | Json.Num f -> Ok (Event.Float f)
  | Json.Null -> Ok (Event.Float Float.nan)
  | Json.Arr _ | Json.Obj _ -> Error "nested attribute values are not supported"

let attrs_of_json (j : Json.t) : (Event.attrs, string) result =
  match j with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          let* v = attr_of_json v in
          Ok ((k, v) :: acc))
        (Ok []) fields
      |> Result.map List.rev
  | _ -> Error "attrs must be an object"

let event_of_json (j : Json.t) : (Event.t, string) result =
  let* ev = Result.bind (obj_field j "ev") as_string in
  match ev with
  | "span_begin" ->
      let* id = Result.bind (obj_field j "id") as_int in
      let* name = Result.bind (obj_field j "name") as_string in
      let* t = Result.bind (obj_field j "t") as_float in
      let* attrs =
        match obj_field j "attrs" with
        | Ok a -> attrs_of_json a
        | Error _ -> Ok []
      in
      let* parent =
        match obj_field j "parent" with
        | Ok p -> Result.map Option.some (as_int p)
        | Error _ -> Ok None
      in
      Ok (Event.Span_begin { id; parent; name; t; attrs })
  | "span_end" ->
      let* id = Result.bind (obj_field j "id") as_int in
      let* name = Result.bind (obj_field j "name") as_string in
      let* t = Result.bind (obj_field j "t") as_float in
      let* attrs =
        match obj_field j "attrs" with
        | Ok a -> attrs_of_json a
        | Error _ -> Ok []
      in
      Ok (Event.Span_end { id; name; t; attrs })
  | "sample" ->
      let* name = Result.bind (obj_field j "name") as_string in
      let* t = Result.bind (obj_field j "t") as_float in
      let* value = Result.bind (obj_field j "value") as_float in
      Ok (Event.Sample { name; t; value })
  | "counter" ->
      let* name = Result.bind (obj_field j "name") as_string in
      let* t = Result.bind (obj_field j "t") as_float in
      let* value = Result.bind (obj_field j "value") as_int in
      Ok (Event.Counter { name; t; value })
  | s -> Error ("unknown event kind " ^ s)

(** Parse a whole JSONL trace (one event per non-empty line). *)
let of_jsonl (contents : string) : (Event.t list, string) result =
  let lines = String.split_on_char '\n' contents in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> go (lineno + 1) acc rest
    | l :: rest -> (
        match Result.bind (Json.parse l) event_of_json with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Validation *)

type summary = { spans : int; events : int; roots : int }

(** Check the invariants CI enforces on every emitted trace:
    - span ids are begun at most once and ended exactly once;
    - no end without a begin, end time >= begin time;
    - a parent id refers to a span already begun (and not yet ended) when
      the child begins.
    Samples and counters are unconstrained apart from parsing. *)
let validate (events : Event.t list) : (summary, string) result =
  let open_spans : (int, float) Hashtbl.t = Hashtbl.create 32 in
  let closed : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let spans = ref 0 in
  let roots = ref 0 in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec go = function
    | [] ->
        if Hashtbl.length open_spans > 0 then
          err "%d span(s) never closed" (Hashtbl.length open_spans)
        else Ok { spans = !spans; events = List.length events; roots = !roots }
    | Event.Span_begin b :: rest ->
        if Hashtbl.mem open_spans b.id || Hashtbl.mem closed b.id then
          err "span id %d begun twice" b.id
        else begin
          (match b.parent with
          | None -> Ok ()
          | Some p ->
              if Hashtbl.mem open_spans p then Ok ()
              else err "span %d (%s): parent %d is not an open span" b.id b.name p)
          |> function
          | Error _ as e -> e
          | Ok () ->
              Hashtbl.replace open_spans b.id b.t;
              incr spans;
              if b.parent = None then incr roots;
              go rest
        end
    | Event.Span_end e :: rest -> (
        match Hashtbl.find_opt open_spans e.id with
        | None ->
            if Hashtbl.mem closed e.id then err "span id %d ended twice" e.id
            else err "span id %d ended but never begun" e.id
        | Some t0 ->
            if e.t < t0 then
              err "span %d (%s): end %.6f before begin %.6f" e.id e.name e.t t0
            else begin
              Hashtbl.remove open_spans e.id;
              Hashtbl.replace closed e.id ();
              go rest
            end)
    | (Event.Sample _ | Event.Counter _) :: rest -> go rest
  in
  go events

(** Parse and validate a JSONL trace file. *)
let validate_file (path : string) : (summary, string) result =
  let contents =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Result.bind (of_jsonl contents) validate

(* ------------------------------------------------------------------ *)
(* Span tree *)

type node = {
  id : int;
  name : string;
  start_t : float;
  end_t : float;
  begin_attrs : Event.attrs;
  end_attrs : Event.attrs;
  children : node list;  (** in start order *)
}

(** Rebuild the span forest (roots in start order).  Unclosed spans get
    [end_t = start_t]; orphaned parents demote the child to a root, so the
    printer is usable even on a trace that fails {!validate}. *)
let tree (events : Event.t list) : node list =
  let begins : (int, int option * string * float * Event.attrs) Hashtbl.t =
    Hashtbl.create 32
  in
  let ends : (int, float * Event.attrs) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (function
      | Event.Span_begin b ->
          Hashtbl.replace begins b.id (b.parent, b.name, b.t, b.attrs);
          order := b.id :: !order
      | Event.Span_end e -> Hashtbl.replace ends e.id (e.t, e.attrs)
      | Event.Sample _ | Event.Counter _ -> ())
    events;
  let order = List.rev !order in
  let children_of : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  let root_ids = ref [] in
  List.iter
    (fun id ->
      let parent, _, _, _ = Hashtbl.find begins id in
      match parent with
      | Some p when Hashtbl.mem begins p ->
          Hashtbl.replace children_of p
            (id :: Option.value ~default:[] (Hashtbl.find_opt children_of p))
      | _ -> root_ids := id :: !root_ids)
    order;
  let rec build id : node =
    let _, name, start_t, begin_attrs = Hashtbl.find begins id in
    let end_t, end_attrs =
      Option.value ~default:(start_t, []) (Hashtbl.find_opt ends id)
    in
    let kids =
      Option.value ~default:[] (Hashtbl.find_opt children_of id)
      |> List.rev |> List.map build
    in
    { id; name; start_t; end_t; begin_attrs; end_attrs; children = kids }
  in
  List.rev_map build !root_ids

let attr_to_string (k, v) = Printf.sprintf "%s=%s" k (Event.attr_value_to_json v)

(** Render the span forest with durations and end attributes:
    {v
    analyze                             0.132s
      analyze.dynamic                   0.101s  runs=42 coverage=0.87
    v} *)
let pp_tree (fmt : Format.formatter) (nodes : node list) =
  let rec pp_node depth (n : node) =
    let label = String.make (2 * depth) ' ' ^ n.name in
    let attrs =
      n.begin_attrs @ n.end_attrs |> List.map attr_to_string |> String.concat " "
    in
    Format.fprintf fmt "%-42s %8.3fs%s@\n" label (n.end_t -. n.start_t)
      (if attrs = "" then "" else "  " ^ attrs);
    List.iter (pp_node (depth + 1)) n.children
  in
  List.iter (pp_node 0) nodes

let tree_to_string (events : Event.t list) : string =
  Format.asprintf "%a" pp_tree (tree events)
