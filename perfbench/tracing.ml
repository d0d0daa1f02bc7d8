(* The traced run's telemetry: an enabled handle over an in-memory sink.
   The collected events are rendered to JSONL and read back through
   [Telemetry.Trace], the same path a [--trace] artifact takes. *)

type t = { tel : Telemetry.t; events : unit -> Telemetry.Event.t list }

let off = { tel = Telemetry.disabled; events = (fun () -> []) }

let on () =
  let sink, events = Telemetry.Sink.memory () in
  { tel = Telemetry.create ~sink (); events }

let enabled t = Telemetry.enabled t.tel

let jsonl t =
  String.concat "\n" (List.map Telemetry.Event.to_json (t.events ()))

let forest t =
  match Telemetry.Trace.of_jsonl (jsonl t) with
  | Ok events -> Telemetry.Trace.tree events
  | Error e -> failwith ("trace does not parse: " ^ e)

(* Total seconds recorded into histogram [name]. *)
let hist_sum t name =
  let s = Telemetry.Counters.of_core t.tel in
  match
    ( Telemetry.Counters.gauge s (name ^ ".mean"),
      Telemetry.Counters.gauge s (name ^ ".count") )
  with
  | Some m, Some c -> m *. c
  | _ -> 0.0

(* Summed duration of every span called [name]. *)
let span_seconds forest name =
  List.fold_left
    (fun acc n -> acc +. Selftime.duration n)
    0.0 (Selftime.named name forest)

let span_count forest name = List.length (Selftime.named name forest)
