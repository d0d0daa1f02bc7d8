(** Deterministic triage summary (see summary.mli). *)

type status = Reproduced | Salvaged_reproduced | Timed_out | Exhausted

let status_name = function
  | Reproduced -> "reproduced"
  | Salvaged_reproduced -> "salvaged_reproduced"
  | Timed_out -> "timed_out"
  | Exhausted -> "exhausted"

type entry = {
  fingerprint : string;
  program : string;
  crash : string;
  status : status;
  representative : string;
  members : string list;
  salvaged : int;
  model : (string * int) list;
  rungs : int;
  runs : int;
  elapsed_s : float;
}

type t = {
  reports : int;
  salvaged : int;
  rejected : (string * string) list;
  clusters : entry list;
  dedup_ratio : float;
  reproduced : int;
  salvaged_reproduced : int;
  timed_out : int;
  exhausted : int;
  wall_s : float;
}

let render_model (model : Solver.Model.t) (vars : Solver.Symvars.t) :
    (string * int) list =
  Solver.Model.bindings model
  |> List.map (fun (id, v) -> (Solver.Symvars.name vars id, v))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let make ~(rejected : Ingest.rejected list) ~(items : Ingest.item list)
    ~(results : Sched.cluster_result list) ~wall_s : t =
  let reports = List.length items in
  let salvaged =
    List.length (List.filter Ingest.salvaged items)
  in
  let entries, failed =
    List.fold_left
      (fun (entries, failed) (r : Sched.cluster_result) ->
        let c = r.cluster in
        match r.status with
        | Sched.Failed msg ->
            (* unresolvable program: every member becomes a rejection so no
               ingested report silently vanishes from the summary *)
            let rejections =
              List.map
                (fun (i : Ingest.item) -> (i.path, "unresolvable: " ^ msg))
                c.members
            in
            (entries, rejections @ failed)
        | _ ->
            let status, model =
              match r.status with
              | Sched.Reproduced { model; vars; crash = _ } ->
                  ( (if Cluster.salvaged c then Salvaged_reproduced
                     else Reproduced),
                    render_model model vars )
              | Sched.Timed_out -> (Timed_out, [])
              | Sched.Exhausted -> (Exhausted, [])
              | Sched.Failed _ -> assert false
            in
            let entry =
              {
                fingerprint = Fingerprint.key c.fp;
                program = c.fp.Fingerprint.program;
                crash = c.fp.Fingerprint.crash_key;
                status;
                representative = c.representative.Ingest.path;
                members =
                  List.map (fun (i : Ingest.item) -> i.Ingest.path) c.members
                  |> List.sort String.compare;
                salvaged = List.length (List.filter Ingest.salvaged c.members);
                model;
                rungs = r.rungs;
                runs = r.runs;
                elapsed_s = r.elapsed_s;
              }
            in
            (entry :: entries, failed))
      ([], []) results
  in
  let clusters =
    List.sort (fun a b -> String.compare a.fingerprint b.fingerprint) entries
  in
  let rejected =
    (List.map
       (fun (r : Ingest.rejected) ->
         (r.path, Instrument.Wire.error_to_string r.error))
       rejected
    @ failed)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let count st = List.length (List.filter (fun e -> e.status = st) clusters) in
  {
    reports;
    salvaged;
    rejected;
    clusters;
    dedup_ratio =
      (if reports = 0 then 1.0
       else float_of_int (List.length results) /. float_of_int reports);
    reproduced = count Reproduced;
    salvaged_reproduced = count Salvaged_reproduced;
    timed_out = count Timed_out;
    exhausted = count Exhausted;
    wall_s;
  }

(* ------------------------------------------------------------------ *)

let to_text (t : t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line
    "triage: %d report(s), %d salvaged, %d rejected -> %d cluster(s) (dedup \
     %.2f)"
    t.reports t.salvaged (List.length t.rejected) (List.length t.clusters)
    t.dedup_ratio;
  line
    "  %d reproduced (%d from salvage), %d timed out, %d exhausted in %.1f s"
    (t.reproduced + t.salvaged_reproduced)
    t.salvaged_reproduced t.timed_out t.exhausted t.wall_s;
  List.iter
    (fun e ->
      line "  [%s] %s %s (%d member(s), %d salvaged, %d rung(s), %d run(s), \
            %.2f s)"
        (status_name e.status) e.program e.crash (List.length e.members)
        e.salvaged e.rungs e.runs e.elapsed_s;
      match e.model with
      | [] -> ()
      | m ->
          line "      input: %s"
            (String.concat " "
               (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) m)))
    t.clusters;
  List.iter (fun (path, reason) -> line "  rejected %s: %s" path reason)
    t.rejected;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Strict JSON, rendered by hand over the shared Telemetry.Json leaf
   printers. *)

module J = Telemetry.Json

let entry_to_json ~timing (e : entry) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b "{";
  Buffer.add_string b (Printf.sprintf "\"fingerprint\":%s" (J.quote e.fingerprint));
  Buffer.add_string b (Printf.sprintf ",\"program\":%s" (J.quote e.program));
  Buffer.add_string b (Printf.sprintf ",\"crash\":%s" (J.quote e.crash));
  Buffer.add_string b
    (Printf.sprintf ",\"status\":%s" (J.quote (status_name e.status)));
  Buffer.add_string b
    (Printf.sprintf ",\"representative\":%s" (J.quote e.representative));
  Buffer.add_string b
    (Printf.sprintf ",\"members\":[%s]"
       (String.concat "," (List.map J.quote e.members)));
  Buffer.add_string b (Printf.sprintf ",\"salvaged\":%d" e.salvaged);
  Buffer.add_string b
    (Printf.sprintf ",\"model\":[%s]"
       (String.concat ","
          (List.map
             (fun (n, v) ->
               Printf.sprintf "{\"name\":%s,\"value\":%d}" (J.quote n) v)
             e.model)));
  if timing then begin
    Buffer.add_string b (Printf.sprintf ",\"rungs\":%d" e.rungs);
    Buffer.add_string b (Printf.sprintf ",\"runs\":%d" e.runs);
    Buffer.add_string b
      (Printf.sprintf ",\"elapsed_s\":%s" (J.float e.elapsed_s))
  end;
  Buffer.add_string b "}";
  Buffer.contents b

let to_json ?(timing = true) (t : t) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  Buffer.add_string b (Printf.sprintf "\"reports\":%d" t.reports);
  Buffer.add_string b (Printf.sprintf ",\"salvaged\":%d" t.salvaged);
  Buffer.add_string b
    (Printf.sprintf ",\"rejected\":[%s]"
       (String.concat ","
          (List.map
             (fun (p, r) ->
               Printf.sprintf "{\"path\":%s,\"reason\":%s}" (J.quote p) (J.quote r))
             t.rejected)));
  Buffer.add_string b
    (Printf.sprintf ",\"clusters\":[%s]"
       (String.concat "," (List.map (entry_to_json ~timing) t.clusters)));
  Buffer.add_string b
    (Printf.sprintf ",\"dedup_ratio\":%s" (J.float t.dedup_ratio));
  Buffer.add_string b
    (Printf.sprintf
       ",\"counts\":{\"reproduced\":%d,\"salvaged_reproduced\":%d,\"timed_out\":%d,\"exhausted\":%d}"
       t.reproduced t.salvaged_reproduced t.timed_out t.exhausted);
  if timing then
    Buffer.add_string b (Printf.sprintf ",\"wall_s\":%s" (J.float t.wall_s));
  Buffer.add_string b "}";
  Buffer.contents b
