(** Streaming triage service (see service.mli). *)

type drop_policy = Reject_new | Drop_oldest | Sample of float

type config = {
  policy : Sched.policy;
  queue_capacity : int;
  drop : drop_policy;
  burst : int;
  window : int;
  window_k : int;
  eager : bool;
  wall_rungs : bool;
  index_dir : string option;
  index_shards : int;
}

let default_config =
  {
    policy = Sched.default_policy;
    queue_capacity = 256;
    drop = Reject_new;
    burst = 32;
    window = 256;
    window_k = 5;
    eager = true;
    wall_rungs = false;
    index_dir = None;
    index_shards = 16;
  }

(* Run-bounded rungs (the default): strip the wall-clock component from
   every ladder rung, so a cluster's verdict depends only on how many
   replay runs its budget allows — not on whether a shared core happened
   to be slow that day.  Two services fed the same stream then agree on
   reproduced-vs-timed_out for borderline clusters.  [wall_rungs] opts
   back into the paper's wall-clock ladder (the batch CLI keeps it, so
   --deadline/--timeout still mean seconds there). *)
let effective_policy (c : config) : Sched.policy =
  if c.wall_rungs then c.policy
  else
    {
      c.policy with
      Sched.ladder =
        List.map
          (fun (r : Concolic.Engine.budget) ->
            { r with Concolic.Engine.max_time_s = infinity })
          c.policy.Sched.ladder;
    }

type outcome =
  | Queued
  | Dropped of string
  | Rejected of Instrument.Wire.error

type t = {
  config : config;
  telemetry : Telemetry.t;
  resolve : Sched.resolve;
  (* parsed report + the wire text as originally received (None when the
     submitter handed us an already-parsed item) *)
  queue : (Ingest.item * string option) Queue.t;
  rng : Osmodel.Rng.t;  (** drives {!Sample}; seeded from the policy seed *)
  builder : Cluster.builder;
  reps : (string, Ingest.item) Hashtbl.t;  (** fp key → elected head *)
  courses : (string, Sched.course) Hashtbl.t;  (** fp key → climb state *)
  failures : (string, string) Hashtbl.t;  (** fp key → resolve error *)
  cache : Solver.Cache.t option;  (** shared across every replay, like a batch *)
  window : Window.t;
  started : float;
  mutable index : Index.t option;
  mutable items : Ingest.item list;  (** processed, reverse arrival order *)
  mutable rejected : Ingest.rejected list;  (** reverse arrival order *)
  mutable submitted : int;
  mutable n_rejected : int;
  mutable dropped : int;
  mutable processed : int;
  mutable closed : bool;
}

let queue_depth t = Queue.length t.queue

(* The deadline handed to replay steps: wall-clock services bound each
   climb by [policy.deadline_s]; run-bounded ones (the default) let the
   rungs' run budgets do the bounding. *)
let rung_deadline (t : t) =
  if t.config.wall_rungs then
    Unix.gettimeofday () +. t.config.policy.Sched.deadline_s
  else infinity

let pressure t =
  if t.config.queue_capacity <= 0 then 1.0
  else float_of_int (queue_depth t) /. float_of_int t.config.queue_capacity

(* ------------------------------------------------------------------ *)
(* Clustering one report: builder insert, head election, persistence,
   analytics.  Also the reload path, minus persistence. *)

let cluster_one ?raw ~persist (t : t) (item : Ingest.item) =
  let novel, fp =
    match Cluster.insert t.builder item with
    | `New fp -> (true, fp)
    | `Merged fp -> (false, fp)
  in
  let key = Fingerprint.key fp in
  (match Hashtbl.find_opt t.reps key with
  | None -> Hashtbl.replace t.reps key item
  | Some head ->
      if Cluster.better item head then begin
        Hashtbl.replace t.reps key item;
        (* the elected head changed: rungs climbed for the old head are
           void — batch would have replayed the new head *)
        Hashtbl.remove t.courses key
      end);
  if persist then
    Option.iter (fun idx -> Index.append ?raw idx item) t.index;
  let cohort =
    match item.Ingest.report.Instrument.Report.cohort with
    | Some c -> c
    | None -> item.Ingest.report.Instrument.Report.program
  in
  Window.observe t.window ~cohort ~key ~novel;
  t.items <- item :: t.items;
  t.processed <- t.processed + 1;
  Telemetry.Metrics.incr_named t.telemetry "triage.service.processed";
  if novel then
    Telemetry.Metrics.incr_named t.telemetry "triage.service.new_clusters"

(* ------------------------------------------------------------------ *)

let open_ ?(config = default_config) ?(telemetry = Telemetry.disabled)
    ~(resolve : Sched.resolve) () : (t, Index.error) result =
  if config.queue_capacity < 1 then
    invalid_arg "Service.open_: queue_capacity must be >= 1";
  if config.burst < 1 then invalid_arg "Service.open_: burst must be >= 1";
  let index =
    match config.index_dir with
    | None -> Ok None
    | Some dir ->
        Result.map Option.some
          (Index.open_ ~shards:config.index_shards ~dir ())
  in
  match index with
  | Error e -> Error e
  | Ok index ->
      let config = { config with policy = effective_policy config } in
      let t =
        {
          config;
          telemetry;
          resolve;
          queue = Queue.create ();
          rng = Osmodel.Rng.create config.policy.Sched.seed;
          builder = Cluster.builder ();
          reps = Hashtbl.create 64;
          courses = Hashtbl.create 64;
          failures = Hashtbl.create 8;
          cache =
            (if config.policy.Sched.solver_cache then
               Some (Solver.Cache.create ())
             else None);
          window = Window.make ~k:config.window_k ~size:config.window ();
          started = Unix.gettimeofday ();
          index;
          items = [];
          rejected = [];
          submitted = 0;
          n_rejected = 0;
          dropped = 0;
          processed = 0;
          closed = false;
        }
      in
      (* restart recovery: replay the index's records through the normal
         clustering path, in (shard, record) order, so buckets, heads and
         window analytics land exactly where the previous incarnation
         left them *)
      (match t.index with
      | Some idx ->
          Telemetry.Metrics.incr_named t.telemetry
            ~by:(Index.truncated_bytes idx) "triage.index.truncated_bytes";
          let recovered = Index.items idx in
          List.iter (cluster_one ~persist:false t) recovered;
          if recovered <> [] then
            Telemetry.Metrics.incr_named t.telemetry
              ~by:(List.length recovered) "triage.service.recovered"
      | None -> ());
      Ok t

(* ------------------------------------------------------------------ *)
(* Submission: parse first (a slot is only worth a parseable report),
   then admit against the bounded queue. *)

let enqueue (t : t) (item : Ingest.item) (raw : string option) : outcome =
  let evict_oldest () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some _ ->
        t.dropped <- t.dropped + 1;
        Telemetry.Metrics.incr_named t.telemetry "triage.service.dropped"
  in
  let admit () =
    Queue.add (item, raw) t.queue;
    Telemetry.Metrics.incr_named t.telemetry "triage.service.queued";
    Telemetry.Metrics.sample t.telemetry "triage.service.queue_depth"
      (float_of_int (queue_depth t));
    Queued
  in
  if queue_depth t < t.config.queue_capacity then admit ()
  else
    let shed reason =
      t.dropped <- t.dropped + 1;
      Telemetry.Metrics.incr_named t.telemetry "triage.service.dropped";
      Dropped reason
    in
    match t.config.drop with
    | Reject_new -> shed "queue full (reject-new)"
    | Drop_oldest ->
        evict_oldest ();
        admit ()
    | Sample p ->
        (* admit with probability p: deterministic for a given
           submission sequence, because the draw order is the
           submission order *)
        let keep = Osmodel.Rng.int t.rng 1_000_000 < int_of_float (p *. 1e6) in
        if keep then begin
          evict_oldest ();
          admit ()
        end
        else shed (Printf.sprintf "queue full (sampled out at p=%.3f)" p)

let submit_item (t : t) (item : Ingest.item) : outcome =
  if t.closed then invalid_arg "Service.submit: service is closed";
  t.submitted <- t.submitted + 1;
  Telemetry.Metrics.incr_named t.telemetry "triage.service.submitted";
  enqueue t item None

let submit_parsed (t : t) (parsed : (Ingest.item, Ingest.rejected) result)
    ~(raw : string option) : outcome =
  if t.closed then invalid_arg "Service.submit: service is closed";
  t.submitted <- t.submitted + 1;
  Telemetry.Metrics.incr_named t.telemetry "triage.service.submitted";
  match parsed with
  | Error r ->
      t.rejected <- r :: t.rejected;
      t.n_rejected <- t.n_rejected + 1;
      Telemetry.Metrics.incr_named t.telemetry "triage.service.rejected";
      Rejected r.Ingest.error
  | Ok item -> enqueue t item raw

let submit (t : t) ~path (wire : string) : outcome =
  submit_parsed t (Ingest.of_string ~path wire) ~raw:(Some wire)

let submit_file (t : t) (path : string) : outcome =
  submit_parsed t (Ingest.of_file path) ~raw:None

(* ------------------------------------------------------------------ *)
(* Eager replay: while the queue is shallow, spend the tick's slack
   climbing the first unfinished course (fingerprint order, so which
   bucket gets attention does not depend on arrival interleaving). *)

let ensure_course (t : t) key : Sched.course option =
  match Hashtbl.find_opt t.courses key with
  | Some k -> Some k
  | None -> (
      if Hashtbl.mem t.failures key then None
      else
        let rep = Hashtbl.find t.reps key in
        let fp = Fingerprint.of_report rep.Ingest.report in
        let provisional =
          { Cluster.fp; representative = rep; members = [ rep ] }
        in
        match t.resolve provisional with
        | Error msg ->
            Hashtbl.replace t.failures key msg;
            None
        | Ok (prog, plan) ->
            let k =
              Sched.course ~policy:t.config.policy ~prog ~plan provisional
            in
            Hashtbl.replace t.courses key k;
            Some k)

let unfinished_keys (t : t) =
  Hashtbl.fold
    (fun key _ acc ->
      let done_ =
        match Hashtbl.find_opt t.courses key with
        | Some k -> Sched.course_done k
        | None -> Hashtbl.mem t.failures key
      in
      if done_ then acc else key :: acc)
    t.reps []
  |> List.sort String.compare

let eager_climb (t : t) =
  let allot = Sched.rungs_for_pressure (pressure t) in
  if allot > 0 then
    match unfinished_keys t with
    | [] -> ()
    | key :: _ -> (
        match ensure_course t key with
        | None -> ()
        | Some k ->
            ignore
              (Sched.course_step ~telemetry:t.telemetry ?cache:t.cache
                 ~deadline:(rung_deadline t) ~max_rungs:allot k))

let process_queue (t : t) ~limit : int =
  let rec go n =
    if n >= limit then n
    else
      match Queue.take_opt t.queue with
      | None -> n
      | Some (item, raw) ->
          cluster_one ?raw ~persist:true t item;
          go (n + 1)
  in
  go 0

let tick (t : t) : int =
  Telemetry.Span.with_ t.telemetry ~name:"triage.service.tick"
    ~attrs:[ ("depth", Telemetry.Event.Int (queue_depth t)) ]
  @@ fun sp ->
  let n = process_queue t ~limit:t.config.burst in
  Telemetry.Span.addi sp "processed" n;
  Telemetry.Metrics.sample t.telemetry "triage.service.queue_depth"
    (float_of_int (queue_depth t));
  if t.config.eager then eager_climb t;
  n

(* ------------------------------------------------------------------ *)

type snapshot = {
  submitted : int;
  rejected : int;
  dropped : int;
  queued : int;
  capacity : int;
  processed : int;
  clusters : int;
  replayed : int;
  dedup_ratio : float;
  window : Window.stats;
}

let snapshot (t : t) : snapshot =
  let replayed =
    Hashtbl.fold
      (fun _ k n -> if Sched.course_done k then n + 1 else n)
      t.courses 0
  in
  {
    submitted = t.submitted;
    rejected = t.n_rejected;
    dropped = t.dropped;
    queued = queue_depth t;
    capacity = t.config.queue_capacity;
    processed = t.processed;
    clusters = Cluster.bucket_count t.builder;
    replayed;
    dedup_ratio =
      (if t.processed = 0 then 1.0
       else
         float_of_int (Cluster.bucket_count t.builder)
         /. float_of_int t.processed);
    window = Window.stats t.window;
  }

let snapshot_to_json (s : snapshot) : string =
  let b = Buffer.create 512 in
  let field name v = Printf.bprintf b "%S: %s" name v in
  Buffer.add_string b "{";
  field "submitted" (string_of_int s.submitted);
  Buffer.add_string b ", ";
  field "rejected" (string_of_int s.rejected);
  Buffer.add_string b ", ";
  field "dropped" (string_of_int s.dropped);
  Buffer.add_string b ", ";
  field "queued" (string_of_int s.queued);
  Buffer.add_string b ", ";
  field "capacity" (string_of_int s.capacity);
  Buffer.add_string b ", ";
  field "processed" (string_of_int s.processed);
  Buffer.add_string b ", ";
  field "clusters" (string_of_int s.clusters);
  Buffer.add_string b ", ";
  field "replayed" (string_of_int s.replayed);
  Buffer.add_string b ", ";
  field "dedup_ratio" (Telemetry.Event.json_float s.dedup_ratio);
  Buffer.add_string b ", ";
  field "window" (Window.stats_to_json s.window);
  Buffer.add_string b "}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let failed_result (c : Cluster.t) msg : Sched.cluster_result =
  {
    Sched.cluster = c;
    status = Sched.Failed msg;
    rungs = 0;
    runs = 0;
    elapsed_s = 0.0;
    rung_elapsed_s = [];
    cases = Sched.zero_cases ();
  }

let drain ?(rejected = []) (t : t) : Summary.t =
  Telemetry.Span.with_ t.telemetry ~name:"triage.service.drain"
    ~attrs:[ ("queued", Telemetry.Event.Int (queue_depth t)) ]
  @@ fun sp ->
  (* flush everything still queued — drain answers for every accepted
     report, burst bound notwithstanding *)
  ignore (process_queue t ~limit:max_int);
  Telemetry.Metrics.sample t.telemetry "triage.service.queue_depth" 0.0;
  let finals = Cluster.snapshot t.builder in
  (* one entry per final cluster, in fingerprint order: a sticky resolve
     failure, or a (possibly already-finished) course to run.  A course
     climbed against a provisional head is only reused when that head is
     still the elected representative — otherwise its rungs answered for
     the wrong member and it restarts. *)
  let entries =
    List.map
      (fun (c : Cluster.t) ->
        let key = Fingerprint.key c.fp in
        match Hashtbl.find_opt t.failures key with
        | Some msg -> Either.Left (failed_result c msg)
        | None -> (
            let reuse =
              match Hashtbl.find_opt t.courses key with
              | Some k
                when (Sched.course_cluster k).Cluster.representative
                       .Ingest.path
                     = c.representative.Ingest.path ->
                  Some k
              | _ -> None
            in
            match reuse with
            | Some k -> Either.Right (c, k)
            | None -> (
                match t.resolve c with
                | Error msg ->
                    Hashtbl.replace t.failures key msg;
                    Either.Left (failed_result c msg)
                | Ok (prog, plan) ->
                    let k =
                      Sched.course ~policy:t.config.policy ~prog ~plan c
                    in
                    Hashtbl.replace t.courses key k;
                    Either.Right (c, k))))
      finals
  in
  let todo = List.filter_map Either.find_right entries in
  let deadline = rung_deadline t in
  let finished =
    Sched.run_courses ~policy:t.config.policy ~telemetry:t.telemetry
      ?cache:t.cache ~deadline
      (List.map snd todo)
  in
  (* rebind each result to its *final* cluster (a reused course may still
     carry the provisional one-member cluster it was opened with) *)
  let by_key = Hashtbl.create 16 in
  List.iter2
    (fun ((c : Cluster.t), _) r ->
      Hashtbl.replace by_key (Fingerprint.key c.fp)
        { r with Sched.cluster = c })
    todo finished;
  let results =
    List.map
      (fun e ->
        match e with
        | Either.Left failed -> failed
        | Either.Right ((c : Cluster.t), _) ->
            Hashtbl.find by_key (Fingerprint.key c.fp))
      entries
  in
  let wall_s = Unix.gettimeofday () -. t.started in
  let all_rejected = List.rev_append t.rejected rejected in
  let summary =
    Summary.make ~rejected:all_rejected ~items:(List.rev t.items) ~results
      ~wall_s
  in
  Telemetry.Span.addi sp "clusters" (List.length finals);
  Telemetry.Span.addi sp "reproduced"
    (summary.Summary.reproduced + summary.Summary.salvaged_reproduced);
  summary

(* Per-cluster replay results as of now, in fingerprint order: resolve
   failures, finished courses, and (after a drain) every cluster.  A
   cluster whose course has not been opened yet is simply absent — this
   is a read-only view, it never starts work. *)
let cluster_results (t : t) : Sched.cluster_result list =
  Cluster.snapshot t.builder
  |> List.filter_map (fun (c : Cluster.t) ->
         let key = Fingerprint.key c.fp in
         match Hashtbl.find_opt t.failures key with
         | Some msg -> Some (failed_result c msg)
         | None -> (
             match Hashtbl.find_opt t.courses key with
             | Some k ->
                 Some { (Sched.course_result k) with Sched.cluster = c }
             | None -> None))

let close (t : t) =
  if not t.closed then begin
    t.closed <- true;
    Option.iter Index.close t.index;
    t.index <- None
  end
