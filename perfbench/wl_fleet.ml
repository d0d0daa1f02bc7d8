(* Workload [fleet]: a closed-loop stream of crash reports from a seeded
   fleet ([Workloads.Report_gen]), duplicates dominating and about 5% torn.

   Each cycle feeds a [Triage.Service] with an on-disk index and eager
   replay off, ticking every burst; closes it without draining; reopens it
   from its index; and drains it on a pool of [nproc] workers with a
   run-bounded ladder.  Ingest exercises strict and salvage wire parsing,
   fingerprinting, clustering and index appends; the restart exercises
   index reload; the drain replays a handful of cluster representatives. *)

open Common
module Service = Triage.Service
module Sched = Triage.Sched

type t = {
  gen : Workloads.Report_gen.t;
  cfg : Config.t;
  reports : Workloads.Report_gen.report array;
  jobs : int;
  workdir : string;
}

let burst = 32

(* Submissions per ingest-rate sample: the rate is the median over
   chunks, so one chunk disturbed by a collection or another tenant of
   the machine moves it little. *)
let chunk = 256

let setup ~size ~seed ~tel =
  let cfg = config ~jobs:1 |> Config.with_telemetry tel in
  let gen = Workloads.Report_gen.make ~quick:true ~config:cfg () in
  let n = match size with Tiny -> 200 | Full -> 2_000 in
  (* A salvaged mkdir log needs ~550 replay runs (seconds), one replay
     that would set every drain; torn mkdir reports are left out, and the
     tear rate is raised so that about 5% of what remains is torn. *)
  let reports =
    Workloads.Report_gen.stream gen ~seed ~clients:100 ~torn_pct:0.11 n
    |> List.filter (fun (r : Workloads.Report_gen.report) ->
           let program () =
             match Triage.Ingest.of_string ~path:r.path r.wire with
             | Ok it -> it.report.program
             | Error _ -> ""
           in
           not (r.torn && program () = "mkdir"))
    |> Array.of_list
  in
  { gen; cfg = config ~jobs:1; reports; jobs = nproc (); workdir = "_perfbench_work" }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir t i =
  if not (Sys.file_exists t.workdir) then Sys.mkdir t.workdir 0o755;
  let d = Filename.concat t.workdir (Printf.sprintf "fleet-%d-%d" (Unix.getpid ()) i) in
  rm_rf d;
  d

let resolve t (cl : Triage.Cluster.t) =
  let r = cl.representative.report in
  Workloads.Report_gen.plan_for t.gen ~program:r.program ~meth:r.method_used

(* Two run-bounded rungs, no wall-clock limit: a verdict depends on run
   counts only, so the summary is the same whatever the worker count. *)
let policy t =
  {
    (Sched.policy_of_config t.cfg) with
    Sched.ladder = [ cap 60; cap 600 ];
    jobs = t.jobs;
    final_rung_jobs = 1;
    deadline_s = 1e9;
  }

let service_config t dir =
  {
    Service.default_config with
    Service.policy = policy t;
    queue_capacity = 512;
    burst;
    eager = false;
    index_dir = Some dir;
  }

let open_service t ~tel dir =
  match Service.open_ ~config:(service_config t dir) ~telemetry:tel ~resolve:(resolve t) () with
  | Ok s -> s
  | Error e -> failwith ("fleet: index: " ^ Triage.Index.error_to_string e)

type cycle = {
  ingest_s : float;
  accepted : int;
  recovery_s : float;
  recovered : int;
  drain_s : float;
  summary : Triage.Summary.t;
  results : Sched.cluster_result list;
  chunk_rates : float list;  (** accepted reports/s over each [chunk] *)
  waits : float list;  (** submit to processed, accepted reports *)
  tick_s : float;  (** time inside [tick] during ingest *)
}

let cycle t ~tel ~lat ~c ~failed i =
  let dir = fresh_dir t i in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let svc = open_service t ~tel dir in
      let n = Array.length t.reports in
      let submitted = Array.make n 0.0 in
      let pending = Queue.create () in
      let waits = ref [] and tick_s = ref 0.0 in
      (* Ingest times read [Calib.clock], which stands still while the
         slice after each burst runs: the ingest rate, the waits and the
         latencies count no calibration work. *)
      let tick () =
        let processed, dt = time (fun () -> Service.tick svc) in
        tick_s := !tick_s +. dt;
        let done_t = Calib.clock () in
        for _ = 1 to processed do
          waits := (done_t -. submitted.(Queue.pop pending)) :: !waits
        done;
        Calib.slice ()
      in
      let ingest_t0 = Calib.clock () in
      let chunk_rates = ref [] and chunk_t0 = ref ingest_t0 in
      Array.iteri
        (fun j (r : Workloads.Report_gen.report) ->
          if j mod chunk = 0 && j > 0 then begin
            let t = Calib.clock () in
            chunk_rates := float_of_int chunk /. (t -. !chunk_t0) :: !chunk_rates;
            chunk_t0 := t
          end;
          submitted.(j) <- Calib.clock ();
          (match Service.submit svc ~path:r.path r.wire with
          | Service.Queued -> Queue.push j pending
          | Service.Dropped why | Service.Rejected (Instrument.Wire.Malformed why) ->
              incr failed;
              check c false (fun () -> r.path ^ ": not accepted: " ^ why)
          | Service.Rejected e ->
              incr failed;
              check c false (fun () ->
                  r.path ^ ": rejected: " ^ Instrument.Wire.error_to_string e));
          if j mod burst = burst - 1 then tick ())
        t.reports;
      while Service.queue_depth svc > 0 do
        tick ()
      done;
      let ingest_s = Calib.clock () -. ingest_t0 in
      let accepted = (Service.snapshot svc).processed in
      Service.close svc;
      let svc, recovery_s = time (fun () -> open_service t ~tel dir) in
      let recovered = (Service.snapshot svc).processed in
      let summary, drain_s = time (fun () -> Service.drain svc) in
      let verdict = Calib.clock () in
      Calib.slice ();
      Array.iter (fun s -> lat := (verdict -. s) :: !lat) submitted;
      let results = Service.cluster_results svc in
      Service.close svc;
      check c (recovered = accepted) (fun () ->
          Printf.sprintf "recovered %d of %d accepted reports" recovered accepted);
      List.iter
        (fun (e : Triage.Summary.entry) ->
          match e.status with
          | Triage.Summary.Reproduced | Triage.Summary.Salvaged_reproduced -> ()
          | s ->
              incr failed;
              check c false (fun () ->
                  Printf.sprintf "cluster %s (%s): %s" e.fingerprint e.program
                    (Triage.Summary.status_name s)))
        summary.clusters;
      { ingest_s; accepted; recovery_s; recovered; drain_s; summary; results;
        chunk_rates = !chunk_rates; waits = !waits; tick_s = !tick_s })

let run t ~seconds ~(tr : Tracing.t) =
  let tel = tr.tel in
  let c = checks () and failed = ref 0 and lat = ref [] in
  let cycles = ref [] in
  let t0 = now () in
  let i = ref 0 in
  while !i = 0 || now () -. t0 < seconds do
    cycles := cycle t ~tel ~lat ~c ~failed !i :: !cycles;
    incr i
  done;
  let cycles = List.rev !cycles in
  let first = List.hd cycles in
  let golden = Triage.Summary.to_json ~timing:false first.summary in
  List.iteri
    (fun k cy ->
      check c
        (Triage.Summary.to_json ~timing:false cy.summary = golden)
        (fun () -> Printf.sprintf "cycle %d: drain summary differs from cycle 0" k))
    cycles;
  let sum f = List.fold_left (fun acc cy -> acc +. f cy) 0.0 cycles in
  let fi = float_of_int in
  let ingest_rate =
    List.concat_map
      (fun cy -> if cy.chunk_rates = [] then [ fi cy.accepted /. cy.ingest_s ] else cy.chunk_rates)
      cycles
    |> Array.of_list |> Stats.median
  in
  let clusters = List.length first.summary.clusters in
  let named =
    [
      metric "ingest_reports_per_s" "1/s" ingest_rate;
      metric "recovery_reports_per_s" "1/s"
        (sum (fun cy -> fi cy.recovered) /. sum (fun cy -> cy.recovery_s));
      metric "drain_s" "s" (Stats.median (Array.of_list (List.map (fun cy -> cy.drain_s) cycles)));
      metric "fleet_clusters" "count" (fi clusters);
      metric "fleet_cycles" "count" (fi (List.length cycles));
    ]
  in
  let layers () =
    if not (Tracing.enabled tr) then []
    else begin
      let forest = Tracing.forest tr in
      let items =
        Array.to_list t.reports
        |> List.filter_map (fun (r : Workloads.Report_gen.report) ->
               Result.to_option (Triage.Ingest.of_string ~path:r.path r.wire))
      in
      let n = List.length items in
      let per_item f = ns_per ~units:n f in
      let fp_words =
        words_per ~units:n (fun () ->
            List.iter (fun (it : Triage.Ingest.item) -> ignore (Triage.Fingerprint.of_report it.report)) items)
      in
      let index_ns =
        let dir = fresh_dir t 1_000_000 in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            match Triage.Index.open_ ~dir () with
            | Error e -> failwith (Triage.Index.error_to_string e)
            | Ok idx ->
                let (), dt = time (fun () -> List.iter (Triage.Index.append idx) items) in
                Triage.Index.close idx;
                Stats.ratio (1e9 *. dt) (fi n))
      in
      let runs = List.concat_map (fun cy -> cy.results) cycles in
      let drain = sum (fun cy -> cy.drain_s) in
      let busy = List.fold_left (fun acc (r : Sched.cluster_result) -> acc +. r.elapsed_s) 0.0 runs in
      let ncl = fi (List.length runs) in
      let waits = Array.of_list (List.concat_map (fun cy -> cy.waits) cycles) in
      let intact = List.filter (fun (it : Triage.Ingest.item) -> it.salvage = None) items in
      let torn =
        Array.to_list t.reports
        |> List.filter_map (fun (r : Workloads.Report_gen.report) -> if r.torn then Some r.wire else None)
      in
      codec_wire_ledger ~torn (List.map (fun (it : Triage.Ingest.item) -> it.report) intact)
      @ [
          metric "triage.ingest_ns" "ns"
            (per_item (fun () ->
                 Array.iter
                   (fun (r : Workloads.Report_gen.report) -> ignore (Triage.Ingest.of_string ~path:r.path r.wire))
                   t.reports));
          metric "triage.fingerprint_ns" "ns"
            (per_item (fun () ->
                 List.iter (fun (it : Triage.Ingest.item) -> ignore (Triage.Fingerprint.of_report it.report)) items));
          metric "triage.fingerprint_minor_words" "words" fp_words;
          metric "triage.cluster_insert_ns" "ns"
            (per_item (fun () ->
                 let b = Triage.Cluster.builder () in
                 List.iter (fun it -> ignore (Triage.Cluster.insert b it)) items));
          metric "triage.index_append_ns" "ns" index_ns;
          metric "triage.service.queue_wait_s" "s" (Stats.median waits);
          metric "triage.service.tick_busy_share" "share"
            (sum (fun cy -> cy.tick_s) /. sum (fun cy -> cy.ingest_s));
          metric "triage.index_reload_ns_per_record" "ns"
            (Stats.ratio (1e9 *. sum (fun cy -> cy.recovery_s)) (sum (fun cy -> fi cy.recovered)));
          metric "triage.sched.pool_busy_share" "share" (Stats.ratio busy (drain *. fi t.jobs));
          metric "triage.sched.rungs_per_cluster" "count"
            (Stats.ratio (fi (List.fold_left (fun a (r : Sched.cluster_result) -> a + r.rungs) 0 runs)) ncl);
          metric "triage.sched.runs" "count"
            (fi (List.fold_left (fun a (r : Sched.cluster_result) -> a + r.runs) 0 first.results));
          metric "replay.attempts" "count"
            (Stats.ratio (fi (Tracing.span_count forest "replay.attempt")) ncl);
          metric "replay.log_exhausted" "count"
            (Stats.ratio
               (fi (List.fold_left (fun a (r : Sched.cluster_result) -> a + r.cases.log_exhausted) 0 runs))
               ncl);
          metric "replay.case1_forks" "count"
            (Stats.ratio (fi (List.fold_left (fun a (r : Sched.cluster_result) -> a + r.cases.case1) 0 runs)) ncl);
        ]
    end
  in
  (try Sys.rmdir t.workdir with Sys_error _ -> ());
  {
    attempted = (Array.length t.reports + List.length first.summary.clusters) * List.length cycles;
    failed = !failed;
    errors = messages c;
    throughput = ingest_rate;
    latencies = Array.of_list !lat;
    named;
    layers;
  }
