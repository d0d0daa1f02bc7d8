(* E17 — extension: the streaming triage service under sustained load.
   Not in the paper; measures the long-running ingestion tier (DESIGN.md
   §5i) end to end: a seeded fleet of crashing clients
   (Workloads.Report_gen) pours thousands of reports — a seeded fraction
   torn mid-log — into a live Triage.Service behind its bounded queue,
   then the service is killed mid-stream and a second incarnation
   rebuilds every crash bucket from the persistent index before
   draining the replay backlog sequentially and on a worker pool.

   Headline metrics: sustained ingestion throughput (ingest_rate,
   reports/sec — clustering, salvage, window analytics and index
   persistence all on the hot path), restart recovery throughput
   (recovery_rate), and the jobs=1 vs jobs=N drain curve.  Whatever the
   worker count, the two drains read the same index and must render
   byte-identical timing-stripped summaries. *)

let sprintf = Printf.sprintf

module Service = Triage.Service
module Report = Instrument.Report

(* a scratch directory for the persistent index; one flat level *)
let fresh_dir () =
  let f = Filename.temp_file "bench-e17" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let e17 (c : Ctx.t) =
  let par_jobs = if c.jobs > 1 then c.jobs else 4 in
  let n = if c.quick then 1_000 else 5_000 in
  Util.section ~id:"E17" ~paper:"extension"
    (sprintf
       "Streaming triage service: %d-report ingestion, restart recovery, \
        drain jobs=1 vs jobs=%d"
       n par_jobs);
  let cfg = Ctx.pipeline_config c in
  let gen = Workloads.Report_gen.make ~quick:c.quick ~config:cfg () in
  let resolve (cl : Triage.Cluster.t) =
    let r = cl.Triage.Cluster.representative.Triage.Ingest.report in
    Workloads.Report_gen.plan_for gen ~program:r.Report.program
      ~meth:r.Report.method_used
  in
  (* Run-bounded replay: huge time allowances, modest run caps, and a
     sequential search per course.  Wall-clock-bounded rungs would make
     the drain outcome depend on how much CPU each worker got — under a
     4-worker drain every concurrent search sees ~1/4 the CPU, and a
     borderline cluster flips reproduced→timed_out.  With run-bounded
     rungs the outcome depends only on logical run counts, so the jobs=1
     and jobs=N drains are byte-comparable; parallelism comes from
     draining distinct clusters concurrently. *)
  let policy jobs =
    let unbounded = 3600.0 in
    {
      (Triage.Sched.policy_of_config cfg) with
      Triage.Sched.ladder =
        [
          { Concolic.Engine.max_runs = 60; max_time_s = unbounded };
          { Concolic.Engine.max_runs = 400; max_time_s = unbounded };
        ];
      jobs;
      deadline_s = unbounded;
    }
  in
  (* record the base crashes up front so ingestion timing measures the
     service, not the generator's one-time analyses *)
  let reports, gen_s =
    Util.time_call (fun () ->
        Workloads.Report_gen.stream gen ~seed:cfg.seed ~clients:100
          ~torn_pct:0.05 n)
  in
  Printf.printf "%d seeded reports over %d bases (%.1f%% torn) in %s\n" n
    (List.length (Workloads.Report_gen.bases gen))
    (100.0
    *. float_of_int
         (List.length (List.filter (fun r -> r.Workloads.Report_gen.torn) reports))
    /. float_of_int (max 1 n))
    (Util.seconds gen_s);
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config jobs =
        {
          Service.default_config with
          Service.policy = policy jobs;
          queue_capacity = 512;
          drop = Service.Drop_oldest;
          burst = 64;
          window = 512;
          eager = false;
          index_dir = Some dir;
        }
      in
      let open_service jobs =
        match Service.open_ ~config:(config jobs) ~telemetry:c.telemetry
                ~resolve ()
        with
        | Ok svc -> svc
        | Error e -> failwith ("E17: " ^ Triage.Index.error_to_string e)
      in
      (* phase 1 — sustained ingestion: submit everything, ticking every
         32 submissions (the shape `bugrepro serve` runs), then flush *)
      let svc = open_service 1 in
      let ingest () =
        List.iteri
          (fun i r ->
            ignore
              (Service.submit svc ~path:r.Workloads.Report_gen.path
                 r.Workloads.Report_gen.wire);
            if i mod 32 = 31 then ignore (Service.tick svc))
          reports;
        while Service.queue_depth svc > 0 do
          ignore (Service.tick svc)
        done
      in
      let (), ingest_s = Util.time_call ingest in
      let snap = Service.snapshot svc in
      Service.close svc;
      let ingest_rate =
        if ingest_s > 0.0 then float_of_int n /. ingest_s else 0.0
      in
      (* phase 2 — the service dies without draining; a second incarnation
         rebuilds every bucket from the index *)
      let reopen jobs = Util.time_call (fun () -> open_service jobs) in
      let svc1, recovery_s = reopen 1 in
      let rsnap = Service.snapshot svc1 in
      let recovery_rate =
        if recovery_s > 0.0 then
          float_of_int rsnap.Service.processed /. recovery_s
        else 0.0
      in
      (* phase 3 — drain the replay backlog, sequentially and on a pool;
         both incarnations reload the same index, so the timing-stripped
         summaries must be byte-identical *)
      let s1, drain1_s = Util.time_call (fun () -> Service.drain svc1) in
      Service.close svc1;
      let svcN, _ = reopen par_jobs in
      let sN, drainN_s = Util.time_call (fun () -> Service.drain svcN) in
      Service.close svcN;
      let speedup = if drainN_s > 0.0 then drain1_s /. drainN_s else 0.0 in
      let deterministic =
        Triage.Summary.to_json ~timing:false s1
        = Triage.Summary.to_json ~timing:false sN
      in
      Util.table
        [
          [ "phase"; "reports"; "wall clock"; "reports/sec" ];
          [
            "ingest (cluster+index+window)";
            string_of_int snap.Service.processed;
            Util.seconds ingest_s;
            sprintf "%.0f" ingest_rate;
          ];
          [
            "restart recovery";
            string_of_int rsnap.Service.processed;
            Util.seconds recovery_s;
            sprintf "%.0f" recovery_rate;
          ];
          [
            "drain jobs=1";
            string_of_int s1.Triage.Summary.reports;
            Util.seconds drain1_s;
            "-";
          ];
          [
            sprintf "drain jobs=%d" par_jobs;
            string_of_int sN.Triage.Summary.reports;
            Util.seconds drainN_s;
            "-";
          ];
        ];
      Printf.printf
        "queue: %d dropped of %d submitted (capacity %d, drop-oldest); %d \
         salvaged; %d clusters; dedup %.4f\n"
        snap.Service.dropped snap.Service.submitted 512 s1.Triage.Summary.salvaged
        (List.length s1.Triage.Summary.clusters)
        s1.Triage.Summary.dedup_ratio;
      Printf.printf "summary parity across worker counts: %s\n"
        (if deterministic then "OK" else "MISMATCH");
      let m k v = Util.record_metric ~experiment:"E17" k v in
      m "reports" (float_of_int n);
      m "ingest_rate" ingest_rate;
      m "ingest/seconds" ingest_s;
      m "dropped" (float_of_int snap.Service.dropped);
      m "salvage_rate"
        (float_of_int s1.Triage.Summary.salvaged
        /. float_of_int (max 1 s1.Triage.Summary.reports));
      m "dedup_ratio" s1.Triage.Summary.dedup_ratio;
      m "clusters" (float_of_int (List.length s1.Triage.Summary.clusters));
      m "recovered" (float_of_int rsnap.Service.processed);
      m "recovery_rate" recovery_rate;
      m "reproduced"
        (float_of_int
           (s1.Triage.Summary.reproduced + s1.Triage.Summary.salvaged_reproduced));
      m "j1/seconds" drain1_s;
      m (sprintf "j%d/seconds" par_jobs) drainN_s;
      m "speedup" speedup;
      m "summary_deterministic" (if deterministic then 1.0 else 0.0);
      print_endline
        "expected shape: ingestion sustains tens of thousands of \
         reports/sec\n\
         because the hot path is clustering, not replay (one \
         representative per\n\
         distinct crash is replayed, at drain); a restart rebuilds every \
         bucket\n\
         from the index at reload speed; and the run-bounded drain \
         renders a\n\
         byte-identical timing-stripped summary whatever the worker \
         count (the\n\
         pool only pays off once the backlog outgrows the quick preset's \
         handful\n\
         of clusters).")
