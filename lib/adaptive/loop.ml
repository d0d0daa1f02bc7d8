(** The closed adaptive deployment loop (see loop.mli). *)

module Methods = Instrument.Methods
module Plan = Instrument.Plan
module Report = Instrument.Report
module Wire = Instrument.Wire
module Report_gen = Workloads.Report_gen
module Service = Triage.Service
module Sched = Triage.Sched
module Cluster = Triage.Cluster
module Fingerprint = Triage.Fingerprint

type cohort_spec = {
  name : string;
  program : string;
  meth : Methods.t;
  share : int;
  torn_pct : float;
  tear_lost_hex : int option;
}

let default_fleet =
  [
    {
      name = "mkdir-stable";
      program = "mkdir";
      meth = Methods.Static;
      share = 4;
      torn_pct = 0.0;
      tear_lost_hex = None;
    };
    {
      name = "mkdir-canary";
      program = "mkdir";
      meth = Methods.No_instrumentation;
      share = 2;
      torn_pct = 0.0;
      tear_lost_hex = None;
    };
    {
      name = "paste-stable";
      program = "paste";
      meth = Methods.Static;
      share = 6;
      torn_pct = 0.0;
      tear_lost_hex = None;
    };
    {
      name = "userver-stable";
      program = "userver-exp1";
      meth = Methods.Static;
      share = 5;
      torn_pct = 0.0;
      tear_lost_hex = None;
    };
    {
      name = "userver-torn";
      program = "userver-exp1";
      meth = Methods.Static;
      share = 1;
      torn_pct = 1.0;
      tear_lost_hex = Some 2;
    };
  ]

type config = {
  rounds : int;
  seed : int;
  fleet : cohort_spec list;
  pipeline : Bugrepro.Pipeline.Config.t;
  ladder : Concolic.Engine.budget list;
  telemetry : Telemetry.t;
  trace : (string -> unit) option;
}

let default_ladder =
  [
    { Concolic.Engine.max_runs = 24; max_time_s = infinity };
    { Concolic.Engine.max_runs = 96; max_time_s = infinity };
  ]

let default_config =
  {
    rounds = 3;
    seed = 1;
    fleet = default_fleet;
    pipeline = Bugrepro.Pipeline.Config.default;
    ladder = default_ladder;
    telemetry = Telemetry.disabled;
    trace = None;
  }

type cohort_round = {
  cr_name : string;
  cr_level : Policy.level;
  cr_next : Policy.level;
  cr_reports : int;
  cr_torn : int;
  cr_bits : int;
  cr_payload_bytes : int;
  cr_overhead_pct : float;
  cr_clusters : int;
  cr_reproduced : int;
  cr_timed_out : int;
  cr_exhausted : int;
  cr_failed : int;
  cr_log_exhausted : int;
  cr_contradictions : int;
  cr_runs : int;
}

type round_summary = {
  round : int;
  cohorts : cohort_round list;
  total_reports : int;
  total_bits : int;
  total_payload_bytes : int;
  cohorts_refined : int;
}

type result = { rounds : round_summary list; converged : bool }

(* ------------------------------------------------------------------ *)

type cohort_state = {
  spec : cohort_spec;
  prog : Minic.Program.t;
  base_plan : Plan.t;
  baseline_instr : int;
  mutable policy : Policy.t;
  mutable floor : Policy.level;
      (** lowest level the cohort may de-escalate to: raised to the
          escalation target whenever a level fails to reproduce, so the
          loop never walks back into a configuration it has already seen
          fail (kills slice/coarse ping-pong) *)
}

let trace_line config fmt =
  Printf.ksprintf
    (fun line -> match config.trace with Some f -> f line | None -> ())
    fmt

let crash_base gen (spec : cohort_spec) =
  match
    Report_gen.crash_base gen ~program:spec.program ~meth:spec.meth
  with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "adaptive: cohort %s: %s" spec.name e)

(* the crash-site slice starts from where the cohort's workload actually
   crashes, observed once on the uninstrumented baseline run that also
   anchors every overhead figure *)
let setup_cohort config gen (spec : cohort_spec) : cohort_state =
  let prog, base_plan, scenario = crash_base gen spec in
  let nbranches = Minic.Program.nbranches prog in
  let none = Plan.make ~nbranches Methods.No_instrumentation in
  let baseline =
    Bugrepro.Pipeline.Run.field_run config.pipeline ~plan:none scenario
  in
  let crash_fns =
    match baseline.Instrument.Field_run.outcome with
    | Interp.Crash.Crash c -> [ c.Interp.Crash.in_func ]
    | o ->
        failwith
          (Printf.sprintf "adaptive: cohort %s: workload did not crash (%s)"
             spec.name
             (Interp.Crash.outcome_to_string o))
  in
  let policy =
    Policy.make ~prog ~base_plan ~cohort:spec.name ~crash_fns Policy.Coarse
  in
  {
    spec;
    prog;
    base_plan;
    baseline_instr = baseline.Instrument.Field_run.cost.Interp.Cost.instr;
    policy;
    floor = Policy.Slice;
  }

type replay_agg = {
  mutable a_clusters : int;
  mutable a_reproduced : int;
  mutable a_timed_out : int;
  mutable a_exhausted : int;
  mutable a_failed : int;
  mutable a_log_exhausted : int;
  mutable a_contradictions : int;
  mutable a_runs : int;
}

let zero_agg () =
  {
    a_clusters = 0;
    a_reproduced = 0;
    a_timed_out = 0;
    a_exhausted = 0;
    a_failed = 0;
    a_log_exhausted = 0;
    a_contradictions = 0;
    a_runs = 0;
  }

let observe_result agg (r : Sched.cluster_result) =
  agg.a_clusters <- agg.a_clusters + 1;
  (match r.Sched.status with
  | Sched.Reproduced _ -> agg.a_reproduced <- agg.a_reproduced + 1
  | Sched.Timed_out -> agg.a_timed_out <- agg.a_timed_out + 1
  | Sched.Exhausted -> agg.a_exhausted <- agg.a_exhausted + 1
  | Sched.Failed _ -> agg.a_failed <- agg.a_failed + 1);
  let c = r.Sched.cases in
  agg.a_log_exhausted <- agg.a_log_exhausted + c.Replay.Guided.log_exhausted;
  agg.a_contradictions <-
    agg.a_contradictions + c.Replay.Guided.case2b + c.Replay.Guided.case3b;
  agg.a_runs <- agg.a_runs + r.Sched.runs

(* the refinement rule (see loop.mli): escalate on any not-reproduced
   representative (raising the cohort's floor past the level that just
   failed), de-escalate — never below the floor — when replay never ran
   out of log bits, hold otherwise *)
let decide (st : cohort_state) (agg : replay_agg) : Policy.level =
  let level = st.policy.Policy.level in
  if agg.a_clusters = 0 then level
  else if agg.a_timed_out + agg.a_exhausted + agg.a_failed > 0 then begin
    let next = Policy.escalate level in
    st.floor <- Policy.max_level st.floor next;
    next
  end
  else if agg.a_log_exhausted = 0 then
    Policy.max_level st.floor (Policy.de_escalate level)
  else level

let run_round config gen states round : round_summary =
  let registry : (string, Minic.Program.t * Plan.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let rng = Osmodel.Rng.create ((config.seed * 1_000_003) + round) in
  (* compile + verify this round's per-cohort plans; an unverifiable plan
     aborts the deployment before any field run sees it *)
  let deployed =
    List.map
      (fun st ->
        let plan = Policy.compile ~prog:st.prog ~base_plan:st.base_plan st.policy in
        (match Policy.verify ~prog:st.prog ~base_plan:st.base_plan st.policy plan with
        | Ok () -> ()
        | Error e -> failwith (Printf.sprintf "adaptive: refusing to deploy: %s" e));
        Hashtbl.replace registry st.spec.name (st.prog, plan);
        (st, plan))
      states
  in
  (* field-run each cohort under its plan and ship [share] copies,
     tearing the configured fraction *)
  let shipped =
    List.map
      (fun (st, plan) ->
        let _, _, scenario = crash_base gen st.spec in
        let field, report =
          Bugrepro.Pipeline.Run.field_run_report config.pipeline ~plan scenario
        in
        let report =
          match report with
          | Some r -> r
          | None ->
              failwith
                (Printf.sprintf "adaptive: cohort %s: workload did not crash"
                   st.spec.name)
        in
        let wire = Wire.serialize report in
        let overhead =
          100.0
          *. float_of_int field.Instrument.Field_run.cost.Interp.Cost.instr
          /. float_of_int st.baseline_instr
        in
        let torn_permille = int_of_float (st.spec.torn_pct *. 1000.0) in
        let copies =
          List.init st.spec.share (fun i ->
              let torn = Osmodel.Rng.int rng 1000 < torn_permille in
              let text =
                if torn then
                  Report_gen.tear ?lost_hex:st.spec.tear_lost_hex rng wire
                else wire
              in
              let path =
                Printf.sprintf "%s/round-%d/r%02d.report" st.spec.name round i
              in
              (path, text, torn))
        in
        (st, Report.nbits report, overhead, copies))
      deployed
  in
  let total_reports =
    List.fold_left (fun n (_, _, _, c) -> n + List.length c) 0 shipped
  in
  let resolve (c : Cluster.t) =
    match c.Cluster.fp.Fingerprint.cohort with
    | Some name -> (
        match Hashtbl.find_opt registry name with
        | Some pp -> Ok pp
        | None -> Error (Printf.sprintf "unknown cohort %s" name))
    | None -> Error "report carries no cohort tag"
  in
  let svc_config =
    {
      Service.default_config with
      Service.policy =
        { Sched.default_policy with
          Sched.ladder = config.ladder;
          jobs = 1;
          seed = config.seed;
        };
      queue_capacity = total_reports + 8;
      eager = false;
    }
  in
  let svc =
    match
      Service.open_ ~config:svc_config ~telemetry:config.telemetry ~resolve ()
    with
    | Ok s -> s
    | Error e ->
        failwith
          (Printf.sprintf "adaptive: service: %s" (Triage.Index.error_to_string e))
  in
  List.iter
    (fun (st, _, _, copies) ->
      List.iter
        (fun (path, text, _) ->
          match Service.submit svc ~path text with
          | Service.Queued -> ()
          | Service.Dropped why ->
              failwith
                (Printf.sprintf "adaptive: cohort %s: report dropped: %s"
                   st.spec.name why)
          | Service.Rejected e ->
              failwith
                (Printf.sprintf "adaptive: cohort %s: report rejected: %s"
                   st.spec.name (Wire.error_to_string e)))
        copies)
    shipped;
  let _summary = Service.drain svc in
  let results = Service.cluster_results svc in
  Service.close svc;
  (* aggregate replay verdicts per cohort *)
  let aggs : (string, replay_agg) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r : Sched.cluster_result) ->
      let name =
        Option.value ~default:"(untagged)"
          r.Sched.cluster.Cluster.fp.Fingerprint.cohort
      in
      let agg =
        match Hashtbl.find_opt aggs name with
        | Some a -> a
        | None ->
            let a = zero_agg () in
            Hashtbl.add aggs name a;
            a
      in
      observe_result agg r)
    results;
  (* decide next-round levels and build the summary *)
  let cohorts =
    List.map
      (fun (st, bits, overhead, copies) ->
        let agg =
          Option.value ~default:(zero_agg ())
            (Hashtbl.find_opt aggs st.spec.name)
        in
        let level = st.policy.Policy.level in
        let next = decide st agg in
        if next <> level then
          st.policy <-
            Policy.with_level ~prog:st.prog ~base_plan:st.base_plan st.policy next;
        let payload =
          List.fold_left (fun n (_, text, _) -> n + String.length text) 0 copies
        in
        let torn = List.length (List.filter (fun (_, _, t) -> t) copies) in
        {
          cr_name = st.spec.name;
          cr_level = level;
          cr_next = next;
          cr_reports = List.length copies;
          cr_torn = torn;
          cr_bits = bits * List.length copies;
          cr_payload_bytes = payload;
          cr_overhead_pct = overhead;
          cr_clusters = agg.a_clusters;
          cr_reproduced = agg.a_reproduced;
          cr_timed_out = agg.a_timed_out;
          cr_exhausted = agg.a_exhausted;
          cr_failed = agg.a_failed;
          cr_log_exhausted = agg.a_log_exhausted;
          cr_contradictions = agg.a_contradictions;
          cr_runs = agg.a_runs;
        })
      shipped
  in
  let cohorts_refined =
    List.length (List.filter (fun c -> c.cr_next <> c.cr_level) cohorts)
  in
  {
    round;
    cohorts;
    total_reports;
    total_bits = List.fold_left (fun n c -> n + c.cr_bits) 0 cohorts;
    total_payload_bytes =
      List.fold_left (fun n c -> n + c.cr_payload_bytes) 0 cohorts;
    cohorts_refined;
  }

let run (config : config) : result =
  if config.rounds < 1 then invalid_arg "Adaptive.Loop.run: rounds must be >= 1";
  let gen = Report_gen.make ~quick:true ~config:config.pipeline () in
  let states = List.map (setup_cohort config gen) config.fleet in
  let rounds =
    List.init config.rounds (fun i ->
        let r = run_round config gen states (i + 1) in
        Telemetry.Metrics.incr_named config.telemetry "adaptive.round";
        Telemetry.Metrics.incr_named ~by:r.cohorts_refined config.telemetry
          "adaptive.cohorts_refined";
        Telemetry.Metrics.incr_named ~by:r.total_bits config.telemetry
          "adaptive.bits_shipped";
        trace_line config "round %d: %d reports, %d bits, %d cohorts refined"
          r.round r.total_reports r.total_bits r.cohorts_refined;
        List.iter
          (fun c ->
            trace_line config
              "  %-14s %-7s -> %-7s  bits %6d  overhead %6.1f%%  \
               repro %d/%d  runs %3d  exhausted-bits %d"
              c.cr_name
              (Policy.level_to_string c.cr_level)
              (Policy.level_to_string c.cr_next)
              c.cr_bits c.cr_overhead_pct c.cr_reproduced c.cr_clusters
              c.cr_runs c.cr_log_exhausted)
          r.cohorts;
        r)
  in
  let converged =
    match List.rev rounds with [] -> false | last :: _ -> last.cohorts_refined = 0
  in
  { rounds; converged }

(* ------------------------------------------------------------------ *)

let cohort_to_json (c : cohort_round) =
  Printf.sprintf
    "{\"name\":\"%s\",\"level\":\"%s\",\"next_level\":\"%s\",\"reports\":%d,\
     \"torn\":%d,\"bits_shipped\":%d,\"payload_bytes\":%d,\
     \"overhead_pct\":%.2f,\"clusters\":%d,\"reproduced\":%d,\
     \"timed_out\":%d,\"exhausted\":%d,\"failed\":%d,\"log_exhausted\":%d,\
     \"contradictions\":%d,\"runs\":%d}"
    (Telemetry.Json.escape c.cr_name)
    (Policy.level_to_string c.cr_level)
    (Policy.level_to_string c.cr_next)
    c.cr_reports c.cr_torn c.cr_bits c.cr_payload_bytes c.cr_overhead_pct
    c.cr_clusters c.cr_reproduced c.cr_timed_out c.cr_exhausted c.cr_failed
    c.cr_log_exhausted c.cr_contradictions c.cr_runs

let round_to_json (r : round_summary) =
  Printf.sprintf
    "{\"round\":%d,\"cohorts\":[%s],\"total_reports\":%d,\"total_bits\":%d,\
     \"total_payload_bytes\":%d,\"cohorts_refined\":%d}"
    r.round
    (String.concat "," (List.map cohort_to_json r.cohorts))
    r.total_reports r.total_bits r.total_payload_bytes r.cohorts_refined

let result_to_json (t : result) =
  Printf.sprintf "{\"rounds\":[%s],\"converged\":%b}"
    (String.concat "," (List.map round_to_json t.rounds))
    t.converged
