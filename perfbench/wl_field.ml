(* Workload [field]: closed loop, one instrumented field run at a time.

   Seeded µServer request streams, diff file pairs and the coreutils
   benign and crash scenarios each run under all five §2.3 methods with
   online encoding; every crashing run is serialized to wire text.  The
   interpreter, the probes, the codec and wire writing do all the work;
   solver, engine and triage stay idle. *)

open Common
module Crash = Interp.Crash
module FR = Instrument.Field_run

type case = {
  sc : Concolic.Scenario.t;
  program : program;
  site : (Crash.kind * string) option;
      (** a crash scenario's catalogued site: crash kind and function *)
  expect : Crash.outcome;  (** outcome of the uninstrumented run *)
}

type t = { cases : case list }

(* Where each catalogued bug crashes, read off the programs' sources.  A
   crash scenario that stops crashing there fails its check under every
   method, the uninstrumented one included. *)
let coreutils_sites =
  [
    ("mkdir", (Crash.Out_of_bounds, "apply_mode"));
    ("mknod", (Crash.Out_of_bounds, "register_dev"));
    ("mkfifo", (Crash.Out_of_bounds, "split_components"));
    ("paste", (Crash.Out_of_bounds, "decode_delim"));
  ]

let userver_sites =
  [
    (1, (Crash.Out_of_bounds, "handle_request"));
    (2, (Crash.Div_by_zero, "handle_request"));
    (3, (Crash.Out_of_bounds, "parse_cookie"));
    (4, (Crash.Out_of_bounds, "handle_request"));
    (5, (Crash.Out_of_bounds, "handle_request"));
  ]

(* diff -s stops itself with crash() at the end of main *)
let diff_site = (Crash.Explicit_crash, "main")

let setup ~size ~seed ~tel =
  let progs = analyze_all ~tel () in
  let rng = Osmodel.Rng.create seed in
  let coreutils =
    List.concat_map
      (fun (e : Workloads.Coreutils.entry) ->
        let p = find progs e.util in
        [
          (p, None, Workloads.Coreutils.benign_scenario e);
          (p, Some (List.assoc e.util coreutils_sites), Workloads.Coreutils.crash_scenario e);
        ])
      Workloads.Coreutils.catalog
  in
  let userver = find progs "userver" and diff = find progs "diff" in
  (* The streams are the costliest common inputs and make up two thirds
     of all runs, so the median and p90 run latencies both fall well
     inside one group of similar cost rather than on the edge between
     two (with four diff pairs the median sat on the diff/stream edge). *)
  let streams, pairs = match size with Tiny -> (1, 1) | Full -> (32, 2) in
  let scenarios =
    coreutils
    @ List.map
        (fun (e : Workloads.Userver.experiment) ->
          (userver, Some (List.assoc e.id userver_sites), Workloads.Userver.experiment_scenario e))
        Workloads.Userver.experiments
    @ List.init streams (fun i ->
          ( userver,
            None,
            Workloads.Userver.scenario
              ~name:(Printf.sprintf "userver-stream%d" i)
              (request_stream rng 4) ))
    @ List.concat
        (List.init pairs (fun i ->
             let file_a, file_b = diff_pair ~seed:(Osmodel.Rng.int rng 1_000_000) () in
             let name = Printf.sprintf "diff-pair%d" i in
             [
               (diff, None, Workloads.Diffutil.scenario ~name ~snapshot:false ~file_a ~file_b ());
               ( diff,
                 Some diff_site,
                 Workloads.Diffutil.scenario ~name:(name ^ "-crash") ~file_a ~file_b () );
             ]))
  in
  let cases =
    List.map
      (fun (program, site, sc) ->
        let r = FR.run ~plan:(plan program Methods.No_instrumentation) sc in
        { sc; program; site; expect = r.outcome })
      scenarios
  in
  { cases }

let same_outcome expect got =
  match (expect, got) with
  | Crash.Crash a, Crash.Crash b -> Crash.equal_site a b
  | a, b -> a = b

let at_site site (o : Crash.outcome) =
  match (site, o) with
  | None, _ -> true
  | Some (kind, fn), Crash.Crash c -> c.Crash.kind = kind && c.Crash.in_func = fn
  | Some _, _ -> false

let run t ~seconds ~(tr : Tracing.t) =
  let tel = tr.tel in
  let traced = Tracing.enabled tr in
  let c = checks () in
  let lat = ref [] and runs = ref 0 in
  (* first-pass accounting: deterministic per seed *)
  let instr = ref 0 and base = ref 0 and wire_bytes = ref 0 and crashes = ref 0 in
  (* per (case, method): wall times and logged branches, for the probe rows *)
  let walls = Hashtbl.create 64 and logged = Hashtbl.create 64 in
  let reports = ref [] in
  let pass ~first =
    let n = ref 0 and busy = ref 0.0 in
    List.iteri
      (fun ci case ->
        let none_instr = ref 0 in
        List.iter
          (fun meth ->
            let plan = plan case.program meth in
            let cfg = Config.with_telemetry tel case.program.cfg in
            let call () =
              let r, rep = Run.field_run_report cfg ~plan case.sc in
              (r, rep, Option.map Instrument.Wire.serialize rep)
            in
            let (r, rep, wire), dt =
              if traced && meth = Methods.No_instrumentation then
                time (fun () ->
                    Telemetry.Span.with_ tel ~name:"interp.field_run" (fun _ ->
                        let r, rep = Run.field_run_report case.program.cfg ~plan case.sc in
                        (r, rep, Option.map Instrument.Wire.serialize rep)))
              else time call
            in
            lat := dt :: !lat;
            incr runs;
            incr n;
            busy := !busy +. dt;
            Calib.slice ();
            Hashtbl.replace walls (ci, meth)
              (dt :: Option.value ~default:[] (Hashtbl.find_opt walls (ci, meth)));
            check c
              (same_outcome case.expect r.FR.outcome && at_site case.site r.outcome)
              (fun () ->
                let catalogued =
                  match case.site with
                  | Some (kind, fn) -> Printf.sprintf " (%s in %s)" (Crash.kind_to_string kind) fn
                  | None -> ""
                in
                Printf.sprintf "%s under %s: %s, expected %s%s" case.sc.name
                  (Methods.to_string meth)
                  (Crash.outcome_to_string r.outcome)
                  (Crash.outcome_to_string case.expect)
                  catalogued);
            (match (rep, wire) with
            | Some rep, Some w ->
                let round_trips =
                  match Instrument.Wire.deserialize_v w with
                  | Ok back ->
                      Instrument.Wire.serialize back = w
                      && Crash.equal_site back.crash rep.crash
                      && Instrument.Report.nbits back = Instrument.Report.nbits rep
                  | Error _ -> false
                in
                check c round_trips (fun () ->
                    Printf.sprintf "%s under %s: wire does not round-trip" case.sc.name
                      (Methods.to_string meth));
                if first then begin
                  incr crashes;
                  wire_bytes := !wire_bytes + String.length w;
                  if meth <> Methods.No_instrumentation then reports := rep :: !reports
                end
            | _ -> ());
            if first then begin
              if meth = Methods.No_instrumentation then none_instr := r.cost.instr
              else begin
                instr := !instr + r.cost.instr;
                base := !base + !none_instr;
                Hashtbl.replace logged (ci, meth) r.cost.logged_branches
              end
            end)
          Methods.all)
      t.cases;
    (!n, !busy)
  in
  let throughput = median_pass_rate ~seconds pass in
  let named =
    [
      metric "field_runs_per_s" "1/s" throughput;
      metric "field_overhead_x" "x" (Stats.ratio (float_of_int !instr) (float_of_int !base));
      metric "report_bytes" "bytes" (Stats.ratio (float_of_int !wire_bytes) (float_of_int !crashes));
    ]
  in
  let layers () =
    if not traced then []
    else begin
      let med ci m = Stats.median (Array.of_list (Hashtbl.find walls (ci, m))) in
      (* probe cost: wall time under a method minus under none, per logged
         branch; allocation likewise, from single-domain runs *)
      let extra_s = ref 0.0 and extra_w = ref 0.0 and branches = ref 0 in
      List.iteri
        (fun ci case ->
          let none_plan = plan case.program Methods.No_instrumentation in
          let _, w_none = minor_words (fun () -> FR.run ~plan:none_plan case.sc) in
          List.iter
            (fun m ->
              let n = Hashtbl.find logged (ci, m) in
              let _, w = minor_words (fun () -> FR.run ~plan:(plan case.program m) case.sc) in
              branches := !branches + n;
              extra_s := !extra_s +. (med ci m -. med ci Methods.No_instrumentation);
              extra_w := !extra_w +. (w -. w_none))
            Methods.instrumented)
        t.cases;
      let b = float_of_int !branches in
      [
        interp_ledger
          (List.map (fun case -> (case.sc, plan case.program Methods.No_instrumentation)) t.cases);
        metric "instrument.probe_ns_per_branch" "ns" (Stats.ratio (1e9 *. !extra_s) b);
        metric "instrument.probe_minor_words_per_branch" "words" (Stats.ratio !extra_w b);
      ]
      @ codec_wire_ledger !reports
    end
  in
  {
    attempted = !runs;
    failed = c.count;
    errors = messages c;
    throughput;
    latencies = Array.of_list !lat;
    named;
    layers;
  }
