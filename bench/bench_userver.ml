(* E6-E11 + ablations — the §5.3 µServer experiments: Figure 3 (branch
   behaviour), Table 2 (instrumented branch locations, LC/HC), Figure 4
   (CPU time and storage per request), Table 3 (bug reproduction times),
   Table 4 (symbolic branches logged / not logged), Tables 5 and 8 (no
   system-call logging), plus two ablations. *)

let prog () = Lazy.force Workloads.Userver.prog

(* pre-deployment analyses, cached: dynamic at two coverage budgets (the
   paper's LC = 1 h and HC = 2 h of symbolic execution) and static with the
   library treated conservatively (the merged source was too large for
   points-to analysis, §5.3) *)
type analyses = {
  lc : Concolic.Dynamic.result;
  hc : Concolic.Dynamic.result;
  static : Staticanalysis.Static.result;  (** refined precision pipeline *)
  static_seed : Staticanalysis.Static.result;  (** unrefined baseline *)
}

let cache : analyses option ref = ref None

(* The LC and HC configurations of §5.3.  LC runs the symbolic engine
   briefly over a plain test workload (two simple GETs); HC invests more
   exploration *and* leverages the test suite (a richer httperf-style
   request mix) to boost coverage — the combination §6 "Branch coverage"
   recommends.  At our scale a single run covers most of what its workload
   reaches, so workload richness is the effective coverage knob. *)
let lc_workload () =
  Workloads.Userver.scenario ~name:"userver-test-lc"
    [ Workloads.Http_gen.tiny_get; "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n" ]

let hc_workload () =
  Workloads.Userver.scenario ~name:"userver-test-hc"
    (Workloads.Http_gen.workload ~seed:5 12)

let test_workload (_ : Ctx.t) = lc_workload ()

let analyses (c : Ctx.t) : analyses =
  match !cache with
  | Some a -> a
  | None ->
      let lc = Concolic.Dynamic.analyze ~budget:(Ctx.lc_budget c) (lc_workload ()) in
      let hc = Concolic.Dynamic.analyze ~budget:(Ctx.hc_budget c) (hc_workload ()) in
      let static = Staticanalysis.Static.analyze ~analyze_lib:false (prog ()) in
      let static_seed =
        Staticanalysis.Static.analyze ~analyze_lib:false ~refine:false (prog ())
      in
      let a = { lc; hc; static; static_seed } in
      cache := Some a;
      a

(* the six instrumented configurations of Figure 4 / Table 3 *)
let configs (c : Ctx.t) : (string * Instrument.Plan.t) list =
  let a = analyses c in
  let n = Minic.Program.nbranches (prog ()) in
  let mk ?dynamic meth =
    Instrument.Plan.make ~nbranches:n ?dynamic ~static:a.static.labels meth
  in
  [
    ("dynamic (lc)", mk ~dynamic:a.lc.labels Instrument.Methods.Dynamic);
    ("dynamic (hc)", mk ~dynamic:a.hc.labels Instrument.Methods.Dynamic);
    ("dyn+static (lc)", mk ~dynamic:a.lc.labels Instrument.Methods.Dynamic_static);
    ("dyn+static (hc)", mk ~dynamic:a.hc.labels Instrument.Methods.Dynamic_static);
    ("static", mk Instrument.Methods.Static);
    ("all branches", mk Instrument.Methods.All_branches);
  ]

(* Figure 3: per-branch-location executions, app vs library, log scale. *)
let e6 (c : Ctx.t) =
  Util.section ~id:"E6" ~paper:"Figure 3"
    (Printf.sprintf
       "Branch executions, µServer serving %d requests (log-scale bars; S = symbolic)"
       c.requests)
  ;
  let sc =
    Workloads.Userver.scenario ~name:"userver-fig3"
      (Workloads.Http_gen.workload c.requests)
  in
  let stats = Bugrepro.Pipeline.measure_branch_behaviour sc in
  let p = sc.prog in
  let max_v = float_of_int (Array.fold_left max 1 stats.total_execs) in
  let show_row bid =
    let total = stats.total_execs.(bid) in
    if total = 0 then None
    else
      let sym = stats.symbolic_execs.(bid) in
      Some
        [
          Printf.sprintf "b%03d" bid;
          string_of_int total;
          string_of_int sym;
          Util.log_bar ~max_width:28 ~max_value:max_v (float_of_int total)
          ^ (if sym > 0 then " S" else "");
        ]
  in
  let app_rows = List.filter_map show_row (Minic.Program.app_branch_ids p) in
  let lib_rows = List.filter_map show_row (Minic.Program.lib_branch_ids p) in
  print_endline "-- branches located in the uServer (application) code --";
  Util.table ([ "branch"; "execs"; "symbolic"; "log-scale profile" ] :: app_rows);
  print_endline "-- branches located in the runtime library (uClibc analogue) --";
  Util.table ([ "branch"; "execs"; "symbolic"; "log-scale profile" ] :: lib_rows);
  let sum ids arr = List.fold_left (fun acc b -> acc + arr.(b)) 0 ids in
  let app_ids = Minic.Program.app_branch_ids p
  and lib_ids = Minic.Program.lib_branch_ids p in
  let tot_app = sum app_ids stats.total_execs
  and tot_lib = sum lib_ids stats.total_execs in
  let sym_app = sum app_ids stats.symbolic_execs
  and sym_lib = sum lib_ids stats.symbolic_execs in
  let total = tot_app + tot_lib and sym = sym_app + sym_lib in
  let sym_locs =
    Array.fold_left (fun n s -> if s > 0 then n + 1 else n) 0 stats.symbolic_execs
  in
  Printf.printf
    "%d branch executions, %d symbolic (%.0f%%), at %d symbolic branch locations.\n\
     library share: %.0f%% of all executions, %.0f%% of symbolic executions.\n\
     (paper: 18M executions, 10%% symbolic at 53 locations; 81%% in the library,\n\
     28%% of symbolic executions in the library)\n"
    total sym
    (100.0 *. float_of_int sym /. float_of_int (max total 1))
    sym_locs
    (100.0 *. float_of_int tot_lib /. float_of_int (max total 1))
    (100.0 *. float_of_int sym_lib /. float_of_int (max sym 1))

(* Table 2: number of instrumented branch locations per configuration. *)
let e7 (c : Ctx.t) =
  Util.section ~id:"E7" ~paper:"Table 2"
    "Instrumented branch locations in the µServer";
  let a = analyses c in
  let rows =
    List.map
      (fun (name, plan) ->
        [ name; string_of_int plan.Instrument.Plan.n_instrumented ])
      (configs c)
  in
  Util.table ([ "configuration"; "# instrumented branch locations" ] :: rows);
  let slc, clc, ulc = Concolic.Dynamic.count_labels a.lc in
  let shc, chc, uhc = Concolic.Dynamic.count_labels a.hc in
  Printf.printf
    "dynamic labelling: LC %d sym / %d conc / %d unvisited (coverage %.0f%%, %d runs)\n\
    \                   HC %d sym / %d conc / %d unvisited (coverage %.0f%%, %d runs)\n\
     static: %d symbolic of %d locations (library conservative)\n\
     expected shape: dynamic grows with coverage; dyn+static shrinks with\n\
     coverage; dynamic < dyn+static < static < all.\n"
    slc clc ulc
    (100.0 *. a.lc.coverage)
    a.lc.runs shc chc uhc
    (100.0 *. a.hc.coverage)
    a.hc.runs a.static.n_symbolic
    (Minic.Program.nbranches (prog ()));
  (* precision of the static labels against the HC dynamic ground truth:
     seed (unrefined) pipeline vs the refined one *)
  let p = prog () in
  let prec_seed =
    Staticanalysis.Static.precision a.static_seed p ~dynamic:a.hc.labels
  in
  let prec = Staticanalysis.Static.precision a.static p ~dynamic:a.hc.labels in
  let row name (s : Staticanalysis.Static.result)
      (r : Staticanalysis.Precision.report) =
    [
      name;
      string_of_int s.n_symbolic;
      string_of_int s.n_const_proved;
      string_of_int s.n_dead_proved;
      string_of_int r.n_spurious;
      string_of_int r.n_missed;
      Printf.sprintf "%.1f%%" (100.0 *. r.spurious_rate);
    ]
  in
  Util.table
    ([ "static pipeline"; "symbolic"; "const-proved"; "dead";
       "spurious (vs HC)"; "missed"; "spurious rate" ]
    :: row "seed (no refinement)" a.static_seed prec_seed
    :: [ row "refined (constprop+strong)" a.static prec ]);
  Printf.printf "precision.json: %s\n"
    (Staticanalysis.Precision.to_json
       { prec with Staticanalysis.Precision.entries = [||] })

(* Figure 4: CPU time and storage per request under each configuration. *)
let e8 (c : Ctx.t) =
  Util.section ~id:"E8" ~paper:"Figure 4"
    (Printf.sprintf "µServer CPU time and storage, %d requests" c.requests);
  let reqs = Workloads.Http_gen.workload c.requests in
  let sc = Workloads.Userver.scenario ~name:"userver-fig4" reqs in
  let n = Minic.Program.nbranches (prog ()) in
  let baseline =
    (Instrument.Field_run.run
       ~plan:(Instrument.Plan.make ~nbranches:n Instrument.Methods.No_instrumentation)
       sc)
      .cost
      .instr
  in
  let rows =
    List.map
      (fun (name, plan) ->
        let r = Instrument.Field_run.run ~plan sc in
        let bytes = Instrument.Field_run.storage_bytes r in
        [
          name;
          Util.pct ~baseline r.cost.instr;
          Printf.sprintf "%.1f" (float_of_int bytes /. float_of_int c.requests);
          Util.bar ~max_width:24 ~max_value:250.0
            (100.0 *. float_of_int r.cost.instr /. float_of_int baseline);
        ])
      (configs c)
  in
  Util.table ([ "configuration"; "cpu time"; "storage (bytes/request)"; "" ] :: rows);
  (match List.assoc_opt "dyn+static (hc)" (configs c) with
  | Some plan -> Util.elision_curve ~experiment:"E8" ~prog:(prog ()) ~plan sc
  | None -> ());
  print_endline
    "expected shape: all-branches worst; static only marginally better (it\n\
     instruments every library branch); dynamic and dyn+static far cheaper;\n\
     storage roughly proportional to cpu overhead (paper: ~50 bytes/request\n\
     for the dynamic configurations)."

(* Table 3 + Table 4: replay the five crash experiments under each
   configuration; report times and logged/unlogged symbolic branches. *)
let e9_e10 (c : Ctx.t) =
  Util.section ~id:"E9" ~paper:"Table 3"
    (Printf.sprintf
       "µServer bug reproduction times (budget %.0fs; '%s' = did not finish)"
       c.replay_time_s Util.infinity_symbol);
  let p = prog () in
  let t4 : (int * string * Bugrepro.Pipeline.symbolic_logging_stats) list ref =
    ref []
  in
  let rows =
    List.map
      (fun (e : Workloads.Userver.experiment) ->
        let crash_sc = Workloads.Userver.experiment_scenario e in
        let cells =
          List.map
            (fun (name, plan) ->
              let cfg = Ctx.pipeline_config c in
              let _, report =
                Bugrepro.Pipeline.Run.field_run_report cfg ~plan crash_sc
              in
              match report with
              | None -> "no crash"
              | Some report ->
                  let result, _ =
                    Bugrepro.Pipeline.Run.reproduce cfg ~prog:p ~plan report
                  in
                  let stats =
                    Bugrepro.Pipeline.measure_symbolic_logging ~plan crash_sc
                  in
                  t4 := (e.id, name, stats) :: !t4;
                  Util.verdict_string (Util.replay_verdict result))
            (configs c)
        in
        Printf.sprintf "Exp. %d" e.id :: cells)
      Workloads.Userver.experiments
  in
  Util.table (("experiment" :: List.map fst (configs c)) :: rows);
  print_endline
    "expected shape: all-branches and static always finish fast; dyn+static\n\
     close behind; dynamic (lc) worst, with timeouts on the experiments whose\n\
     parser paths were not covered.";
  Util.section ~id:"E10" ~paper:"Table 4"
    "Symbolic branch locations (and executions) logged / not logged";
  let rows =
    List.rev_map
      (fun (id, name, (s : Bugrepro.Pipeline.symbolic_logging_stats)) ->
        [
          Printf.sprintf "Exp. %d" id;
          name;
          Printf.sprintf "%d / %d" s.logged_locs s.logged_execs;
          Printf.sprintf "%d / %d" s.unlogged_locs s.unlogged_execs;
        ])
      !t4
  in
  Util.table
    ([ "experiment"; "configuration"; "logged locs/execs"; "NOT logged locs/execs" ]
    :: rows);
  print_endline
    "expected shape: replay time correlates with the number of unlogged\n\
     symbolic branch locations (right column); static and all-branches have 0."

(* Tables 5 and 8: replay without system-call result logging. *)
let e11 (c : Ctx.t) =
  Util.section ~id:"E11" ~paper:"Tables 5 and 8"
    "Replay without system-call logging (experiments 1 and 4)";
  let p = prog () in
  let rows =
    List.concat_map
      (fun id ->
        let e = Workloads.Userver.experiment id in
        let crash_sc = Workloads.Userver.experiment_scenario e in
        List.filter_map
          (fun (name, plan) ->
            let cfg =
              Ctx.pipeline_config c
              |> Bugrepro.Pipeline.Config.with_log_syscalls false
            in
            let _, report =
              Bugrepro.Pipeline.Run.field_run_report cfg ~plan crash_sc
            in
            match report with
            | None -> None
            | Some report ->
                let result, stats =
                  Bugrepro.Pipeline.Run.reproduce cfg ~prog:p ~plan report
                in
                (* Table 8: without a syscall log, branches on syscall
                   results count as symbolic too *)
                let t8 =
                  Bugrepro.Pipeline.measure_symbolic_logging
                    ~syscall_results_symbolic:true ~plan crash_sc
                in
                Some
                  [
                    Printf.sprintf "Exp. %d" id;
                    name;
                    Util.verdict_string (Util.replay_verdict result);
                    string_of_int stats.engine.runs;
                    Printf.sprintf "%d / %d" t8.logged_locs t8.logged_execs;
                    Printf.sprintf "%d / %d" t8.unlogged_locs t8.unlogged_execs;
                  ])
          (configs c))
      [ 1; 4 ]
  in
  Util.table
    ([ "experiment"; "configuration"; "replay time"; "runs";
       "logged locs/execs"; "NOT logged locs/execs" ]
    :: rows);
  print_endline
    "expected shape: every configuration slower than with syscall logging\n\
     (compare E9: branches on read counts and ready sets are now symbolic,\n\
     so the logged/unlogged counts exceed Table 4's); the engine must search\n\
     for the syscall results."

(* Ablation: cost of logging system-call results (paper: ~0.2%). *)
let a1 (c : Ctx.t) =
  Util.section ~id:"A1" ~paper:"§5.3 (impact of logging system calls)"
    "Overhead of system-call result logging";
  let reqs = Workloads.Http_gen.workload (max 50 (c.requests / 4)) in
  let sc = Workloads.Userver.scenario ~name:"userver-a1" reqs in
  let _, plan = List.nth (configs c) 3 (* dyn+static (hc) *) in
  let with_log = Instrument.Field_run.run ~log_syscalls:true ~plan sc in
  let without = Instrument.Field_run.run ~log_syscalls:false ~plan sc in
  Util.table
    [
      [ "configuration"; "instructions"; "syscall entries" ];
      [
        "dyn+static, syscall log on";
        string_of_int with_log.cost.instr;
        (match with_log.syscall_log with
        | Some l -> string_of_int (Instrument.Syscall_log.length l)
        | None -> "0");
      ];
      [ "dyn+static, syscall log off"; string_of_int without.cost.instr; "0" ];
    ];
  Printf.printf "syscall-logging overhead: %.2f%% (paper: 0.2%%)\n"
    (100.0
    *. float_of_int (with_log.cost.instr - without.cost.instr)
    /. float_of_int without.cost.instr)

(* Ablation: dynamic-analysis budget sweep (coverage/instrumentation/replay). *)
let a2 (c : Ctx.t) =
  Util.section ~id:"A2" ~paper:"ablation (ours)"
    "Dynamic-analysis budget sweep: coverage vs instrumentation vs replay time";
  let p = prog () in
  let n = Minic.Program.nbranches p in
  let sc = test_workload c in
  let static = (analyses c).static in
  let exp1 = Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 1) in
  let budgets = if c.quick then [ 1; 10; 60 ] else [ 1; 5; 20; 80; 250 ] in
  let rows =
    List.map
      (fun runs ->
        let d =
          Concolic.Dynamic.analyze
            ~budget:{ Concolic.Engine.max_runs = runs; max_time_s = c.analysis_time_s }
            sc
        in
        let plan =
          Instrument.Plan.make ~nbranches:n ~dynamic:d.labels
            ~static:static.labels Instrument.Methods.Dynamic_static
        in
        let cfg = Ctx.pipeline_config c in
        let _, report = Bugrepro.Pipeline.Run.field_run_report cfg ~plan exp1 in
        let verdict =
          match report with
          | None -> "no crash"
          | Some report ->
              let result, _ =
                Bugrepro.Pipeline.Run.reproduce cfg ~prog:p ~plan report
              in
              Util.verdict_string (Util.replay_verdict result)
        in
        [
          string_of_int runs;
          Printf.sprintf "%.0f%%" (100.0 *. d.coverage);
          string_of_int plan.n_instrumented;
          verdict;
        ])
      budgets
  in
  Util.table
    ([ "analysis runs"; "coverage"; "dyn+static instrumented"; "exp1 replay" ]
    :: rows);
  print_endline
    "expected shape: more analysis budget -> higher coverage -> fewer\n\
     instrumented branches under dyn+static (static's conservative labels\n\
     get overridden), with replay time staying low."
