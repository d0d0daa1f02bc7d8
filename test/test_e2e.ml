(* End-to-end integration tests: the full analyse → plan → field run →
   report → reproduce pipeline on every bundled workload, under each
   instrumentation method. *)

let check_bool = Alcotest.(check bool)

let config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 60; max_time_s = 8.0 }
         ~replay:{ Concolic.Engine.max_runs = 3000; max_time_s = 30.0 })

(* analyse once per program, cached across methods *)
let analyses : (string, Bugrepro.Pipeline.analysis) Hashtbl.t = Hashtbl.create 8

let analysis_for ~key ~analyze_lib ~(test_scenario : Concolic.Scenario.t) prog =
  match Hashtbl.find_opt analyses key with
  | Some a -> a
  | None ->
      let a =
        Bugrepro.Pipeline.Run.analyze
          (Bugrepro.Pipeline.Config.with_analyze_lib analyze_lib config)
          ~test_scenario prog
      in
      Hashtbl.replace analyses key a;
      a

let run_pipeline ?(analyze_lib = true) ~key ~(test_sc : Concolic.Scenario.t)
    ~(crash_sc : Concolic.Scenario.t) meth =
  let prog = crash_sc.prog in
  let analysis = analysis_for ~key ~analyze_lib ~test_scenario:test_sc prog in
  let plan = Bugrepro.Pipeline.Run.plan config analysis meth in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan crash_sc in
  match report with
  | None -> Alcotest.failf "%s: field run did not crash" key
  | Some report ->
      let result, stats =
        Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report
      in
      (result, stats, plan, report)

(* ------------------------------------------------------------------ *)
(* Coreutils: all four bugs reproduce under every method (Table 1: the
   programs are small enough that all configurations succeed) *)

let test_coreutils_all_methods () =
  List.iter
    (fun (e : Workloads.Coreutils.entry) ->
      List.iter
        (fun meth ->
          let result, _, _, _ =
            run_pipeline ~key:("core-" ^ e.util)
              ~test_sc:(Workloads.Coreutils.analysis_scenario e)
              ~crash_sc:(Workloads.Coreutils.crash_scenario e)
              meth
          in
          check_bool
            (Printf.sprintf "%s under %s" e.util (Instrument.Methods.to_string meth))
            true
            (Replay.Guided.reproduced result))
        Instrument.Methods.instrumented)
    Workloads.Coreutils.catalog

(* ------------------------------------------------------------------ *)
(* µServer: experiment 1 under every method; experiment 4 under the
   combined method (full Table 3 sweep lives in the bench harness) *)

let userver_test_sc () =
  Workloads.Userver.scenario ~name:"userver-test" (Workloads.Http_gen.workload 5)

let test_userver_exp1_all_methods () =
  let crash_sc =
    Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 1)
  in
  List.iter
    (fun meth ->
      let result, _, _, _ =
        run_pipeline ~analyze_lib:false ~key:"userver" ~test_sc:(userver_test_sc ())
          ~crash_sc meth
      in
      check_bool
        (Printf.sprintf "userver exp1 under %s" (Instrument.Methods.to_string meth))
        true
        (Replay.Guided.reproduced result))
    Instrument.Methods.instrumented

let test_userver_exp4_combined () =
  let crash_sc =
    Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 4)
  in
  let result, _, _, _ =
    run_pipeline ~analyze_lib:false ~key:"userver" ~test_sc:(userver_test_sc ())
      ~crash_sc Instrument.Methods.Dynamic_static
  in
  check_bool "userver exp4 dynamic+static" true (Replay.Guided.reproduced result)

(* ------------------------------------------------------------------ *)
(* diff: static and combined reproduce (Table 6: dynamic times out) *)

let test_diff_static_reproduces () =
  let crash_sc = Workloads.Diffutil.experiment_1 () in
  let result, _, _, _ =
    run_pipeline ~key:"diff" ~test_sc:crash_sc ~crash_sc Instrument.Methods.Static
  in
  check_bool "diff exp1 static" true (Replay.Guided.reproduced result)

let test_diff_combined_reproduces () =
  let crash_sc = Workloads.Diffutil.experiment_1 () in
  let result, _, _, _ =
    run_pipeline ~key:"diff" ~test_sc:crash_sc ~crash_sc
      Instrument.Methods.Dynamic_static
  in
  check_bool "diff exp1 dynamic+static" true (Replay.Guided.reproduced result)

(* ------------------------------------------------------------------ *)
(* Cross-cutting invariants *)

let test_overhead_ordering_invariant () =
  (* none <= dynamic <= dynamic+static <= static <= all on instrumented
     branch *count* for the µServer (§2.3's spectrum) *)
  let prog = Lazy.force Workloads.Userver.prog in
  let analysis =
    analysis_for ~key:"userver" ~analyze_lib:false ~test_scenario:(userver_test_sc ())
      prog
  in
  let count meth = (Bugrepro.Pipeline.Run.plan config analysis meth).n_instrumented in
  let d = count Instrument.Methods.Dynamic in
  let ds = count Instrument.Methods.Dynamic_static in
  let s = count Instrument.Methods.Static in
  let a = count Instrument.Methods.All_branches in
  check_bool "dynamic <= dynamic+static" true (d <= ds);
  check_bool "dynamic+static <= static" true (ds <= s);
  check_bool "static <= all" true (s <= a)

let test_plan_nesting () =
  (* soundness gives dynamic ⊆ dynamic+static ⊆ static ⊆ all as *sets*
     (not just counts), and therefore log sizes are monotone too *)
  let prog = Lazy.force Workloads.Userver.prog in
  let analysis =
    analysis_for ~key:"userver" ~analyze_lib:false ~test_scenario:(userver_test_sc ())
      prog
  in
  let plan m = Bugrepro.Pipeline.Run.plan config analysis m in
  let d = plan Instrument.Methods.Dynamic in
  let ds = plan Instrument.Methods.Dynamic_static in
  let st = plan Instrument.Methods.Static in
  let al = plan Instrument.Methods.All_branches in
  let subset a b =
    List.for_all (Instrument.Plan.is_instrumented b) (Instrument.Plan.instrumented_ids a)
  in
  check_bool "dynamic ⊆ dyn+static" true (subset d ds);
  check_bool "dyn+static ⊆ static" true (subset ds st);
  check_bool "static ⊆ all" true (subset st al);
  (* bits logged on the same run are monotone across nested plans *)
  let sc = Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 1) in
  let bits p = (Instrument.Field_run.run ~plan:p sc).branch_log.nbits in
  let bd = bits d and bds = bits ds and bst = bits st and bal = bits al in
  check_bool "bit monotonicity" true (bd <= bds && bds <= bst && bst <= bal)

let test_reproduced_model_crashes_when_rerun () =
  (* the input synthesised by replay, when fed back through the replay
     kernel, reaches the same crash site: verified by reproduce itself, but
     re-check the crash site against the report *)
  let e = Workloads.Coreutils.find "mkdir" in
  let result, _, _, report =
    run_pipeline ~key:"core-mkdir"
      ~test_sc:(Workloads.Coreutils.analysis_scenario e)
      ~crash_sc:(Workloads.Coreutils.crash_scenario e)
      Instrument.Methods.Dynamic_static
  in
  match result with
  | Replay.Guided.Reproduced r ->
      check_bool "same crash site as report" true
        (Interp.Crash.equal_site r.crash report.crash)
  | Replay.Guided.Not_reproduced _ -> Alcotest.fail "not reproduced"

let () =
  Alcotest.run "e2e"
    [
      ( "coreutils",
        [ Alcotest.test_case "all bugs, all methods" `Slow test_coreutils_all_methods ]
      );
      ( "userver",
        [
          Alcotest.test_case "exp1 all methods" `Slow test_userver_exp1_all_methods;
          Alcotest.test_case "exp4 combined" `Slow test_userver_exp4_combined;
        ] );
      ( "diff",
        [
          Alcotest.test_case "exp1 static" `Slow test_diff_static_reproduces;
          Alcotest.test_case "exp1 combined" `Slow test_diff_combined_reproduces;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "plan size ordering" `Quick
            test_overhead_ordering_invariant;
          Alcotest.test_case "plan nesting and bit monotonicity" `Quick
            test_plan_nesting;
          Alcotest.test_case "reproduced model crash site" `Slow
            test_reproduced_model_crashes_when_rerun;
        ] );
    ]
