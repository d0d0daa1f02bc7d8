(* Tests for guided replay (§3): the four branch cases, log truncation,
   corrupted logs, syscall replay and the end-to-end reproduce loop on
   small programs. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Workloads.Runtime_lib.link ~name:"t" src

let budget = { Concolic.Engine.max_runs = 400; max_time_s = 15.0 }

let config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 40; max_time_s = 5.0 }
         ~replay:budget)

(* full pipeline on a small program: returns (plan, report, prog) *)
let record ?(meth = Instrument.Methods.All_branches) ?(args = []) ?world src =
  let prog = compile src in
  let sc =
    Concolic.Scenario.make ~name:"t" ~args
      ?world:(Option.map Fun.id world)
      prog
  in
  let analysis = Bugrepro.Pipeline.Run.analyze config ~test_scenario:sc prog in
  let plan = Bugrepro.Pipeline.Run.plan config analysis meth in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan sc in
  (prog, plan, report)

let reproduce ?(budget = budget) prog plan report =
  Bugrepro.Pipeline.Run.reproduce
    (Bugrepro.Pipeline.Config.with_budget ~replay:budget config)
    ~prog ~plan report

(* ------------------------------------------------------------------ *)

let magic_src =
  "int main() {\n\
  \  int b[8];\n\
  \  arg(0, b, 8);\n\
  \  if (b[0] == 'B') {\n\
  \    if (b[1] == 'U') {\n\
  \      if (b[2] == 'G') { crash(); }\n\
  \    }\n\
  \  }\n\
  \  return 0;\n\
   }"

let test_reproduce_magic_word () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  match report with
  | None -> Alcotest.fail "field run did not crash"
  | Some report -> (
      let result, _ = reproduce prog plan report in
      match result with
      | Replay.Guided.Reproduced r ->
          (* the synthesised input must spell out the magic word *)
          let vars = Solver.Symvars.create () in
          let byte i =
            let id = Concolic.Names.arg_var vars ~arg:0 ~pos:i in
            Solver.Model.find_opt id r.model
          in
          ignore byte;
          check_bool "crash site matches" true
            (r.crash.in_func = "main")
      | Replay.Guided.Not_reproduced _ -> Alcotest.fail "not reproduced")

let test_reproduce_under_each_method () =
  List.iter
    (fun meth ->
      let prog, plan, report = record ~meth ~args:[ "BUG" ] magic_src in
      match report with
      | None -> Alcotest.fail "no crash"
      | Some report ->
          let result, _ = reproduce prog plan report in
          check_bool
            (Printf.sprintf "reproduced under %s" (Instrument.Methods.to_string meth))
            true
            (Replay.Guided.reproduced result))
    Instrument.Methods.instrumented

let test_reproduce_without_any_instrumentation () =
  (* plan = none: pure symbolic search, still finds this shallow bug *)
  let prog, _, _ = record ~args:[ "BUG" ] magic_src in
  let none_plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "BUG" ] prog in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan:none_plan sc in
  match report with
  | None -> Alcotest.fail "no crash"
  | Some report ->
      let result, stats = reproduce prog none_plan report in
      check_bool "reproduced with empty log" true (Replay.Guided.reproduced result);
      check_bool "explored symbolic branches freely" true (stats.cases.case1 > 0)

let test_case2a_dominates_with_full_log () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let _, stats = reproduce prog plan report in
  check_bool "2a happened" true (stats.cases.case2a > 0);
  check_int "no unlogged symbolic branches" 0 stats.cases.case1

let test_truncated_log_still_reproduces () =
  (* drop the last bits of the log: the engine treats missing bits as
     unlogged and searches *)
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let bits = Instrument.Branch_log.to_bits (Instrument.Report.raw_log report) in
  let keep = List.filteri (fun i _ -> i < List.length bits / 2) bits in
  let truncated =
    {
      report with
      branch_log = Instrument.Report.Raw (Instrument.Branch_log.of_bits keep);
    }
  in
  let result, _ = reproduce prog plan truncated in
  check_bool "reproduced despite truncation" true (Replay.Guided.reproduced result)

let test_corrupted_log_does_not_crash_engine () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let flipped =
    List.map not (Instrument.Branch_log.to_bits (Instrument.Report.raw_log report))
  in
  let bad =
    {
      report with
      branch_log = Instrument.Report.Raw (Instrument.Branch_log.of_bits flipped);
    }
  in
  (* engine must terminate cleanly either way *)
  let result, _ =
    reproduce ~budget:{ Concolic.Engine.max_runs = 50; max_time_s = 5.0 } prog plan
      bad
  in
  ignore (Replay.Guided.reproduced result)

let test_wrong_plan_fails_cleanly () =
  (* replay with a plan disjoint from the recording plan must not raise *)
  let prog, _, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let wrong =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let result, _ =
    reproduce ~budget:{ Concolic.Engine.max_runs = 100; max_time_s = 5.0 } prog
      wrong report
  in
  ignore (Replay.Guided.reproduced result)

(* ------------------------------------------------------------------ *)
(* Replay with file input and syscall logs *)

let file_src =
  "int main() {\n\
  \  int b[16];\n\
  \  int fd = open(\"data\", 0);\n\
  \  int n = read(fd, b, 16);\n\
  \  if (n > 2) {\n\
  \    if (b[0] == 'X') { crash(); }\n\
  \  }\n\
  \  return 0;\n\
   }"

let file_world contents =
  { Osmodel.World.default_config with files = [ ("data", contents) ] }

let test_reproduce_file_input_with_syscall_log () =
  let prog, plan, report =
    record ~world:(file_world "Xyz") file_src
  in
  let report = Option.get report in
  check_bool "syscall log present" true (report.syscall_log <> None);
  let result, _ = reproduce prog plan report in
  check_bool "reproduced" true (Replay.Guided.reproduced result)

let test_reproduce_file_input_without_syscall_log () =
  (* without logged read counts, the count becomes a symbolic model
     variable; the engine must still find the crash *)
  let prog = compile file_src in
  let sc =
    Concolic.Scenario.make ~name:"t" ~world:(file_world "Xyz") prog
  in
  let plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let config = Bugrepro.Pipeline.Config.with_log_syscalls false config in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan sc in
  let report = Option.get report in
  check_bool "no syscall log" true (report.syscall_log = None);
  let result, _ = reproduce prog plan report in
  check_bool "reproduced via symbolic syscall models" true
    (Replay.Guided.reproduced result)

(* ------------------------------------------------------------------ *)
(* Property: for fully-logged crashing runs on random magic words, replay
   reproduces the crash. *)

let prop_full_log_reproduces =
  QCheck.Test.make ~count:8 ~name:"full log => reproduced (random magic)"
    QCheck.(make Gen.(string_size ~gen:(char_range 'A' 'Z') (return 3)))
    (fun magic ->
      let src =
        Printf.sprintf
          "int main() { int b[8]; arg(0, b, 8);\n\
           if (b[0] == '%c') { if (b[1] == '%c') { if (b[2] == '%c') { crash(); } } }\n\
           return 0; }"
          magic.[0] magic.[1] magic.[2]
      in
      let prog = compile src in
      let sc = Concolic.Scenario.make ~name:"t" ~args:[ magic ] prog in
      let plan =
        Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
          Instrument.Methods.All_branches
      in
      let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan sc in
      match report with
      | None -> false
      | Some report ->
          let result, _ = reproduce prog plan report in
          Replay.Guided.reproduced result)

(* ------------------------------------------------------------------ *)
(* Parallel replay: whatever the worker count or cache setting, the
   verdict (reproduced at the recorded site) must match the sequential
   engine's, and the model shipped back must actually crash. *)

let test_reproduce_parallel_matches_sequential () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  match report with
  | None -> Alcotest.fail "field run did not crash"
  | Some report ->
      let verdicts =
        List.map
          (fun (jobs, cache) ->
            let result, stats =
              Bugrepro.Pipeline.(
                Run.reproduce
                  Config.(config |> with_jobs jobs |> with_solver_cache cache))
                ~prog ~plan report
            in
            (match cache, stats.cache with
            | true, None -> Alcotest.fail "cache stats missing"
            | false, Some _ -> Alcotest.fail "cache stats despite --no-cache"
            | _ -> ());
            Replay.Guided.reproduced result)
          [ (1, false); (1, true); (4, true); (4, false) ]
      in
      check_bool "all configurations reproduce" true
        (List.for_all Fun.id verdicts)

let test_reproduce_parallel_no_log_search () =
  (* the widest frontier: no branch log at all, drained by 4 workers with
     the memoizing cache on *)
  let prog, _, _ = record ~args:[ "BUG" ] magic_src in
  let none =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "BUG" ] prog in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan:none sc in
  match report with
  | None -> Alcotest.fail "field run did not crash"
  | Some report ->
      let result, stats =
        Bugrepro.Pipeline.(
          Run.reproduce (Config.with_jobs 4 config) ~prog ~plan:none report)
      in
      check_bool "reproduced by parallel search" true
        (Replay.Guided.reproduced result);
      check_bool "cache was consulted" true
        (match stats.cache with
        | Some s -> s.hits + s.misses > 0
        | None -> false)

let test_parallel_case_totals_match_sequential () =
  (* point the report at a site no input reaches: every worker count must
     drain the same frontier, stop cleanly, and — because the §3.1 case
     counters are accumulated with atomic adds — report identical totals *)
  let prog, _, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let none =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let unreachable =
    { report.Instrument.Report.crash with
      Interp.Crash.loc = Minic.Loc.make ~file:"nowhere.mc" ~line:999 ~col:1 }
  in
  let report = { report with Instrument.Report.crash = unreachable } in
  let run jobs =
    let result, stats =
      Replay.Guided.reproduce ~budget ~jobs ~max_attempts:1 ~prog ~plan:none
        report
    in
    (match result with
    | Replay.Guided.Not_reproduced { timed_out; _ } ->
        check_bool
          (Printf.sprintf "jobs=%d exhausted the frontier cleanly" jobs)
          false timed_out
    | Replay.Guided.Reproduced _ ->
        Alcotest.fail "reproduced an unreachable site");
    stats.Replay.Guided.cases
  in
  let tup (c : Replay.Guided.case_stats) =
    (c.case1, c.case2a, c.case2b, c.case3a, c.case3b, c.case4, c.log_exhausted)
  in
  let seq = run 1 and par = run 4 in
  check_bool "the frontier was actually explored" true (seq.case1 > 0);
  check_bool "case totals match across 4 domains" true (tup seq = tup par)

let test_parallel_engine_counters_reconcile () =
  (* the per-worker run counts must agree with the totals whatever the
     worker count *)
  let prog, _, report = record ~args:[ "BUG" ] magic_src in
  let report = Option.get report in
  let none =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  List.iter
    (fun jobs ->
      let _, stats =
        Replay.Guided.reproduce ~budget ~jobs ~max_attempts:1 ~prog ~plan:none
          report
      in
      let e = stats.Replay.Guided.engine in
      let tag = Printf.sprintf "jobs=%d" jobs in
      check_bool (tag ^ " worker_runs length") true
        (Array.length e.worker_runs = jobs);
      check_bool (tag ^ " worker_runs sums to runs") true
        (Array.fold_left ( + ) 0 e.worker_runs = e.runs);
      check_bool (tag ^ " pending peak recorded") true (e.pending_peak >= 1);
      check_int (tag ^ " nothing stolen from one frontier") 0 e.steals)
    [ 1; 4 ]

let () =
  Alcotest.run "replay"
    [
      ( "guided",
        [
          Alcotest.test_case "magic word" `Quick test_reproduce_magic_word;
          Alcotest.test_case "each method" `Quick test_reproduce_under_each_method;
          Alcotest.test_case "no instrumentation" `Quick
            test_reproduce_without_any_instrumentation;
          Alcotest.test_case "case 2a with full log" `Quick
            test_case2a_dominates_with_full_log;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "truncated log" `Quick test_truncated_log_still_reproduces;
          Alcotest.test_case "corrupted log" `Quick
            test_corrupted_log_does_not_crash_engine;
          Alcotest.test_case "wrong plan" `Quick test_wrong_plan_fails_cleanly;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "with syscall log" `Quick
            test_reproduce_file_input_with_syscall_log;
          Alcotest.test_case "without syscall log" `Quick
            test_reproduce_file_input_without_syscall_log;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential verdict" `Quick
            test_reproduce_parallel_matches_sequential;
          Alcotest.test_case "no-log search with 4 workers" `Quick
            test_reproduce_parallel_no_log_search;
          Alcotest.test_case "case totals match sequential" `Quick
            test_parallel_case_totals_match_sequential;
          Alcotest.test_case "engine counters reconcile" `Quick
            test_parallel_engine_counters_reconcile;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_full_log_reproduces ] );
    ]
