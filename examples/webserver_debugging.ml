(* Debugging a web-server crash from a partial branch log.

   Run with:  dune exec examples/webserver_debugging.exe

   The µServer (the paper's uServer analogue) crashes while parsing a
   malicious Cookie header.  The operator's instrumented build logged one
   bit per instrumented branch plus selected system-call results; we replay
   that log to synthesise a request that reaches the same crash — the
   request itself never left the user's machine. *)

(* one configuration for every pipeline stage: analysis and replay budgets,
   and the library treated conservatively by the static analysis (§5.3) *)
let config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 120; max_time_s = 20.0 }
         ~replay:{ Concolic.Engine.max_runs = 20_000; max_time_s = 30.0 }
    |> with_analyze_lib false)

let () =
  let prog = Lazy.force Workloads.Userver.prog in
  Printf.printf "µServer: %d branch locations (%d app, %d library)\n"
    (Minic.Program.nbranches prog)
    (Minic.Program.app_branch_count prog)
    (Minic.Program.lib_branch_count prog);

  (* 1. pre-deployment: dynamic analysis on a benign test workload, static
     analysis with the library treated conservatively (§5.3) *)
  print_endline "\n-- pre-deployment analysis --";
  let test_sc =
    Workloads.Userver.scenario ~name:"userver-test" (Workloads.Http_gen.workload 10)
  in
  let analysis =
    Bugrepro.Pipeline.Run.analyze config ~test_scenario:test_sc prog
  in
  (match analysis.dynamic, analysis.static with
  | Some d, Some s ->
      Printf.printf "dynamic: %.0f%% coverage after %d runs; static: %d symbolic\n"
        (100.0 *. d.coverage) d.runs s.n_symbolic
  | _ -> ());
  let plan = Bugrepro.Pipeline.Run.plan config analysis Instrument.Methods.Dynamic_static in
  Printf.printf "shipping with dynamic+static: %d instrumented locations\n"
    plan.n_instrumented;

  (* 2. production: benign traffic, then the killer request *)
  print_endline "\n-- production crash --";
  let exp = Workloads.Userver.experiment 3 in
  Printf.printf "scenario: %s\n" exp.description;
  let crash_sc = Workloads.Userver.experiment_scenario exp in
  let field, report = Bugrepro.Pipeline.Run.field_run_report config ~plan crash_sc in
  Printf.printf "server: %s\n" (Interp.Crash.outcome_to_string field.outcome);
  Printf.printf "access log before the crash:\n%s"
    (String.concat "\n"
       (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' field.output)));
  let report = Option.get report in
  Printf.printf "\nreport: %s\n" (Instrument.Report.describe report);

  (* 3. developer site: guided replay *)
  print_endline "\n-- guided replay at the developer site --";
  let result, stats = Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report in
  (match result with
  | Replay.Guided.Reproduced r ->
      Printf.printf "reproduced in %.2fs after %d runs: %s\n" r.elapsed_s r.runs
        (Interp.Crash.to_string r.crash);
      (* reconstruct the synthesised request from the model *)
      let buf = Buffer.create 64 in
      (try
         for pos = 0 to 200 do
           let name = Concolic.Names.stream_byte ~stream:"net0" ~pos in
           match Solver.Symvars.find_by_name stats.vars name with
           | Some id -> (
               match Solver.Model.find_opt id r.model with
               | Some b when b > 0 ->
                   Buffer.add_char buf
                     (if b >= 32 && b < 127 then Char.chr b else '.')
               | _ -> Buffer.add_char buf '?')
           | None -> raise Exit
         done
       with Exit -> ());
      Printf.printf "synthesised request prefix (model bytes):\n%s\n"
        (Buffer.contents buf)
  | Replay.Guided.Not_reproduced r ->
      Printf.printf "not reproduced (%d runs, timed out: %b)\n" r.runs r.timed_out);
  Printf.printf
    "replay cases: %d log-pinned, %d forced corrections, %d free symbolic\n"
    stats.cases.case2a stats.cases.case2b stats.cases.case1
