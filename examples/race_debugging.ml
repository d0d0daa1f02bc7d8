(* Debugging a multithreaded race from a schedule log (§6).

   Run with:  dune exec examples/race_debugging.exe

   Two worker threads share an alert log with an unguarded check-then-append.
   Under the production scheduler the race fires; the bug report carries the
   branch bits *and* the recorded thread schedule.  Replay with the schedule
   reproduces the crash immediately; replay without it shows why the paper
   says thread ordering must be recorded. *)

let () =
  let sc = Workloads.Mtrace.scenario ~seed:3 () in
  let prog = sc.prog in
  Printf.printf "mtrace: %d branch locations; input of %d bytes\n"
    (Minic.Program.nbranches prog)
    (String.length (List.hd sc.args));

  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in

  let budget = { Concolic.Engine.max_runs = 20_000; max_time_s = 15.0 } in
  let config = Bugrepro.Pipeline.Config.(default |> with_budget ~replay:budget) in

  print_endline "\n-- production run (pseudo-random scheduler) --";
  let field, report = Bugrepro.Pipeline.Run.field_run_report config ~plan sc in
  Printf.printf "outcome: %s\n" (Interp.Crash.outcome_to_string field.outcome);
  let report = Option.get report in
  let sched =
    match report.schedule_log with
    | Some l -> Instrument.Schedule_log.length l
    | None -> 0
  in
  Printf.printf "report: %d branch bits + %d schedule decisions (%d bytes total)\n"
    (Instrument.Report.nbits report)
    sched
    (Instrument.Report.transfer_bytes report);

  print_endline "\n-- replay WITH the recorded schedule --";
  (let result, _ = Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report in
   match result with
   | Replay.Guided.Reproduced r ->
       Printf.printf "reproduced in %.3fs after %d runs at %s\n" r.elapsed_s r.runs
         (Interp.Crash.to_string r.crash)
   | Replay.Guided.Not_reproduced _ -> print_endline "not reproduced (unexpected)");

  print_endline "\n-- replay WITHOUT the schedule (what a branch-only log gives you) --";
  let stripped = { report with Instrument.Report.schedule_log = None } in
  let result, _ =
    Bugrepro.Pipeline.Run.reproduce
      (Bugrepro.Pipeline.Config.with_budget
         ~replay:{ budget with max_time_s = 5.0 } config)
      ~prog ~plan stripped
  in
  match result with
  | Replay.Guided.Reproduced r ->
      Printf.printf "reproduced anyway after %d runs (lucky interleaving)\n" r.runs
  | Replay.Guided.Not_reproduced r ->
      Printf.printf
        "NOT reproduced after %d runs — the interleaving cannot be pinned\n\
         without the schedule, exactly as §6 predicts.\n"
        r.runs
