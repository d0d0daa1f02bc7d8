(* The §5.2 coreutils study as a runnable example: four real argv-dependent
   crash bugs, reproduced under all four instrumentation methods.

   Run with:  dune exec examples/coreutils_bugs.exe *)

(* one configuration for every stage: the analysis and replay budgets *)
let config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 120; max_time_s = 10.0 }
         ~replay:{ Concolic.Engine.max_runs = 5000; max_time_s = 15.0 })

let () =
  List.iter
    (fun (e : Workloads.Coreutils.entry) ->
      Printf.printf "== %s ==\n%s\n" e.util e.bug_description;
      let prog = Lazy.force e.prog in
      (* the developer's analysis uses a generic argv shape, not the
         (unknown) crashing input *)
      let analysis =
        Bugrepro.Pipeline.Run.analyze config
          ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
          prog
      in
      let crash_sc = Workloads.Coreutils.crash_scenario e in
      Printf.printf "crashing invocation: %s %s\n" e.util
        (String.concat " " e.crashing_args);
      List.iter
        (fun meth ->
          let plan = Bugrepro.Pipeline.Run.plan config analysis meth in
          let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan crash_sc in
          match report with
          | None -> Printf.printf "  %-16s field run did not crash?!\n"
                      (Instrument.Methods.to_string meth)
          | Some report ->
              let result, _ =
                Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report
              in
              let verdict =
                match result with
                | Replay.Guided.Reproduced r ->
                    Printf.sprintf "reproduced in %.3fs (%d runs)" r.elapsed_s r.runs
                | Replay.Guided.Not_reproduced _ -> "NOT reproduced"
              in
              Printf.printf "  %-16s %d instrumented, %d bits logged -> %s\n"
                (Instrument.Methods.to_string meth)
                plan.n_instrumented
                (Instrument.Report.nbits report)
                verdict)
        Instrument.Methods.instrumented;
      print_newline ())
    Workloads.Coreutils.catalog
