(* Quickstart: the full bug-reporting pipeline on a 20-line program.

   Run with:  dune exec examples/quickstart.exe

   A MiniC program crashes when its argument spells a particular word.  We
   play both roles: the developer analyses and instruments the program
   before shipping; the "user" hits the bug; the developer reproduces it
   from the shipped bit log — without ever seeing the user's input. *)

let source =
  {|
int check(int *password) {
  if (password[0] == 'o') {
    if (password[1] == 'c') {
      if (password[2] == 'a') {
        if (password[3] == 'm') {
          if (password[4] == 'l') {
            crash(); // the bug: a missing length check, say
          }
        }
      }
    }
  }
  return 0;
}

int main() {
  int buf[16];
  arg(0, buf, 16);
  check(buf);
  print_str("ok\n");
  return 0;
}
|}

(* one configuration for every pipeline stage: here, the symbolic-execution
   budget of the pre-deployment analysis and the developer's replay budget *)
let config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 50; max_time_s = 5.0 }
         ~replay:{ Concolic.Engine.max_runs = 2000; max_time_s = 10.0 })

let () =
  print_endline "== 1. developer: compile and analyse the program ==";
  let prog = Workloads.Runtime_lib.link ~name:"quickstart" source in
  Printf.printf "linked: %d branch locations (%d in the runtime library)\n"
    (Minic.Program.nbranches prog)
    (Minic.Program.lib_branch_count prog);

  (* pre-deployment analysis: concolic execution on a harmless test input,
     plus static dataflow analysis *)
  let test_scenario =
    Concolic.Scenario.make ~name:"quickstart-test" ~args:[ "hello" ] prog
  in
  let analysis = Bugrepro.Pipeline.Run.analyze config ~test_scenario prog in
  (match analysis.dynamic with
  | Some d ->
      Printf.printf "dynamic analysis: %d runs, %.0f%% branch coverage\n" d.runs
        (100.0 *. d.coverage)
  | None -> ());

  print_endline "\n== 2. developer: choose a method and instrument ==";
  let plan = Bugrepro.Pipeline.Run.plan config analysis Instrument.Methods.Dynamic_static in
  Printf.printf "dynamic+static instruments %d of %d branch locations\n"
    plan.n_instrumented
    (Minic.Program.nbranches prog);

  print_endline "\n== 3. user site: the program crashes on private input ==";
  let user_scenario =
    Concolic.Scenario.make ~name:"quickstart" ~args:[ "ocaml" ] prog
  in
  let field, report = Bugrepro.Pipeline.Run.field_run_report config ~plan user_scenario in
  Printf.printf "user run: %s\n" (Interp.Crash.outcome_to_string field.outcome);
  let report = Option.get report in
  Printf.printf "bug report shipped to the developer: %s\n"
    (Instrument.Report.describe report);
  Printf.printf "(the report is %d bytes and contains no input content)\n"
    (Instrument.Report.transfer_bytes report);

  print_endline "\n== 4. developer: reproduce the bug from the report ==";
  let result, stats = Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report in
  (match result with
  | Replay.Guided.Reproduced r ->
      Printf.printf "reproduced after %d guided runs in %.3fs at %s\n" r.runs
        r.elapsed_s
        (Interp.Crash.to_string r.crash);
      (* decode the synthesised input from the model *)
      let bytes =
        List.filter_map
          (fun pos ->
            let name = Concolic.Names.arg_byte ~arg:0 ~pos in
            match Solver.Symvars.find_by_name stats.vars name with
            | Some id -> Solver.Model.find_opt id r.model
            | None -> None)
          [ 0; 1; 2; 3; 4 ]
      in
      Printf.printf "synthesised crashing input prefix: %S\n"
        (String.concat ""
           (List.map (fun b -> String.make 1 (Char.chr (b land 0xff))) bytes))
  | Replay.Guided.Not_reproduced _ -> print_endline "not reproduced (unexpected)");
  Printf.printf "replay case counts: %d pinned by the log, %d forced corrections\n"
    stats.cases.case2a stats.cases.case2b
