(* E12/E13/E14 — the §5.4 diff experiments: Figure 5 (CPU time), Table 6
   (replay times), Table 7 (symbolic branches logged / not logged). *)

let experiments () =
  [ (1, Workloads.Diffutil.experiment_1 ()); (2, Workloads.Diffutil.experiment_2 ()) ]

type analyses = {
  dynamic : Concolic.Dynamic.result;
  static : Staticanalysis.Static.result;
}

let cache : analyses option ref = ref None

(* dynamic analysis on a developer test pair: identical files, so only the
   common path is covered — reproducing the paper's low coverage (20% after
   an hour) that cripples the dynamic method on diff *)
let analyses (c : Ctx.t) =
  match !cache with
  | Some a -> a
  | None ->
      let a_txt = "alpha\nbeta\ngamma\n" in
      let sc =
        Workloads.Diffutil.scenario ~name:"diff-analysis" ~file_a:a_txt
          ~file_b:a_txt ()
      in
      let dynamic =
        Concolic.Dynamic.analyze
          ~budget:{ (Ctx.lc_budget c) with max_runs = max 2 c.lc_runs }
          sc
      in
      let static =
        Staticanalysis.Static.analyze ~analyze_lib:true
          (Lazy.force Workloads.Diffutil.prog)
      in
      let a = { dynamic; static } in
      cache := Some a;
      a

let configs (c : Ctx.t) =
  let a = analyses c in
  let n = Minic.Program.nbranches (Lazy.force Workloads.Diffutil.prog) in
  let mk ?dynamic meth =
    Instrument.Plan.make ~nbranches:n ?dynamic ~static:a.static.labels meth
  in
  [
    ("dynamic", mk ~dynamic:a.dynamic.labels Instrument.Methods.Dynamic);
    ("dyn+static", mk ~dynamic:a.dynamic.labels Instrument.Methods.Dynamic_static);
    ("static", mk Instrument.Methods.Static);
    ("all branches", mk Instrument.Methods.All_branches);
  ]

(* Figure 5: CPU time of diff under the four configurations. *)
let e12 (c : Ctx.t) =
  Util.section ~id:"E12" ~paper:"Figure 5"
    "CPU time of diff, normalised to the non-instrumented version";
  let a_txt, b_txt =
    Workloads.Diffutil.file_pair ~seed:5 ~lines:20 ~width:20 ~edits:4 ()
  in
  let sc =
    Workloads.Diffutil.scenario ~name:"diff-fig5" ~snapshot:false ~file_a:a_txt
      ~file_b:b_txt ()
  in
  let n = Minic.Program.nbranches sc.prog in
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
        [
          name;
          string_of_int plan.Instrument.Plan.n_instrumented;
          Util.pct ~baseline r.cost.instr;
          Util.bar ~max_width:24 ~max_value:250.0
            (100.0 *. float_of_int r.cost.instr /. float_of_int baseline);
        ])
      (configs c)
  in
  Util.table ([ "configuration"; "instrumented"; "cpu time"; "" ] :: rows);
  (match List.assoc_opt "dyn+static" (configs c) with
  | Some plan ->
      Util.elision_curve ~experiment:"E12"
        ~prog:(Lazy.force Workloads.Diffutil.prog) ~plan sc
  | None -> ());
  print_endline
    "expected shape: dynamic and dyn+static cheapest (paper: ~35% overhead);\n\
     static close to all-branches because almost everything in diff is\n\
     input-dependent."

(* Table 6 + Table 7. *)
let e13_e14 (c : Ctx.t) =
  Util.section ~id:"E13" ~paper:"Table 6"
    (Printf.sprintf
       "diff bug reproduction times (budget %.0fs; '%s' = did not finish)"
       c.replay_time_s Util.infinity_symbol);
  let p = Lazy.force Workloads.Diffutil.prog in
  let t7 = ref [] in
  let rows =
    List.map
      (fun (id, crash_sc) ->
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
                  t7 := (id, name, stats) :: !t7;
                  Util.verdict_string (Util.replay_verdict result))
            (configs c)
        in
        Printf.sprintf "Exp. %d" id :: cells)
      (experiments ())
  in
  Util.table (("experiment" :: List.map fst (configs c)) :: rows);
  print_endline
    "expected shape: dynamic times out (coverage too low; tens of unlogged\n\
     symbolic branch locations explode the search); the other three replay\n\
     quickly (paper: 1 s and 12 s).";
  Util.section ~id:"E14" ~paper:"Table 7"
    "diff: symbolic branch locations (and executions) logged / not logged";
  let rows =
    List.rev_map
      (fun (id, name, (s : Bugrepro.Pipeline.symbolic_logging_stats)) ->
        [
          Printf.sprintf "Exp. %d" id;
          name;
          Printf.sprintf "%d / %d" s.logged_locs s.logged_execs;
          Printf.sprintf "%d / %d" s.unlogged_locs s.unlogged_execs;
        ])
      !t7
  in
  Util.table
    ([ "experiment"; "configuration"; "logged locs/execs"; "NOT logged locs/execs" ]
    :: rows)
