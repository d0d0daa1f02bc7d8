(** The bundled workloads (see catalog.mli). *)

module Methods = Instrument.Methods
module Pipeline = Bugrepro.Pipeline

type experiment = { id : int; description : string; program : string }

type entry = {
  name : string;
  describe : string;
  prog : Minic.Program.t Lazy.t;
  analyze_lib : bool;
  experiments : experiment list;
  crash : int -> Concolic.Scenario.t;
  analysis : unit -> Concolic.Scenario.t;
}

let coreutils util =
  let e = Coreutils.find util in
  {
    name = util;
    describe = e.bug_description;
    prog = e.prog;
    analyze_lib = true;
    experiments = [ { id = 1; description = e.bug_description; program = util } ];
    crash = (fun _ -> Coreutils.crash_scenario e);
    analysis = (fun () -> Coreutils.analysis_scenario e);
  }

let userver =
  {
    name = "userver";
    describe = "event-driven web server (µServer analogue, §5.3)";
    prog = Userver.prog;
    analyze_lib = false;
    experiments =
      List.map
        (fun (e : Userver.experiment) ->
          {
            id = e.id;
            description = e.description;
            program = Printf.sprintf "userver-exp%d" e.id;
          })
        Userver.experiments;
    crash = (fun n -> Userver.experiment_scenario (Userver.experiment n));
    analysis =
      (fun () -> Userver.scenario ~name:"userver-test" (Http_gen.workload 8));
  }

let diff =
  {
    name = "diff";
    describe = "line differ (input-intensive, §5.4)";
    prog = Diffutil.prog;
    analyze_lib = true;
    experiments =
      [
        { id = 1; description = "small file pair"; program = "diff-exp1" };
        { id = 2; description = "larger file pair"; program = "diff-exp2" };
      ];
    crash =
      (fun n ->
        if n <= 1 then Diffutil.experiment_1 () else Diffutil.experiment_2 ());
    analysis = Diffutil.experiment_1;
  }

let mtrace =
  {
    name = "mtrace";
    describe = "multithreaded scanner with a check-then-act race (§6)";
    prog = Mtrace.prog;
    analyze_lib = true;
    experiments =
      [
        {
          id = 1;
          description = "alert-log overflow under adversarial schedule";
          program = "mtrace";
        };
      ];
    crash = (fun _ -> Mtrace.scenario ~seed:3 ());
    analysis = (fun () -> Mtrace.benign_scenario ());
  }

let entries =
  List.map coreutils [ "mkdir"; "mknod"; "mkfifo"; "paste" ]
  @ [ userver; diff; mtrace ]

let find name =
  let by key = List.find_opt (fun e -> String.equal e.name key) entries in
  let found =
    match by name with
    | Some _ as e -> e
    | None ->
        Option.bind (String.index_opt name '-') (fun i ->
            by (String.sub name 0 i))
  in
  match found with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown workload %s (known: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) entries)))

type memo = {
  config : Pipeline.Config.t;
  analyses : (string * bool, Pipeline.analysis) Hashtbl.t;
  plans : (string * Methods.t, Minic.Program.t * Instrument.Plan.t) Hashtbl.t;
}

let memo config =
  { config; analyses = Hashtbl.create 8; plans = Hashtbl.create 8 }

let memoize tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

let entry_config m e = Pipeline.Config.with_analyze_lib e.analyze_lib m.config

let plan m e meth =
  memoize m.plans (e.name, meth) @@ fun () ->
  let cfg = entry_config m e in
  let dynamic =
    match (meth : Methods.t) with
    | Dynamic | Dynamic_static -> true
    | No_instrumentation | Static | All_branches -> false
  in
  let analysis =
    memoize m.analyses (e.name, dynamic) @@ fun () ->
    let prog = Lazy.force e.prog in
    if dynamic then Pipeline.Run.analyze cfg ~test_scenario:(e.analysis ()) prog
    else Pipeline.Run.analyze cfg prog
  in
  (analysis.prog, Pipeline.Run.plan cfg analysis meth)

let record m e x meth =
  let _, plan = plan m e meth in
  match Pipeline.Run.field_run_report (entry_config m e) ~plan (e.crash x.id) with
  | _, Some r -> Ok (Instrument.Wire.serialize r)
  | _, None -> Error (x.program ^ ": crash scenario did not crash")
