(* Workload [explore]: pre-deployment dynamic analysis (the breadth-first
   exploration of [Concolic.Dynamic.analyze]) of the catalog programs on
   seeded test inputs, at [nproc] worker domains under a run cap.  The
   only workload that runs the engine's parallel frontier. *)

open Common
module Engine = Concolic.Engine

type target = { sc : Concolic.Scenario.t; runs : int  (** the run cap *) }
type t = { targets : target list; jobs : int }

(* Set-up links the µServer afresh from source, as a fresh analysis run
   would, runs the static half of the pre-deployment analysis on every
   program, then builds the scenarios: the coreutils' developer test
   scenarios and twelve seeded µServer requests, whose exploration cost
   varies with their content, so several are averaged.  diff is left out: at two
   workers its frontier now and then grows to ~500 k pendings and one
   exploration takes 20x longer, which no run of a few seconds averages
   out. *)
let setup ~size ~seed ~tel =
  let rng = Osmodel.Rng.create seed in
  let scale n = match size with Tiny -> max 4 (n / 10) | Full -> n in
  let userver_prog = Workloads.Runtime_lib.link ~name:"userver" Workloads.Userver.source in
  let static ~analyze_lib prog =
    ignore (Staticanalysis.Static.analyze ~telemetry:tel ~analyze_lib prog)
  in
  static ~analyze_lib:false userver_prog;
  List.iter
    (fun (e : Workloads.Coreutils.entry) -> static ~analyze_lib:true (Lazy.force e.prog))
    Workloads.Coreutils.catalog;
  let coreutils =
    List.map
      (fun e -> { sc = Workloads.Coreutils.analysis_scenario e; runs = scale 200 })
      Workloads.Coreutils.catalog
  in
  let userver i =
    let meth = if i mod 2 = 0 then "GET" else "HEAD" in
    let sc =
      Workloads.Userver.scenario ~name:(Printf.sprintf "userver-explore%d" i) [ request rng meth ]
    in
    { sc = { sc with prog = userver_prog }; runs = scale 15 }
  in
  { targets = coreutils @ List.init 12 userver; jobs = nproc () }

(* The exploration [Dynamic.analyze] performs, with its run function
   ([Dynamic.make_run]) timed here, so the time spent inside runs can be
   taken out of the exploration's wall clock and the engine's statistics
   (pendings, Unknown solves, steals) are in hand. *)
let explore_timed ~jobs ~tel ~run_ns (tg : target) =
  let vars = Solver.Symvars.create () in
  let labels =
    Minic.Label.make ~nbranches:(Minic.Program.nbranches tg.sc.prog) Minic.Label.Unvisited
  in
  let mu = Mutex.create () in
  let on_branch_observed bid symbolic =
    Mutex.lock mu;
    Minic.Label.observe labels bid ~symbolic;
    Mutex.unlock mu
  in
  let inner = Concolic.Dynamic.make_run tg.sc ~vars ~on_branch_observed in
  let run model =
    let t0 = now () in
    let r = inner model in
    ignore (Atomic.fetch_and_add run_ns (int_of_float (1e9 *. (now () -. t0))));
    r
  in
  fst
    (Engine.explore ~vars ~budget:(cap tg.runs) ~strategy:Engine.Bfs ~jobs
       ~incr:(Solver.Incr.create ()) ~telemetry:tel ~run ())

let run t ~seconds ~(tr : Tracing.t) =
  let traced = Tracing.enabled tr in
  let c = checks () in
  let lat = ref [] and pendings = ref 0 and unknown = ref 0 in
  let run_ns = Atomic.make 0 in
  let stats = ref [] in
  let explored = ref 0 in
  let pass ~first:_ =
    List.fold_left
      (fun (n, busy) tg ->
        let (st : Engine.stats), dt =
          time (fun () -> explore_timed ~jobs:t.jobs ~tel:tr.tel ~run_ns tg)
        in
        lat := dt :: !lat;
        incr explored;
        Calib.slice ();
        if traced then stats := st :: !stats;
        pendings := !pendings + st.sat + st.unsat + st.unknown;
        unknown := !unknown + st.unknown;
        check c (st.runs = tg.runs) (fun () ->
            Printf.sprintf "%s: %d runs, cap %d" tg.sc.name st.runs tg.runs);
        (n + st.runs, busy +. dt))
      (0, 0.0) t.targets
  in
  let throughput = median_pass_rate ~seconds pass in
  let named =
    [
      metric "explore_runs_per_s" "1/s" throughput;
      metric "explorations" "count" (float_of_int !explored);
    ]
  in
  let layers () =
    if not traced then []
    else begin
      let forest = Tracing.forest tr in
      let fi = float_of_int in
      let sts = !stats in
      let sumi f = List.fold_left (fun a (s : Engine.stats) -> a + f s) 0 sts in
      let wall = Tracing.span_seconds forest "engine.explore" in
      let workers = Tracing.span_seconds forest "engine.worker" in
      let run_s = fi (Atomic.get run_ns) /. 1e9 in
      (* worker time not spent inside runs: solving, frontier, waiting *)
      let non_run = Float.max 0.0 ((fi t.jobs *. wall) -. run_s) in
      let imbalance =
        Stats.mean
          (List.map
             (fun (s : Engine.stats) ->
               let w = Array.map fi s.worker_runs in
               let mean = Array.fold_left ( +. ) 0.0 w /. fi (max 1 (Array.length w)) in
               Stats.ratio (Array.fold_left Float.max 0.0 w) mean)
             sts)
      in
      interp_ledger
        (List.map
           (fun tg ->
             ( tg.sc,
               Instrument.Plan.make
                 ~nbranches:(Minic.Program.nbranches tg.sc.prog)
                 Methods.No_instrumentation ))
           t.targets)
      :: metric "concolic.engine.overhead_ns_per_run" "ns"
           (Stats.ratio (1e9 *. non_run) (fi (sumi (fun s -> s.runs))))
      :: metric "concolic.engine.worker_idle_share" "share"
           (Float.max 0.0 (1.0 -. Stats.ratio workers (fi t.jobs *. wall)))
      :: metric "concolic.engine.steals" "count" (fi (sumi (fun s -> s.steals)))
      :: metric "concolic.engine.worker_run_imbalance" "x" imbalance
      :: metric "concolic.engine.pending_peak" "count"
           (fi (List.fold_left (fun a (s : Engine.stats) -> max a s.pending_peak) 0 sts))
      :: solver_ledger
           ~calls:(sumi (fun s -> s.solver_calls))
           ~incremental:(sumi (fun s -> s.solved_incremental))
           ~core_pruned:(sumi (fun s -> s.core_pruned))
           ~unknown:(sumi (fun s -> s.unknown))
           ~pendings:(sumi (fun s -> s.sat + s.unsat + s.unknown + s.core_pruned))
           ~non_run_s:non_run ~hit_rate:0.0
    end
  in
  {
    attempted = max 1 !pendings;
    failed = !unknown;
    errors = messages c;
    throughput;
    latencies = Array.of_list !lat;
    named;
    layers;
  }
