(* Tests for the concolic machinery: path recording, the exploration
   engine, dynamic labelling, and symbolic-input plumbing. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Workloads.Runtime_lib.link ~name:"t" src

let scenario ?(args = []) ?world src =
  let prog = compile src in
  Concolic.Scenario.make ~name:"t" ~args
    ?world:(Option.map Fun.id world)
    prog

let budget runs = { Concolic.Engine.max_runs = runs; max_time_s = 10.0 }

(* ------------------------------------------------------------------ *)
(* Path recording *)

let test_path_branch_constraints () =
  let t = Concolic.Path.create () in
  let sym = Solver.Expr.(Binop (Lt, Var 0, Const 5)) in
  Concolic.Path.record_branch t ~bid:3 ~taken:true sym;
  Concolic.Path.record_branch t ~bid:4 ~taken:false sym;
  match Concolic.Path.(entries (view t)) with
  | [ e1; e2 ] ->
      check_bool "taken keeps shape" true
        (e1.cons = Solver.Expr.(Binop (Lt, Var 0, Const 5)));
      check_bool "not-taken negates" true
        (e2.cons = Solver.Expr.(Binop (Ge, Var 0, Const 5)));
      check_bool "bids recorded" true (e1.bid = Some 3 && e2.bid = Some 4)
  | _ -> Alcotest.fail "expected two entries"

let test_path_concretize_entry () =
  let t = Concolic.Path.create () in
  Concolic.Path.record_concretize t (Solver.Expr.Var 7) 42;
  match Concolic.Path.(entries (view t)) with
  | [ e ] ->
      check_bool "not negatable" false e.negatable;
      check_bool "no bid" true (e.bid = None)
  | _ -> Alcotest.fail "expected one entry"

(* [Path.slice] must be list-equal to the whole-list reference
   [Cache.slice_focus] on the pending's constraint set. *)
let slice_reference v ~upto ~lineage focus =
  let prefix =
    List.filteri (fun i _ -> i < upto) (Concolic.Path.entries v)
    |> List.map (fun (e : Concolic.Path.entry) -> e.cons)
  in
  Solver.Cache.slice_focus (lineage @ prefix @ [ focus ])

let test_path_slice_lineage_chain () =
  let open Solver.Expr in
  let t = Concolic.Path.create () in
  Concolic.Path.record_branch t ~bid:0 ~taken:true (Binop (Lt, Var 1, Const 5));
  Concolic.Path.record_branch t ~bid:1 ~taken:true (Binop (Lt, Var 2, Const 5));
  Concolic.Path.record_branch t ~bid:2 ~taken:true (Binop (Lt, Var 0, Const 5));
  let v = Concolic.Path.view t in
  (* the focus (var 0) reaches entry 0 (var 1) only through two lineage
     constraints linked by var 9, which no entry mentions *)
  let l1 = Binop (Eq, Var 9, Var 1)
  and l2 = Binop (Eq, Var 8, Const 4)
  and l3 = Binop (Gt, Binop (Add, Var 0, Var 9), Const 1) in
  let lineage = [ l1; l2; l3 ] in
  let focus = Binop (Ge, Var 0, Const 5) in
  let sliced = Concolic.Path.slice v ~upto:2 ~lineage focus in
  check_bool "chain through the lineage" true
    (sliced = [ l1; l3; Binop (Lt, Var 1, Const 5); focus ]);
  check_bool "equals the reference" true
    (sliced = slice_reference v ~upto:2 ~lineage focus);
  check_bool "focus without variables" true
    (Concolic.Path.slice v ~upto:3 ~lineage (Const 0) = [ Const 0 ])

(* Random traces built by appends, snapshots and guided replay's resume
   step (drop the last branch, re-record it in the other direction); every
   snapshot is sliced at every [upto], deepest first, under a random
   lineage, and once more with a focus that has no variables. *)
type path_op =
  | Branch of Solver.Expr.t * bool
  | Conc of Solver.Expr.t * int
  | Reflip
  | Snap

let gen_path_expr nvars : Solver.Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    frequency
      [ (3, map (fun i -> Solver.Expr.Var i) (int_range 0 (nvars - 1)));
        (1, map (fun k -> Solver.Expr.Const k) (int_range 0 9)) ]
  in
  frequency
    [
      ( 4,
        map3
          (fun op a b -> Solver.Expr.Binop (op, a, b))
          (oneofl Solver.Expr.[ Eq; Ne; Lt; Ge ])
          atom atom );
      ( 2,
        map3
          (fun a b k ->
            Solver.Expr.(Binop (Lt, Binop (Add, a, b), Const k)))
          atom atom (int_range 0 9) );
      (1, map (fun k -> Solver.Expr.Const k) (int_range 0 1));
    ]

let gen_path_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map2 (fun e t -> Branch (e, t)) (gen_path_expr 6) bool);
        (2, map2 (fun e k -> Conc (e, k)) (gen_path_expr 6) (int_range 0 9));
        (2, return Reflip);
        (2, return Snap);
      ]
  in
  (* lineage variables range over 8: 6 and 7 link only lineage members *)
  pair (list_size (int_range 0 40) op) (list_size (int_range 0 4) (gen_path_expr 8))

let prop_path_slice_matches_reference =
  QCheck.Test.make ~count:300 ~name:"slice = Cache.slice_focus"
    (QCheck.make gen_path_case)
    (fun (ops, lineage) ->
      let t = Concolic.Path.create () in
      let last = ref None and views = ref [] in
      List.iter
        (function
          | Branch (sym, taken) ->
              Concolic.Path.record_branch t ~bid:0 ~taken sym;
              last := Some (sym, taken)
          | Conc (sym, k) ->
              Concolic.Path.record_concretize t sym k;
              last := None
          | Reflip -> (
              match !last with
              | Some (sym, taken) ->
                  Concolic.Path.drop_last t;
                  Concolic.Path.record_branch t ~bid:0 ~taken:(not taken) sym;
                  last := Some (sym, not taken)
              | None -> ())
          | Snap -> views := Concolic.Path.view t :: !views)
        ops;
      let views = List.rev (Concolic.Path.view t :: !views) in
      List.for_all
        (fun v ->
          let n = Concolic.Path.view_length v in
          let agrees ~upto focus =
            Concolic.Path.slice v ~upto ~lineage focus
            = slice_reference v ~upto ~lineage focus
          in
          List.for_all
            (fun upto ->
              agrees ~upto
                (Solver.Expr.negate (Concolic.Path.get v upto).Concolic.Path.cons))
            (List.init n (fun i -> n - 1 - i))
          && agrees ~upto:n (Solver.Expr.Const 1))
        views)

(* ------------------------------------------------------------------ *)
(* Dynamic labelling *)

let test_dynamic_labels_simple () =
  let sc =
    scenario ~args:[ "x" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'k') { return 1; }\n\
      \  if (3 < 5) { return 2; }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 50) sc in
  let prog = sc.prog in
  let label_line line =
    let l = ref Minic.Label.Unvisited in
    Array.iter
      (fun (b : Minic.Number.info) -> if b.bloc.line = line then l := r.labels.(b.bid))
      prog.branches;
    !l
  in
  check_bool "input branch symbolic" true (label_line 4 = Minic.Label.Symbolic);
  check_bool "const branch concrete" true (label_line 5 = Minic.Label.Concrete)

let test_dynamic_explores_both_sides () =
  (* exploration must find the rare 'Z' path and thereby visit the nested
     branch *)
  let sc =
    scenario ~args:[ "a" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'Z') {\n\
      \    if (b[1] == 'Q') { return 9; }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 50) sc in
  (* the linked runtime library has branches this program never calls, so
     count only application branch locations *)
  let unvisited_app =
    List.length
      (List.filter
         (fun bid -> r.labels.(bid) = Minic.Label.Unvisited)
         (Minic.Program.app_branch_ids sc.prog))
  in
  check_int "all app branches visited" 0 unvisited_app

let test_dynamic_unvisited_with_tiny_budget () =
  let sc =
    scenario ~args:[ "a" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'Z') {\n\
      \    if (b[1] == 'Q') {\n\
      \      if (b[2] == 'W') { return 9; }\n\
      \    }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  (* a single run cannot see the nested branches *)
  let r = Concolic.Dynamic.analyze ~budget:(budget 1) sc in
  check_bool "some branches unvisited" true
    (Minic.Label.count r.labels Minic.Label.Unvisited > 0)

let test_dynamic_coverage_monotone_in_budget () =
  let e = Workloads.Coreutils.find "mkdir" in
  let sc = Workloads.Coreutils.analysis_scenario e in
  let r1 = Concolic.Dynamic.analyze ~budget:(budget 1) sc in
  let r2 = Concolic.Dynamic.analyze ~budget:(budget 120) sc in
  check_bool "higher budget, >= coverage" true (r2.coverage >= r1.coverage);
  check_bool "higher budget finds more symbolic branches" true
    (Minic.Label.count r2.labels Minic.Label.Symbolic
    >= Minic.Label.count r1.labels Minic.Label.Symbolic)

(* ------------------------------------------------------------------ *)
(* Engine behaviour *)

let test_engine_finds_deep_crash () =
  (* engine must synthesise the 3-byte magic word *)
  let sc =
    scenario ~args:[ "aaa" ]
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
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, found =
    Concolic.Engine.explore ~vars ~budget:(budget 100) ~run
      ~should_stop:(fun _ r ->
        match r.outcome with Interp.Crash.Crash _ -> true | _ -> false)
      ()
  in
  check_bool "crash found" true (found <> None);
  check_bool "took a few runs" true (stats.runs > 1)

let test_engine_respects_run_budget () =
  let sc =
    scenario ~args:[ "aaaa" ]
      "int main() {\n\
      \  int b[8];\n\
      \  int i;\n\
      \  int n = 0;\n\
      \  arg(0, b, 8);\n\
      \  for (i = 0; i < 4; i = i + 1) { if (b[i] == 'q') { n = n + 1; } }\n\
      \  return n;\n\
       }"
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, _ = Concolic.Engine.explore ~vars ~budget:(budget 5) ~run () in
  check_bool "run budget respected" true (stats.runs <= 5)

let test_engine_model_drives_next_run () =
  (* the model produced by negating b[0] == 'x' must actually flip the
     branch in the next run: verify via observed outcomes *)
  let sc =
    scenario ~args:[ "x" ]
      "int main() { int b[4]; arg(0, b, 4); if (b[0] == 'x') { return 1; } return 2; }"
  in
  let vars = Solver.Symvars.create () in
  let outcomes = ref [] in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let on_run _ (r : Concolic.Engine.run_result) =
    outcomes := r.outcome :: !outcomes
  in
  let _ = Concolic.Engine.explore ~vars ~budget:(budget 10) ~run ~on_run () in
  let exits =
    List.filter_map
      (function Interp.Crash.Exit n -> Some n | _ -> None)
      !outcomes
  in
  check_bool "both paths executed" true (List.mem 1 exits && List.mem 2 exits)

let test_engine_drained_frontier_terminates () =
  (* a branch-free program seeds nothing into the frontier: the engine
     must retire after its single initial run — a drained frontier is a
     clean stop (the pop is matched, not [Option.get]-ed), never a crash *)
  let sc = scenario ~args:[ "a" ] "int main() { return 0; }" in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, found = Concolic.Engine.explore ~vars ~budget:(budget 100) ~run () in
  check_bool "nothing to find" true (found = None);
  check_int "exactly the initial run" 1 stats.runs;
  check_bool "clean exhaustion, not a timeout" false stats.timed_out

(* ------------------------------------------------------------------ *)
(* Stream data symbolication *)

let test_stream_bytes_symbolic () =
  let world =
    { Osmodel.World.default_config with files = [ ("f", "AB") ] }
  in
  let sc =
    scenario ~world
      "int main() {\n\
      \  int b[8];\n\
      \  int fd = open(\"f\", 0);\n\
      \  read(fd, b, 8);\n\
      \  if (b[0] == 'A') { crash(); }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 20) sc in
  let prog = sc.prog in
  let ok = ref false in
  Array.iter
    (fun (b : Minic.Number.info) ->
      if b.bloc.line = 5 && r.labels.(b.bid) = Minic.Label.Symbolic then ok := true)
    prog.branches;
  check_bool "file byte branch symbolic" true !ok;
  (* and the registry knows the stream variable by name *)
  check_bool "stream var registered" true
    (Solver.Symvars.find_by_name r.vars "file:f[0]" <> None)

(* ------------------------------------------------------------------ *)
(* Concrete/concolic agreement: shadowing values symbolically must never
   change concrete semantics *)

let agreement_sources =
  [
    ("arith", "int main() { int b[8]; arg(0, b, 8); return (b[0] * 7 + b[1]) % 100; }", [ "Kx" ]);
    ( "loops",
      "int main() { int b[16]; int i; int s = 0; arg(0, b, 16);\n\
       for (i = 0; i < 8; i = i + 1) { if (b[i] > 'm') { s = s + i; } } return s; }",
      [ "azbycxdw" ] );
    ( "lib",
      "int main() { int b[32]; arg(0, b, 32); if (str_eq(b, \"magic\")) { return 42; } return strlen(b); }",
      [ "magic" ] );
    ( "io",
      "int main() { int b[16]; int fd = open(\"f\", 0); int n = read(fd, b, 16); return n + b[0]; }",
      [] );
  ]

let test_concrete_concolic_agreement () =
  List.iter
    (fun (name, src, args) ->
      let prog = Workloads.Runtime_lib.link ~name src in
      let world =
        { Osmodel.World.default_config with files = [ ("f", "QRS") ] }
      in
      let sc = Concolic.Scenario.make ~name ~args ~world prog in
      (* concrete run *)
      let _w, handle = Osmodel.World.kernel world in
      let concrete =
        Interp.Eval.run prog
          {
            Interp.Eval.inputs = Interp.Inputs.of_strings args;
            kernel = Interp.Kernel.of_world handle;
            hooks = Interp.Eval.no_hooks;
            max_steps = 1_000_000;
            scheduler = None;
          }
      in
      (* concolic run with an empty model: same concrete inputs, with
         symbolic shadows riding along *)
      let vars = Solver.Symvars.create () in
      let run =
        Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
      in
      let concolic = run Solver.Model.empty in
      check_bool
        (Printf.sprintf "%s: same outcome" name)
        true
        (Interp.Crash.outcome_to_string concrete.outcome
        = Interp.Crash.outcome_to_string concolic.outcome))
    agreement_sources

(* path constraints of the concolic run are satisfied by the inputs used *)
let test_path_constraints_hold_on_own_input () =
  let src =
    "int main() { int b[8]; arg(0, b, 8); if (b[0] == 'q') { if (b[1] < 'm') { return 1; } } return 0; }"
  in
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "qa" ] prog in
  let vars = Solver.Symvars.create () in
  let observed = ref Solver.Model.empty in
  let run =
    Concolic.Dynamic.make_run sc ~vars
      ~observe:(fun id v -> observed := Solver.Model.add id v !observed)
      ~on_branch_observed:(fun _ _ -> ())
  in
  let r = run Solver.Model.empty in
  List.iter
    (fun (e : Concolic.Path.entry) ->
      check_bool "constraint holds on own input" true
        (Solver.Model.satisfies !observed e.cons))
    (Concolic.Path.entries r.trace)

let test_engine_strategies_explore_same_space () =
  (* DFS and BFS must both find the magic-word crash on a small program *)
  let src =
    "int main() { int b[4]; arg(0, b, 4); if (b[0] == 'Z') { if (b[1] == 'Q') { crash(); } } return 0; }"
  in
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "ab" ] prog in
  List.iter
    (fun strategy ->
      let vars = Solver.Symvars.create () in
      let run =
        Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
      in
      let _, found =
        Concolic.Engine.explore ~vars ~budget:(budget 100) ~strategy ~run
          ~should_stop:(fun _ r ->
            match r.outcome with Interp.Crash.Crash _ -> true | _ -> false)
          ()
      in
      check_bool "strategy finds the crash" true (found <> None))
    [ Concolic.Engine.Dfs; Concolic.Engine.Bfs ]

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration with and without the solver cache: a program
   whose crash sites are guarded purely by input branch constraints has
   one crash set, whichever way each pending is solved. *)

let crash_corpus_src =
  "int main() {\n\
  \  int b[8];\n\
  \  arg(0, b, 8);\n\
  \  if (b[0] == 'A') { if (b[1] == 'x') { crash(); } return 1; }\n\
  \  if (b[0] == 'B') { if (b[2] > 'm') { crash(); } return 2; }\n\
  \  if (b[0] == 'C') { crash(); }\n\
  \  return 0;\n\
   }"

let explore_crashes ?(cache = true) src =
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "aaa" ] prog in
  let vars = Solver.Symvars.create () in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  let crashes = ref [] in
  let on_run _ (r : Concolic.Engine.run_result) =
    match r.outcome with
    | Interp.Crash.Crash c ->
        let s = Interp.Crash.to_string c in
        if not (List.mem s !crashes) then crashes := s :: !crashes
    | _ -> ()
  in
  let cache = if cache then Some (Solver.Cache.create ()) else None in
  let stats, _ =
    Concolic.Engine.explore ~vars ~budget:(budget 400) ?cache ~run ~on_run ()
  in
  (List.sort compare !crashes, stats)

let test_parallel_determinism_cache_matrix () =
  (* the exhausted frontier's crash set is invariant across the solver
     cache, and every pushed pending is solved *)
  let seq, _ = explore_crashes crash_corpus_src in
  check_bool "found some crash sites" true (List.length seq >= 3);
  List.iter
    (fun cache ->
      let found, stats = explore_crashes ~cache crash_corpus_src in
      let tag = Printf.sprintf "cache=%b" cache in
      check_bool (tag ^ " frontier exhausted") true (stats.runs < 400);
      Alcotest.(check (list string)) (tag ^ " crash set") seq found;
      check_int (tag ^ " sat + unsat + unknown = forks") stats.forks
        (stats.sat + stats.unsat + stats.unknown))
    [ true; false ]

let test_parallel_respects_run_budget () =
  let sc =
    scenario ~args:[ "aaaa" ]
      "int main() {\n\
      \  int b[8];\n\
      \  int i;\n\
      \  int n = 0;\n\
      \  arg(0, b, 8);\n\
      \  for (i = 0; i < 4; i = i + 1) { if (b[i] == 'q') { n = n + 1; } }\n\
      \  return n;\n\
       }"
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, _ =
    Concolic.Engine.explore ~vars ~budget:(budget 5) ~run ()
  in
  check_int "run budget is exact" 5 stats.runs

(* ------------------------------------------------------------------ *)
(* Golden values: the engine statistics and the found model of
   deterministic explorations, recorded from an earlier sequential loop.
   The engine's loop must pop in the same order and check the same
   budget, so every value here is exact. *)

type golden = {
  g_runs : int;
  g_sat : int;
  g_unsat : int;
  g_unknown : int;
  g_forks : int;
  g_peak : int;
  g_model : (int * int) list option;
}

let golden_of (s : Concolic.Engine.stats) model =
  {
    g_runs = s.runs;
    g_sat = s.sat;
    g_unsat = s.unsat;
    g_unknown = s.unknown;
    g_forks = s.forks;
    g_peak = s.pending_peak;
    g_model = Option.map Solver.Model.bindings model;
  }

let golden_to_string g =
  Printf.sprintf "runs=%d sat=%d unsat=%d unknown=%d forks=%d peak=%d model=%s"
    g.g_runs g.g_sat g.g_unsat g.g_unknown g.g_forks g.g_peak
    (match g.g_model with
    | None -> "none"
    | Some m ->
        String.concat "; " (List.map (fun (v, x) -> Printf.sprintf "%d=%d" v x) m))

let golden_corpus ~strategy ~cache ~stop () =
  let sc = scenario ~args:[ "aaa" ] crash_corpus_src in
  let vars = Solver.Symvars.create () in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  let should_stop _ (r : Concolic.Engine.run_result) =
    stop && match r.outcome with Interp.Crash.Crash _ -> true | _ -> false
  in
  let cache = if cache then Some (Solver.Cache.create ()) else None in
  let s, found =
    Concolic.Engine.explore ~vars ~budget:(budget 400) ~strategy ?cache ~run
      ~should_stop ()
  in
  golden_of s (Option.map fst found)

let golden_explore name () =
  let sc = Workloads.Coreutils.analysis_scenario (Workloads.Coreutils.find name) in
  let vars = Solver.Symvars.create () in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  let s, _ =
    Concolic.Engine.explore ~vars ~budget:(budget 60) ~strategy:Concolic.Engine.Bfs
      ~cache:(Solver.Cache.create ()) ~run ()
  in
  golden_of s None

let golden_reproduce name () =
  let e = Workloads.Coreutils.find name in
  let prog = Lazy.force e.prog in
  let cfg =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget ~dynamic:(budget 40)
           ~replay:{ Concolic.Engine.max_runs = 20_000; max_time_s = 600.0 })
  in
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg
      ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
      prog
  in
  let plan = Bugrepro.Pipeline.Run.plan cfg analysis Instrument.Methods.Dynamic_static in
  let _, report =
    Bugrepro.Pipeline.Run.field_run_report cfg ~plan
      (Workloads.Coreutils.crash_scenario e)
  in
  let result, stats =
    Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan (Option.get report)
  in
  golden_of stats.Replay.Guided.engine
    (match result with Replay.Guided.Reproduced r -> Some r.model | _ -> None)

let golden_cases =
  let g runs sat unsat forks peak model =
    { g_runs = runs; g_sat = sat; g_unsat = unsat; g_unknown = 0;
      g_forks = forks; g_peak = peak; g_model = model }
  in
  let corpus_crash = Some [ (0, 67); (1, 97); (2, 97); (3, 0) ] in
  Concolic.Engine.
    [
      ("corpus dfs exhausted", golden_corpus ~strategy:Dfs ~cache:true ~stop:false,
       g 6 5 0 5 3 None);
      ("corpus bfs exhausted", golden_corpus ~strategy:Bfs ~cache:false ~stop:false,
       g 6 5 0 5 3 None);
      ("corpus dfs first crash", golden_corpus ~strategy:Dfs ~cache:false ~stop:true,
       g 2 1 0 3 3 corpus_crash);
      ("corpus bfs first crash", golden_corpus ~strategy:Bfs ~cache:true ~stop:true,
       g 4 3 0 5 3 corpus_crash);
      ("paste explore", golden_explore "paste", g 60 59 4 1016 953 None);
      ("mkdir explore", golden_explore "mkdir", g 60 59 20 1454 1375 None);
      ( "paste reproduce",
        golden_reproduce "paste",
        g 10 9 2 13 9
          (Some
             [ (0, 45); (1, 100); (2, 0); (3, 92); (4, 177); (5, 87); (6, 189);
               (7, 11); (8, 0); (9, 184); (10, 245); (11, 132); (12, 58) ]) );
      ( "mkdir reproduce",
        golden_reproduce "mkdir",
        g 521 520 1025 1545 4
          (Some
             [ (0, 45); (1, 109); (2, 0); (3, 49); (4, 48); (5, 48); (6, 48);
               (7, 44); (8, 87); (9, 189); (10, 11); (11, 82); (12, 211);
               (13, 56); (14, 0) ]) );
    ]

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string)
            name (golden_to_string expected)
            (golden_to_string (run ()))))
    golden_cases

let () =
  Alcotest.run "concolic"
    [
      ( "path",
        [
          Alcotest.test_case "branch constraints" `Quick test_path_branch_constraints;
          Alcotest.test_case "concretize entry" `Quick test_path_concretize_entry;
          Alcotest.test_case "slice through lineage" `Quick
            test_path_slice_lineage_chain;
          QCheck_alcotest.to_alcotest prop_path_slice_matches_reference;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "labels simple" `Quick test_dynamic_labels_simple;
          Alcotest.test_case "explores both sides" `Quick
            test_dynamic_explores_both_sides;
          Alcotest.test_case "unvisited with tiny budget" `Quick
            test_dynamic_unvisited_with_tiny_budget;
          Alcotest.test_case "coverage monotone" `Slow
            test_dynamic_coverage_monotone_in_budget;
        ] );
      ( "engine",
        [
          Alcotest.test_case "finds deep crash" `Quick test_engine_finds_deep_crash;
          Alcotest.test_case "respects budget" `Quick test_engine_respects_run_budget;
          Alcotest.test_case "drained frontier terminates" `Quick
            test_engine_drained_frontier_terminates;
          Alcotest.test_case "model drives next run" `Quick
            test_engine_model_drives_next_run;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs/cache matrix determinism" `Quick
            test_parallel_determinism_cache_matrix;
          Alcotest.test_case "parallel respects budget" `Quick
            test_parallel_respects_run_budget;
        ] );
      ("golden", golden_tests);
      ( "streams",
        [ Alcotest.test_case "stream bytes symbolic" `Quick test_stream_bytes_symbolic ]
      );
      ( "agreement",
        [
          Alcotest.test_case "concrete = concolic" `Quick
            test_concrete_concolic_agreement;
          Alcotest.test_case "constraints hold on own input" `Quick
            test_path_constraints_hold_on_own_input;
          Alcotest.test_case "both strategies find crashes" `Quick
            test_engine_strategies_explore_same_space;
        ] );
    ]
