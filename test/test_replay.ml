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
(* Replay through the memoizing cache: the verdict (reproduced at the
   recorded site) holds, and every solve goes through the cache.  A
   config's [jobs] sizes only a triage batch's cluster pool, so
   [Run.reproduce] under [jobs = 4] is the same one-worker search. *)

let test_reproduce_parallel_matches_sequential () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  match report with
  | None -> Alcotest.fail "field run did not crash"
  | Some report ->
      let view (result, (stats : Replay.Guided.stats)) =
        ( Replay.Guided.reproduced result,
          stats.engine.runs,
          stats.cache.hits + stats.cache.misses )
      in
      let seq = view (Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report) in
      let pooled =
        view
          Bugrepro.Pipeline.(
            Run.reproduce (Config.with_jobs 4 config) ~prog ~plan report)
      in
      let reproduced, _, queries = seq in
      check_bool "reproduced" true reproduced;
      check_bool "cache consulted" true (queries > 0);
      check_bool "jobs = 4 config runs the same search" true (seq = pooled)

let test_reproduce_parallel_no_log_search () =
  (* the widest frontier: no branch log at all, drained through the
     memoizing cache *)
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
        Bugrepro.Pipeline.Run.reproduce config ~prog ~plan:none report
      in
      check_bool "reproduced by the no-log search" true
        (Replay.Guided.reproduced result);
      check_bool "cache was consulted" true
        (stats.cache.hits + stats.cache.misses > 0);
      (* pointed at a site no input reaches, the same search drains its
         frontier and stops cleanly, not as a timeout *)
      let unreachable =
        { report.Instrument.Report.crash with
          Interp.Crash.loc = Minic.Loc.make ~file:"nowhere.mc" ~line:999 ~col:1 }
      in
      let result, stats =
        Replay.Guided.reproduce ~budget ~max_attempts:1 ~prog ~plan:none
          { report with Instrument.Report.crash = unreachable }
      in
      (match result with
      | Replay.Guided.Not_reproduced { timed_out; _ } ->
          check_bool "exhausted the frontier cleanly" false timed_out
      | Replay.Guided.Reproduced _ ->
          Alcotest.fail "reproduced an unreachable site");
      check_bool "the frontier was actually explored" true
        (stats.cases.case1 > 0)

(* ------------------------------------------------------------------ *)
(* Resume at a case-2b mismatch (DESIGN.md §5m).  A run that
   takes the engine's offer must leave everything a run that aborts and
   restarts from [main] leaves: the same pendings, counters and models. *)

type searched = {
  stats : Concolic.Engine.stats;
  found : (Solver.Model.t * Interp.Crash.t) option;
  case2b : int;
  accepted : int;  (** models the run's guard took *)
  declined : int;  (** Sat models the guard turned down *)
  guarded : int;  (** change lists checked against the full re-read *)
  hints : int;  (** finished runs' hints checked against the full merge *)
  hint_log : string;  (** every finished run's hint, in order *)
  vars : Solver.Symvars.t;
}

(* The reference for [Rkernel.changed_inputs]: re-read every observed
   variable under [model].  A [sys:] variable (Concolic.Names) that would
   move refuses the model; an input byte takes its new value [land 0xff]. *)
let changed_inputs_full ~vars model ~observed =
  let exception Sys_result_moves in
  let sys id =
    String.starts_with ~prefix:"sys:" (Solver.Symvars.name vars id)
  in
  let change (id, v) =
    match Solver.Model.find_opt id model with
    | None -> None
    | Some v' when v' = v -> None
    | Some _ when sys id -> raise Sys_result_moves
    | Some v' -> if v' land 0xff <> v then Some (id, v' land 0xff) else None
  in
  match List.filter_map change (Solver.Model.bindings observed) with
  | changes -> Some changes
  | exception Sys_result_moves -> None

let changes_view = function
  | None -> "sys result moves"
  | Some l ->
      String.concat " " (List.map (fun (id, v) -> Printf.sprintf "%d=%d" id v) l)

(* The reference for a finished run's [hint]: its launch model merged over
   everything the run observed, as the engine once built it per offer. *)
let check_hint ~observed model (r : Concolic.Engine.run_result) =
  let expected = Solver.Model.bindings (Solver.Model.union_prefer_left model observed)
  and got = Solver.Model.bindings r.hint in
  let view l =
    String.concat " " (List.map (fun (id, v) -> Printf.sprintf "%d=%d" id v) l)
  in
  if expected <> got then
    Alcotest.(check string) "hint = launch model merged over observed"
      (view expected) (view got)

(* [`Take] passes the engine's offers through to the run's guard;
   [`Decline] refuses every solved model, so the engine runs it from
   [main]; [`Restart] never offers: the paper's abort-and-restart.  Every
   change list the guard computes must equal the full re-read, and every
   finished run's hint the full merge, unless [checked] is false.  [wrap]
   surrounds each offer. *)
let search ?(wrap = fun f -> f ()) ?(checked = true) mode ~prog ~plan report =
  let vars = Solver.Symvars.create () in
  let case2b = ref 0 and accepted = ref 0 and declined = ref 0 in
  let guarded = ref 0 and hints = ref 0 and hint_log = Buffer.create 1024 in
  (* what the current run has observed so far *)
  let observed = ref Solver.Model.empty in
  let on_changes ~observed model changes =
    if checked then begin
    incr guarded;
    Alcotest.(check string) "guard changes = full re-read"
      (changes_view (changed_inputs_full ~vars model ~observed))
      (changes_view changes)
    end
  in
  let guided =
    Replay.Guided.run ~prog ~plan ~vars ~seed:1
      ~record_cases:(fun c -> case2b := !case2b + c.Replay.Guided.case2b)
      ~on_changes
      ~observe:(fun id v -> observed := Solver.Model.add id v !observed)
      report
  in
  let run offer model =
    observed := Solver.Model.empty;
    match mode with
    | `Restart -> guided (fun _ ~resume:_ -> false) model
    | `Decline | `Take ->
        guided
          (fun r ~resume ->
            wrap (fun () ->
                offer r ~resume:(fun ~solved model ->
                    let ok = mode = `Take && resume ~solved model in
                    incr (if ok then accepted else declined);
                    ok)))
          model
  in
  let on_run model (r : Concolic.Engine.run_result) =
    if checked then begin
      incr hints;
      check_hint ~observed:!observed model r
    end;
    List.iter
      (fun (id, v) -> Printf.bprintf hint_log "%d=%d " id v)
      (Solver.Model.bindings r.hint);
    Buffer.add_char hint_log '\n'
  in
  let stats, found =
    Concolic.Engine.search ~vars
      ~budget:{ Concolic.Engine.max_runs = 3_000; max_time_s = 600.0 }
      ~cache:(Solver.Cache.create ()) ~run
      ~stop:(fun _ r -> Replay.Guided.crash_site report r)
      ~on_run ()
  in
  { stats; found; case2b = !case2b; accepted = !accepted;
    declined = !declined; guarded = !guarded; hints = !hints;
    hint_log = Buffer.contents hint_log; vars }

(* every engine counter a resume must leave alone: all but [resumes] and
   [elapsed_s] *)
let engine_view (s : Concolic.Engine.stats) =
  Printf.sprintf
    "runs=%d sat=%d unsat=%d unknown=%d peak=%d timed_out=%b forks=%d"
    s.runs s.sat s.unsat s.unknown s.pending_peak s.timed_out s.forks

let found_view = function
  | None -> "not found"
  | Some (model, crash) ->
      String.concat " "
        (List.map (fun (id, v) -> Printf.sprintf "%d=%d" id v)
           (Solver.Model.bindings model))
      ^ " @ " ^ Interp.Crash.to_string crash

(* Search [report] resuming, declining and restarting; all three must
   agree.  Returns the resuming search. *)
let check_resume_matches_restart label ~prog ~plan report =
  let take = search `Take ~prog ~plan report in
  let decline = search `Decline ~prog ~plan report in
  let restart = search `Restart ~prog ~plan report in
  List.iter
    (fun (side, (s : searched)) ->
      let tag what = Printf.sprintf "%s: %s %s" label side what in
      Alcotest.(check string) (tag "engine counters")
        (engine_view restart.stats) (engine_view s.stats);
      Alcotest.(check string) (tag "found model and site")
        (found_view restart.found) (found_view s.found);
      check_int (tag "case 2b count") restart.case2b s.case2b)
    [ ("resumed", take); ("declined", decline) ];
  check_int (label ^ ": resumes counted") take.accepted take.stats.resumes;
  check_int (label ^ ": no resume when declined") 0 decline.stats.resumes;
  check_int (label ^ ": no resume on restart") 0 restart.stats.resumes;
  (match take.found with
  | Some (model, _) ->
      check_bool (label ^ ": found input crashes from main") true
        (match
           (Replay.Guided.reexecute ~prog ~vars:take.vars ~seed:1 report model)
             .outcome
         with
        | Interp.Crash.Crash c -> Interp.Crash.equal_site c report.crash
        | _ -> false)
  | None -> ());
  take

let resume_config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget ~dynamic:{ Concolic.Engine.max_runs = 40; max_time_s = 30.0 }
         ~replay:budget)

(* (name, analyze the runtime library?, program, developer test, crash) *)
let resume_workloads () =
  List.map
    (fun (e : Workloads.Coreutils.entry) ->
      ( e.util, true, Lazy.force e.prog,
        Workloads.Coreutils.analysis_scenario e,
        Workloads.Coreutils.crash_scenario e ))
    Workloads.Coreutils.catalog
  @ [
      ( "userver-exp1", false, Lazy.force Workloads.Userver.prog,
        Workloads.Userver.scenario ~name:"userver-test"
          [ Workloads.Http_gen.tiny_get ],
        Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 1) );
      ( "diff-pair", true, Lazy.force Workloads.Diffutil.prog,
        (let same = "alpha\nbeta\ngamma\n" in
         Workloads.Diffutil.scenario ~name:"diff-test" ~file_a:same
           ~file_b:same ()),
        (let file_a, file_b =
           Workloads.Diffutil.file_pair ~seed:1 ~lines:6 ~width:8 ~edits:1 ()
         in
         Workloads.Diffutil.scenario ~name:"diff-pair" ~ignore_case:true
           ~file_a ~file_b ()) );
    ]

(* The plan and report of one resume workload under [meth]. *)
let workload_report (name, analyze_lib, prog, test, crash) meth =
  let cfg = Bugrepro.Pipeline.Config.with_analyze_lib analyze_lib resume_config in
  let analysis = Bugrepro.Pipeline.Run.analyze cfg ~test_scenario:test prog in
  let plan = Bugrepro.Pipeline.Run.plan cfg analysis meth in
  match Bugrepro.Pipeline.Run.field_run_report cfg ~plan crash with
  | _, None -> Alcotest.failf "%s: crash scenario did not crash" name
  | _, Some report -> (plan, report)

let find_workload name =
  List.find (fun (n, _, _, _, _) -> n = name) (resume_workloads ())

let test_resume_matches_restart_on_workloads () =
  let resumes = ref 0 and guarded = ref 0 and hints = ref 0 in
  List.iter
    (fun ((name, _, prog, _, _) as w) ->
      List.iter
        (fun meth ->
          let plan, report = workload_report w meth in
          let label =
            Printf.sprintf "%s/%s" name (Instrument.Methods.to_string meth)
          in
          let take = check_resume_matches_restart label ~prog ~plan report in
          resumes := !resumes + take.stats.resumes;
          guarded := !guarded + take.guarded;
          hints := !hints + take.hints)
        Instrument.Methods.[ Dynamic; Dynamic_static ])
    (resume_workloads ());
  check_bool "some run resumed" true (!resumes > 0);
  check_bool "some change list checked" true (!guarded > 0);
  check_bool "some hint checked" true (!hints > 0)

(* A dynamic analysis run's hint is its model merged over what it
   observed, too. *)
let test_dynamic_hint_is_full_merge () =
  let e = Workloads.Coreutils.find "paste" in
  let sc = Workloads.Coreutils.analysis_scenario e in
  let vars = Solver.Symvars.create () in
  let observed = ref Solver.Model.empty and checked = ref 0 in
  let run =
    Concolic.Dynamic.make_run sc ~vars
      ~observe:(fun id v -> observed := Solver.Model.add id v !observed)
      ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, _ =
    Concolic.Engine.explore ~vars
      ~budget:{ Concolic.Engine.max_runs = 40; max_time_s = 30.0 }
      ~strategy:Concolic.Engine.Bfs ~cache:(Solver.Cache.create ())
      ~run:(fun model ->
        observed := Solver.Model.empty;
        run model)
      ~on_run:(fun model r ->
        incr checked;
        check_hint ~observed:!observed model r)
      ()
  in
  check_int "every run checked" stats.runs !checked;
  check_bool "runs beyond the first" true (stats.runs > 1)

let registry_view vars =
  let b = Buffer.create 4096 in
  Solver.Symvars.iter vars (fun (i : Solver.Symvars.info) ->
      Printf.bprintf b "%d %s %d %d\n" i.id i.name i.dom.lo i.dom.hi);
  Buffer.contents b

(* Interning input variables by position must register the same names,
   with the same ids and domains, in the same order, and give every
   variable the same value (its model binding or its seeded default), as
   looking each one up by name did: the registry and every finished run's
   hint are pinned to the values read before interning. *)
let test_registry_as_before () =
  List.iter
    (fun (name, first_names, nvars, registry, hints, runs, resumes) ->
      let ((_, _, prog, _, _) as w) = find_workload name in
      let plan, report = workload_report w Instrument.Methods.Dynamic in
      let s = search `Take ~prog ~plan report in
      let view = registry_view s.vars in
      check_int (name ^ ": variables") nvars (Solver.Symvars.count s.vars);
      check_bool (name ^ ": first names") true
        (String.starts_with ~prefix:first_names view);
      Alcotest.(check string) (name ^ ": registry") registry
        (Digest.to_hex (Digest.string view));
      Alcotest.(check string) (name ^ ": hints") hints
        (Digest.to_hex (Digest.string s.hint_log));
      check_int (name ^ ": runs") runs s.stats.runs;
      check_int (name ^ ": resumes") resumes s.stats.resumes)
    [
      ( "paste", "0 arg0[0] 0 255\n1 arg0[1] 0 255\n", 13,
        "a42012c7d7999c2735a7cf6b898ec742", "d50f0916491119060ed4f3855809e403",
        10, 4 );
      ( "userver-exp1", "0 arg0[0] 0 255\n1 arg0[1] 0 255\n2 net0[0] 0 255\n", 109,
        "7cc7fcc8b87ea6730f575526215eeac1", "840090f442c82b355730a571e043970f",
        16, 15 );
    ]

(* An offer costs what it changes, not the run's state: the engine's
   accounting, pop and solve plus the run's guard allocate a bounded
   number of minor words per offer on the diff pair, whose runs observe
   about a hundred input variables.  Merging the launch model over every
   observed value per offer, and walking every shadowed cell per guard,
   took about 12.4 k words per offer here; today an offer takes 8.2 k, and
   the merge alone would add about 1.8 k, so the bound is 9 k. *)
let test_offer_allocation () =
  let ((_, _, prog, _, _) as w) = find_workload "diff-pair" in
  let plan, report = workload_report w Instrument.Methods.Dynamic_static in
  let words = ref 0.0 and offers = ref 0 in
  let wrap f =
    let w0 = Gc.minor_words () in
    let r = f () in
    words := !words +. (Gc.minor_words () -. w0);
    incr offers;
    r
  in
  ignore (search ~checked:false `Take ~prog ~plan report);
  let s = search ~wrap ~checked:false `Take ~prog ~plan report in
  check_bool "the search resumed" true (s.stats.resumes > 50);
  let per_offer = !words /. float_of_int !offers in
  check_bool
    (Printf.sprintf "%.0f minor words per offer < 9 000" per_offer)
    true (per_offer < 9_000.0)

(* The guard (Guided.run): values the run used without a pin must keep
   their value under the new model, or the run restarts from [main]. *)
let guard_case ?(args = []) ?world ?(log_syscalls = true) src =
  let prog = compile src in
  let sc = Concolic.Scenario.make ~name:"t" ~args ?world prog in
  let plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let cfg = Bugrepro.Pipeline.Config.with_log_syscalls log_syscalls config in
  match Bugrepro.Pipeline.Run.field_run_report cfg ~plan sc with
  | _, None -> Alcotest.fail "field run did not crash"
  | _, Some report -> (prog, plan, report)

let test_guard_open_path_from_input () =
  (* the path names the stream the bytes are read from; a from-scratch run
     on the forced model opens another file *)
  let prog, plan, report =
    guard_case ~args:[ "f" ]
      ~world:{ Osmodel.World.default_config with files = [ ("f", "zz") ] }
      "int main() {\n\
      \  int b[8]; int p[4]; int d[4];\n\
      \  arg(0, b, 8);\n\
      \  p[0] = b[0]; p[1] = 0;\n\
      \  int fd = open(p, 0);\n\
      \  int n = read(fd, d, 2);\n\
      \  if (b[0] == 'f') { if (d[0] == 'z') { crash(); } }\n\
      \  return n;\n\
       }"
  in
  let take = check_resume_matches_restart "open path" ~prog ~plan report in
  check_bool "open path: the guard declined the moved path" true
    (take.declined > 0)

let test_guard_dead_division () =
  (* a dead [1000 / b[0]] pins nothing; the forcing model sets b[0] = 0,
     on which a from-scratch run crashes at the division *)
  let prog, plan, report =
    guard_case ~args:[ "\001z" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  int t = 1000 / b[0];\n\
      \  t = 0;\n\
      \  if (b[0] < 2) { if (b[1] == 'z') { crash(); } }\n\
      \  return t;\n\
       }"
  in
  let take = check_resume_matches_restart "dead division" ~prog ~plan report in
  check_bool "dead division: the guard declined the zero divisor" true
    (take.declined > 0)

let test_guard_symbolic_read_count () =
  (* without a syscall log the read count is a variable, and the stream
     position already advanced by it: forcing [n == 3] must restart *)
  let prog, plan, report =
    guard_case ~log_syscalls:false ~world:(file_world "Xyz")
      "int main() {\n\
      \  int b[16];\n\
      \  int fd = open(\"data\", 0);\n\
      \  int n = read(fd, b, 16);\n\
      \  if (n == 3) { if (b[0] == 'X') { crash(); } }\n\
      \  return 0;\n\
       }"
  in
  check_bool "no syscall log" true (report.syscall_log = None);
  let take = check_resume_matches_restart "read count" ~prog ~plan report in
  check_bool "read count: the guard declined the moved count" true
    (take.declined > 0)

let test_guard_clamped_read_count () =
  (* without a syscall log a read count is its model value clamped to what
     the stream holds; a model binding it out of range leaves the count the
     run read disagreeing with the kernel's model, and a resume model that
     keeps that binding moves the count even though the solver left it
     free *)
  let vars = Solver.Symvars.create () in
  let n =
    Concolic.Names.sys_var vars ~kind:"read" ~index:0
      ~dom:{ Solver.Symvars.lo = -1; hi = 1024 }
  in
  let kmodel = Solver.Model.of_list [ (n, 100) ] in
  let observed = ref Solver.Model.empty in
  let rk =
    Replay.Rkernel.create
      ~observe:(fun id v -> observed := Solver.Model.add id v !observed)
      ~vars ~model:kmodel
      ~shape:
        { Concolic.Scenario.arg_caps = []; n_conns = 0; conn_cap = 0;
          file_names = [ "f" ]; file_cap = 4 }
      ~syscall_log:None ~seed:1 ()
  in
  let kernel = Replay.Rkernel.kernel rk in
  let fd =
    match (kernel (Osmodel.Sysreq.Open { path = "f"; flags = 0 })).res with
    | Osmodel.Sysreq.R_int fd -> fd
    | _ -> Alcotest.fail "open"
  in
  ignore (kernel (Osmodel.Sysreq.Read { fd; count = 8 }));
  let observed = !observed in
  check_bool "count clamped to the stream" true
    (Solver.Model.find_opt n observed = Some 4);
  let b0 = Concolic.Names.stream_var vars ~stream:"file:f" ~pos:0 in
  let byte0 = Option.get (Solver.Model.find_opt b0 observed) in
  let merged kmodel solved =
    Solver.Model.union_prefer_left solved
      (Solver.Model.union_prefer_left kmodel observed)
  in
  let agree label kmodel solved =
    let model = merged kmodel solved in
    let changes =
      Replay.Rkernel.changed_inputs rk ~solved model ~observed
    in
    Alcotest.(check string) label
      (changes_view (changed_inputs_full ~vars model ~observed))
      (changes_view changes);
    changes
  in
  check_bool "solver left the count free: declined" true
    (agree "free count" kmodel Solver.Model.empty = None);
  let solved = Solver.Model.of_list [ (n, 4); (b0, 0x100 + ((byte0 + 1) land 0xff)) ] in
  check_bool "solver pins the count, moves a byte" true
    (agree "pinned count" kmodel solved = Some [ (b0, (byte0 + 1) land 0xff) ]);
  Replay.Rkernel.set_model rk (merged kmodel (Solver.Model.of_list [ (n, 4) ]));
  check_bool "after set_model the count agrees" true
    (agree "after set_model"
       (merged kmodel (Solver.Model.of_list [ (n, 4) ]))
       Solver.Model.empty
    = Some [])

let test_guard_telemetry () =
  (* every model the guard sees is timed once, and is either resumed or
     declined for one named reason *)
  let account label (prog, plan, report) =
    let tel = Telemetry.create () in
    let _, stats =
      Replay.Guided.reproduce ~budget ~max_attempts:1 ~telemetry:tel ~prog
        ~plan report
    in
    let count name = Telemetry.Metrics.counter_value tel name in
    let declined reason = count ("replay.resume.declined." ^ reason) in
    let timed =
      Telemetry.Counters.gauge (Telemetry.Counters.of_core tel)
        "replay.resume_s.count"
    in
    let reasons = [ "sys_result"; "unpinned"; "inconsistent"; "ineligible" ] in
    let timed = int_of_float (Option.value timed ~default:0.0) in
    check_bool (label ^ ": the guard ran") true (timed > 0);
    check_int (label ^ ": timed = resumed + declined")
      (stats.engine.resumes
      + List.fold_left (fun n r -> n + declined r) 0 reasons)
      timed;
    declined
  in
  let paste = Workloads.Coreutils.find "paste" in
  let paste_prog = Lazy.force paste.prog in
  let cfg = resume_config in
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg
      ~test_scenario:(Workloads.Coreutils.analysis_scenario paste)
      paste_prog
  in
  let plan = Bugrepro.Pipeline.Run.plan cfg analysis Instrument.Methods.Dynamic in
  (match
     Bugrepro.Pipeline.Run.field_run_report cfg ~plan
       (Workloads.Coreutils.crash_scenario paste)
   with
  | _, Some report ->
      let (_ : string -> int) = account "paste" (paste_prog, plan, report) in
      ()
  | _, None -> Alcotest.fail "paste did not crash");
  let declined =
    account "read count"
      (guard_case ~log_syscalls:false ~world:(file_world "Xy")
         "int main() {\n\
         \  int b[4];\n\
         \  int fd = open(\"data\", 0);\n\
         \  int n = read(fd, b, 4);\n\
         \  if (n == 2) { crash(); }\n\
         \  return 0;\n\
          }")
  in
  check_bool "read count: declined as a moving system-call result" true
    (declined "sys_result" > 0)

(* The same seed must give the same search: with the default config two
   reproductions of one report agree on every engine counter
   but the wall clock and on the crashing input they find. *)
let test_default_config_reproduces_identically () =
  let cfg = Bugrepro.Pipeline.Config.default in
  let e = Workloads.Coreutils.find "paste" in
  let prog = Lazy.force e.prog in
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg
      ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
      prog
  in
  let plan =
    Bugrepro.Pipeline.Run.plan cfg analysis Instrument.Methods.Dynamic_static
  in
  match
    Bugrepro.Pipeline.Run.field_run_report cfg ~plan
      (Workloads.Coreutils.crash_scenario e)
  with
  | _, None -> Alcotest.fail "paste: crash scenario did not crash"
  | _, Some report ->
      let reproduce () =
        match Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan report with
        | Replay.Guided.Reproduced r, stats ->
            let s = stats.Replay.Guided.engine in
            let { Solver.Cache.hits; misses; _ } = stats.cache in
            ( engine_view s
              ^ Printf.sprintf " resumes=%d hits=%d misses=%d" s.resumes hits
                  misses,
              found_view (Some (r.model, r.crash)) )
        | Replay.Guided.Not_reproduced _, _ ->
            Alcotest.fail "paste: report not reproduced"
      in
      let counters1, model1 = reproduce () in
      let counters2, model2 = reproduce () in
      Alcotest.(check string) "engine counters" counters1 counters2;
      Alcotest.(check string) "found model and site" model1 model2

(* A cache handed to [reproduce] is the one the search solves through:
   a second search of the same report answers every query from
   it, and finds the same crashing input. *)
let test_supplied_cache_is_used () =
  let prog, _, _ = record ~args:[ "BUG" ] magic_src in
  let none =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "BUG" ] prog in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan:none sc in
  let report = Option.get report in
  let cache = Solver.Cache.create () in
  let reproduce () =
    let result, stats =
      Replay.Guided.reproduce ~budget ~cache ~prog ~plan:none report
    in
    let found =
      match result with
      | Replay.Guided.Reproduced r -> found_view (Some (r.model, r.crash))
      | Replay.Guided.Not_reproduced _ -> found_view None
    in
    (Replay.Guided.reproduced result, found, stats.cache)
  in
  let verdict1, found1, first = reproduce () in
  let verdict2, found2, second = reproduce () in
  check_bool "reproduced" true verdict1;
  check_bool "same verdict" verdict1 verdict2;
  Alcotest.(check string) "same model and site" found1 found2;
  check_bool "first search solved" true (first.misses > 0);
  check_int "second search adds no miss" first.misses second.misses;
  check_bool "second search hits" true (second.hits > first.hits);
  check_int "stats read the supplied cache" (Solver.Cache.snapshot cache).hits
    second.hits

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
          Alcotest.test_case "no-log search, one worker" `Quick
            test_reproduce_parallel_no_log_search;
        ] );
      ( "resume",
        [
          Alcotest.test_case "matches restart on workloads" `Quick
            test_resume_matches_restart_on_workloads;
          Alcotest.test_case "dynamic hint is the full merge" `Quick
            test_dynamic_hint_is_full_merge;
          Alcotest.test_case "registry as before" `Quick test_registry_as_before;
          Alcotest.test_case "offer allocation" `Quick test_offer_allocation;
          Alcotest.test_case "guard: open path from input" `Quick
            test_guard_open_path_from_input;
          Alcotest.test_case "guard: dead division" `Quick
            test_guard_dead_division;
          Alcotest.test_case "guard: symbolic read count" `Quick
            test_guard_symbolic_read_count;
          Alcotest.test_case "guard: clamped read count" `Quick
            test_guard_clamped_read_count;
          Alcotest.test_case "guard: telemetry accounts every model" `Quick
            test_guard_telemetry;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "default config reproduces identically" `Quick
            test_default_config_reproduces_identically;
          Alcotest.test_case "supplied cache is the one used" `Quick
            test_supplied_cache_is_used;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_full_log_reproduces ] );
    ]
