(** Differential oracle runner (see oracle.mli). *)

type verdict = Pass | Skip of string | Fail of string

type outcome = { oracle : string; verdict : verdict }

type cfg = {
  config : Bugrepro.Pipeline.Config.t;
  methods : Instrument.Methods.t list;
  check_cache : bool;
  check_salvage : bool;
  check_suppression : bool;
  check_streaming : bool;
  check_encoding : bool;
  max_steps : int;
}

let default_cfg =
  {
    config =
      Bugrepro.Pipeline.Config.(
        default
        |> with_budget
             ~dynamic:{ Concolic.Engine.max_runs = 80; max_time_s = 2.0 }
             ~replay:{ Concolic.Engine.max_runs = 4_000; max_time_s = 6.0 });
    methods = Instrument.Methods.[ Dynamic_static; All_branches ];
    check_cache = true;
    check_salvage = true;
    check_suppression = true;
    check_streaming = true;
    check_encoding = true;
    max_steps = 200_000;
  }

let verdict_to_string = function
  | Pass -> "pass"
  | Skip r -> "skip (" ^ r ^ ")"
  | Fail r -> "FAIL: " ^ r

let failed = List.filter (fun o -> match o.verdict with Fail _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Shared exploration: one pass gives dynamic labels and the solver
   queries the cache oracle replays. *)

type explo = {
  labels : Minic.Label.map;
  queries : Solver.Expr.t list list;  (** collected path constraint sets *)
  vars : Solver.Symvars.t;
}

let max_queries = 12

let explore ~(cfg : cfg) (sc : Concolic.Scenario.t) : explo =
  let prog = sc.Concolic.Scenario.prog in
  let vars = Solver.Symvars.create () in
  let labels =
    Minic.Label.make ~nbranches:(Minic.Program.nbranches prog)
      Minic.Label.Unvisited
  in
  let queries = ref [] and n_queries = ref 0 in
  let run =
    Concolic.Dynamic.make_run ~max_steps:cfg.max_steps sc ~vars
      ~on_branch_observed:(fun bid sym ->
        Minic.Label.observe labels bid ~symbolic:sym)
  in
  let _, _ =
    Concolic.Engine.explore ~vars ~budget:cfg.config.dynamic_budget
      ~strategy:Concolic.Engine.Bfs ~telemetry:cfg.config.telemetry ~run
      ~on_run:(fun _ (r : Concolic.Engine.run_result) ->
        if !n_queries < max_queries then begin
          let cs =
            List.filter_map
              (fun (e : Concolic.Path.entry) ->
                if e.negatable then Some e.cons else None)
              (Concolic.Path.entries r.trace)
          in
          if cs <> [] then begin
            incr n_queries;
            queries := cs :: !queries
          end
        end)
      ()
  in
  { labels; queries = !queries; vars }

(* ------------------------------------------------------------------ *)
(* Oracle (b): label soundness *)

let labels_oracle (cfg : cfg) (case : Gen.case) (base : explo) : verdict =
  let static =
    Staticanalysis.Static.analyze ~analyze_lib:true
      ~telemetry:cfg.config.telemetry case.Gen.prog
  in
  let report =
    Staticanalysis.Static.precision static case.Gen.prog ~dynamic:base.labels
  in
  if report.Staticanalysis.Precision.n_missed = 0 then Pass
  else
    let missed =
      Array.to_list report.entries
      |> List.filter (fun (e : Staticanalysis.Precision.entry) ->
             e.verdict = Staticanalysis.Precision.Missed)
      |> List.map Staticanalysis.Precision.entry_to_string
      |> String.concat "; "
    in
    Fail
      (Printf.sprintf "%d dynamically-symbolic branch(es) labelled concrete: %s"
         report.n_missed missed)

(* ------------------------------------------------------------------ *)
(* Oracle (d): cache transparency.  For each collected path constraint set
   (and its negated-tail variant, the engine's fork shape) the cached
   solve must agree with the direct solve on satisfiability, and a cached
   Sat model must actually satisfy the query.  Each query runs twice
   against the cache so the second hit exercises the memoized path. *)

let cache_oracle (cfg : cfg) (base : explo) : verdict =
  if base.queries = [] then Skip "no symbolic path constraints collected"
  else begin
    let cache = Solver.Cache.create ~capacity:256 () in
    let vars = base.vars in
    let negate_tail cs =
      match List.rev cs with
      | [] -> []
      | last :: pre -> List.rev (Solver.Expr.negate last :: pre)
    in
    let queries =
      List.concat_map (fun cs -> [ cs; negate_tail cs ]) base.queries
    in
    let mismatch =
      List.find_map
        (fun cs ->
          let direct = Solver.Solve.solve ~vars cs in
          let check_cached () =
            let cached =
              Solver.Cache.solve cache ~telemetry:cfg.config.telemetry ~vars cs
            in
            match direct, cached with
            | Solver.Solve.Sat _, Solver.Solve.Sat m ->
                if Solver.Model.satisfies_all m cs then None
                else
                  Some
                    "cached Sat model does not satisfy the query constraints"
            | Solver.Solve.Unsat, Solver.Solve.Unsat -> None
            | Solver.Solve.Unknown, Solver.Solve.Unknown -> None
            | _ ->
                Some
                  (Printf.sprintf "status differs (direct %s, cached %s)"
                     (match direct with
                     | Solver.Solve.Sat _ -> "sat"
                     | Solver.Solve.Unsat -> "unsat"
                     | Solver.Solve.Unknown -> "unknown")
                     (match cached with
                     | Solver.Solve.Sat _ -> "sat"
                     | Solver.Solve.Unsat -> "unsat"
                     | Solver.Solve.Unknown -> "unknown"))
          in
          (* miss then hit *)
          match check_cached () with
          | Some e -> Some e
          | None -> check_cached ())
        queries
    in
    match mismatch with None -> Pass | Some e -> Fail e
  end

(* ------------------------------------------------------------------ *)
(* Oracles (a) replay and (e) wire, per instrumentation method *)

let wire_check (report : Instrument.Report.t) : verdict =
  let s1 = Instrument.Wire.serialize report in
  match Instrument.Wire.deserialize_v s1 with
  | Error e ->
      Fail
        ("serialized report does not deserialize: "
        ^ Instrument.Wire.error_to_string e)
  | Ok r2 ->
      if not (Interp.Crash.equal_site report.crash r2.crash) then
        Fail "crash site changed across the wire"
      else
        let s2 = Instrument.Wire.serialize r2 in
        if String.equal s1 s2 then Pass
        else Fail "serialize . deserialize . serialize is not the identity"

(* Oracle (f): salvage soundness.  Serialize the report and truncate at
   every byte boundary: salvaging the prefix must never raise, never
   misread a truncation as an unknown version, and every successful
   salvage must keep the crash site and program, recover a bit count
   monotone in the cut, and re-serialize to something the strict reader
   accepts.  At every cut the two readers must agree: the strict reader
   accepts exactly when salvage diagnoses the prefix complete, with the
   same report.  Then one deep cut — half the branch-log hex — is actually
   replayed: it must come back [Reproduced] at the recorded site or a
   clean [Not_reproduced], never an exception (the §3.1 [log_exhausted]
   degradation the salvage path exists for). *)

(* Byte position cutting halfway into the branch payload hex —
   "branch-enc: " on a v4 encoded report, "branch-log: " on a raw one.
   The resulting prefix is strictly malformed but salvageable. *)
let payload_tear_pos wire =
  Option.map
    (fun (start, hex_end) -> start + ((hex_end - start) / 2))
    (Instrument.Wire.payload_span wire)

(* The strict reader is a clean salvage: [Some why] when the two readers
   disagree on [s]. *)
let reader_disagreement s : string option =
  let module W = Instrument.Wire in
  match W.deserialize_v s, W.deserialize_salvage s with
  | Ok r, Ok (r', d) ->
      if d.complete && String.equal (W.serialize r) (W.serialize r') then None
      else Some "strict reader accepted what salvage diagnoses otherwise"
  | Ok _, Error _ -> Some "strict reader accepted what salvage rejects"
  | Error (W.Malformed _), Ok (_, d) ->
      if d.complete then
        Some "salvage called intact what the strict reader rejects"
      else None
  | Error (W.Malformed _), Error (W.Malformed _) -> None
  | Error (W.Unknown_version v), Error (W.Unknown_version v') when v = v' ->
      None
  | Error _, _ -> Some "readers disagree on the version"

(* The first cut of [wire] at which the two readers disagree. *)
let cut_disagreement wire =
  let n = String.length wire in
  let rec go cut =
    if cut > n then None
    else
      match reader_disagreement (String.sub wire 0 cut) with
      | Some why -> Some (Printf.sprintf "cut at byte %d/%d: %s" cut n why)
      | None -> go (cut + 1)
  in
  go 0

let salvage_check (cfg : cfg) (case : Gen.case) (plan : Instrument.Plan.t)
    (report : Instrument.Report.t) : verdict =
  let wire = Instrument.Wire.serialize report in
  let n = String.length wire in
  let failure = ref None in
  let fail cut msg =
    if !failure = None then
      failure := Some (Printf.sprintf "cut at byte %d/%d: %s" cut n msg)
  in
  let prev_bits = ref 0 in
  (try
     failure := cut_disagreement wire;
     for cut = 0 to n do
       if !failure = None then
         match Instrument.Wire.deserialize_salvage (String.sub wire 0 cut) with
         | Error (Instrument.Wire.Unknown_version v) ->
             fail cut (Printf.sprintf "truncation misread as version %d" v)
         | Error (Instrument.Wire.Malformed _) ->
             (* identity fields lost: rejection is the correct degradation *)
             ()
         | Ok (r, diag) ->
             if not (Interp.Crash.equal_site r.crash report.crash) then
               fail cut "salvage changed the crash site"
             else if not (String.equal r.program report.program) then
               fail cut "salvage changed the program name"
             else begin
               let bits = Instrument.Report.nbits r in
               if bits < !prev_bits then
                 fail cut
                   (Printf.sprintf "salvaged bit count fell from %d to %d"
                      !prev_bits bits)
               else prev_bits := bits;
               (match Instrument.Wire.deserialize_v (Instrument.Wire.serialize r)
                with
               | Ok _ -> ()
               | Error e ->
                   fail cut
                     ("salvaged report fails the strict reader: "
                     ^ Instrument.Wire.error_to_string e));
               if cut = n && not diag.Instrument.Wire.complete then
                 fail cut "intact input diagnosed as torn"
             end
     done;
     (* deep cut: replay with half the branch payload hex torn away *)
     if !failure = None then
       match payload_tear_pos wire with
       | None -> ()
       | Some cut ->
           (match
              Instrument.Wire.deserialize_salvage (String.sub wire 0 cut)
            with
           | Error _ -> ()
           | Ok (torn, _) -> (
               match
                 Bugrepro.Pipeline.Run.reproduce cfg.config
                   ~prog:case.Gen.prog ~plan torn
               with
               | Replay.Guided.Reproduced rr, _ ->
                   if not (Interp.Crash.equal_site rr.crash report.crash) then
                     fail cut "torn-log replay reproduced at a different site"
               | Replay.Guided.Not_reproduced _, _ -> ()))
   with exn ->
     fail (-1) ("salvage raised " ^ Printexc.to_string exn));
  match !failure with None -> Pass | Some msg -> Fail msg

(* Oracle (g): suppression parity.  Run the Dynamic_static plan twice —
   suppression off, then on with the shadow log enabled.  The proof
   checker must accept the analysis' own table; the shadow log (elided
   bits reconstructed by rule) must equal the suppression-free log bit
   for bit with zero reconstruction mismatches; outcome and output must
   be untouched.  When the run crashed, the suppressed report must
   round-trip its table across the wire, and guided replay from it must
   reach the same verdict — and, absent timeouts, the same §3.1 case
   counters — as replay from the raw report. *)

let suppression_check (cfg : cfg) (case : Gen.case) (sc : Concolic.Scenario.t)
    ~dynamic ~static : verdict =
  let prog = case.Gen.prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      ?dynamic ~static Instrument.Methods.Dynamic_static
  in
  let instrumented = plan.Instrument.Plan.instrumented in
  let sup = Staticanalysis.Suppression.analyze ~instrumented prog in
  match
    Staticanalysis.Suppression.verify ~instrumented prog
      (Staticanalysis.Suppression.to_table sup)
  with
  | Error msg -> Fail ("proof checker rejected the analysis' own table: " ^ msg)
  | Ok () -> (
      let full = Bugrepro.Pipeline.Run.field_run cfg.config ~plan sc in
      let sup_plan = Instrument.Plan.with_suppression plan sup in
      let elided =
        Instrument.Field_run.run ~log_syscalls:cfg.config.log_syscalls
          ~telemetry:cfg.config.telemetry ~shadow:true ~plan:sup_plan sc
      in
      let outcome_str (r : Instrument.Field_run.result) =
        Interp.Crash.outcome_to_string r.outcome
      in
      if outcome_str full <> outcome_str elided then
        Fail
          (Printf.sprintf "elision changed the outcome: %s vs %s"
             (outcome_str full) (outcome_str elided))
      else if full.output <> elided.output then
        Fail "elision changed the program output"
      else if elided.shadow_mismatches > 0 then
        Fail
          (Printf.sprintf
             "%d elided execution(s) reconstructed the wrong bit"
             elided.shadow_mismatches)
      else
        match elided.shadow_log with
        | None -> Fail "shadow run produced no shadow log"
        | Some sh ->
            let fl = full.branch_log in
            if
              sh.Instrument.Branch_log.nbits <> fl.Instrument.Branch_log.nbits
              || sh.Instrument.Branch_log.bytes
                 <> fl.Instrument.Branch_log.bytes
            then
              Fail
                (Printf.sprintf
                   "reconstructed log differs from the raw log (%d bits vs %d)"
                   sh.Instrument.Branch_log.nbits
                   fl.Instrument.Branch_log.nbits)
            else (
              match
                ( Instrument.Report.of_field_run ~sc ~plan full,
                  Instrument.Report.of_field_run ~sc ~plan:sup_plan elided )
              with
              | None, None -> Pass (* no crash: log parity is the whole check *)
              | Some _, None | None, Some _ ->
                  Fail "only one of the two runs produced a report"
              | Some raw_report, Some sup_report -> (
                  (* the table must survive the wire, and the readers
                     must agree at every cut of a wire that carries one *)
                  let sup_wire = Instrument.Wire.serialize sup_report in
                  match
                    ( Instrument.Wire.deserialize_v sup_wire,
                      cut_disagreement sup_wire )
                  with
                  | Error e, _ ->
                      Fail
                        ("suppressed report does not deserialize: "
                        ^ Instrument.Wire.error_to_string e)
                  | Ok rt, _
                    when rt.Instrument.Report.suppression
                         <> sup_report.Instrument.Report.suppression ->
                      Fail "suppression table changed across the wire"
                  | Ok _, Some why -> Fail ("suppressed wire: " ^ why)
                  | Ok _, None -> (
                      let raw_result, raw_stats =
                        Bugrepro.Pipeline.Run.reproduce cfg.config ~prog ~plan
                          raw_report
                      in
                      let sup_result, sup_stats =
                        Bugrepro.Pipeline.Run.reproduce cfg.config ~prog
                          ~plan:sup_plan sup_report
                      in
                      match raw_result, sup_result with
                      | Replay.Guided.Not_reproduced { timed_out = true; _ }, _
                      | _, Replay.Guided.Not_reproduced { timed_out = true; _ }
                        ->
                          Skip "replay budget exhausted; not comparable"
                      | Replay.Guided.Reproduced _, Replay.Guided.Reproduced _
                        ->
                          let rc = raw_stats.Replay.Guided.cases
                          and sc_ = sup_stats.Replay.Guided.cases in
                          if
                            (rc.case1, rc.case2a, rc.case2b, rc.case3a,
                             rc.case3b, rc.case4, rc.log_exhausted)
                            <> (sc_.case1, sc_.case2a, sc_.case2b, sc_.case3a,
                                sc_.case3b, sc_.case4, sc_.log_exhausted)
                          then
                            Fail
                              (Printf.sprintf
                                 "§3.1 counters diverge: raw \
                                  (%d,%d,%d,%d,%d,%d,%d) vs suppressed \
                                  (%d,%d,%d,%d,%d,%d,%d)"
                                 rc.case1 rc.case2a rc.case2b rc.case3a
                                 rc.case3b rc.case4 rc.log_exhausted sc_.case1
                                 sc_.case2a sc_.case2b sc_.case3a sc_.case3b
                                 sc_.case4 sc_.log_exhausted)
                          else Pass
                      | Replay.Guided.Not_reproduced _,
                        Replay.Guided.Not_reproduced _ ->
                          Pass
                      | Replay.Guided.Reproduced _,
                        Replay.Guided.Not_reproduced _ ->
                          Fail
                            "raw report reproduces but the suppressed one \
                             does not"
                      | Replay.Guided.Not_reproduced _,
                        Replay.Guided.Reproduced _ ->
                          Fail
                            "suppressed report reproduces but the raw one \
                             does not"))))

let replay_check (cfg : cfg) (case : Gen.case) (plan : Instrument.Plan.t)
    (meth : Instrument.Methods.t) (report : Instrument.Report.t) : verdict =
  let result, stats =
    Bugrepro.Pipeline.Run.reproduce cfg.config ~prog:case.Gen.prog ~plan report
  in
  (* Note: [case3b] contradictions can occur even under [All_branches] —
     a store through a concretized symbolic index can turn a branch that
     was symbolic in the field run concrete in a replay run, which then
     mismatches its logged bit and aborts.  Those dead ends are legitimate
     prunes (the search backtracks and still reproduces); the minimized
     witness lives in test/corpus/known/.  The oracle therefore only
     condemns contradictions when they killed the whole search. *)
  match result with
  | Replay.Guided.Reproduced { model; seed; _ } -> (
      let rerun =
        Replay.Guided.reexecute ~prog:case.Gen.prog
          ~vars:stats.Replay.Guided.vars ~seed report model
      in
      match rerun.outcome with
      | Interp.Crash.Crash c when Interp.Crash.equal_site c report.crash -> Pass
      | _ ->
          Fail
            (Printf.sprintf
               "the reproduced input (method %s) does not reach %s when run \
                from main without replay hooks"
               (Instrument.Methods.to_string meth)
               (Interp.Crash.to_string report.crash)))
  | Replay.Guided.Not_reproduced { timed_out = true; runs; _ } ->
      Skip (Printf.sprintf "replay budget exhausted after %d runs" runs)
  | Replay.Guided.Not_reproduced { runs; _ } ->
      let c = stats.Replay.Guided.cases in
      let contradiction_only = c.case3b > 0 && c.case1 = 0 in
      Fail
        (Printf.sprintf
           "replay search space exhausted after %d runs without reaching %s \
            (method %s)%s"
           runs
           (Interp.Crash.to_string report.crash)
           (Instrument.Methods.to_string meth)
           (if contradiction_only then
              Printf.sprintf
                "; %d contradiction-only dead end(s) on the logged prefix"
                c.case3b
            else ""))

(* Oracle (i): restart equivalence.  Build a small report set from the
   first crashing method — duplicates with distinct provenance paths plus
   one torn copy — and triage it twice through a {!Triage.Service}.  The
   uninterrupted run submits the items in canonical path order and drains
   once.  The interrupted run submits a seeded shuffle one report per
   tick with eager rung climbs, persists its buckets to an index in a
   fresh temporary directory, closes after half the items, reopens over
   the same index, submits the rest, ticks and drains.  The two
   timing-stripped summaries must be byte-identical: arrival order, tick
   boundaries, eager replay and a restart must never change what triage
   concludes. *)

let streaming_check (cfg : cfg) (case : Gen.case) (sc : Concolic.Scenario.t)
    ~dynamic ~static : verdict =
  let rec first_crash = function
    | [] -> None
    | meth :: rest -> (
        let plan =
          Instrument.Plan.make
            ~nbranches:(Minic.Program.nbranches case.Gen.prog)
            ?dynamic ~static meth
        in
        match Bugrepro.Pipeline.Run.field_run_report cfg.config ~plan sc with
        | _, Some report -> Some (plan, report)
        | _, None -> first_crash rest)
  in
  match first_crash cfg.methods with
  | None -> Skip "no crash under any method"
  | Some (plan, report) -> (
      let wire = Instrument.Wire.serialize report in
      let torn =
        match payload_tear_pos wire with
        | None -> wire
        | Some cut -> String.sub wire 0 cut
      in
      let texts =
        [ wire; wire; torn; wire ]
        |> List.mapi (fun i s -> (Printf.sprintf "r%03d.report" i, s))
      in
      let items =
        List.filter_map
          (fun (path, s) ->
            Result.to_option (Triage.Ingest.of_string ~path s))
          texts
      in
      let resolve _ = Ok (case.Gen.prog, plan) in
      (* the service's default run-bounded rungs: a verdict never
         depends on wall time *)
      let config =
        {
          Triage.Service.default_config with
          Triage.Service.policy = Triage.Sched.policy_of_config cfg.config;
          queue_capacity = max 1 (List.length items);
          burst = 1;
          window = 8;
        }
      in
      (* one service incarnation fed [items], a tick after each
         submission when [tick] (burst 1: the queue is empty after it) *)
      let incarnation ?index_dir ~tick items =
        let config = { config with Triage.Service.index_dir } in
        match Triage.Service.open_ ~config ~resolve () with
        | Error e -> failwith (Triage.Index.error_to_string e)
        | Ok svc ->
            List.iter
              (fun item ->
                ignore (Triage.Service.submit_item svc item);
                if tick then ignore (Triage.Service.tick svc))
              items;
            svc
      in
      let drain svc =
        let s = Triage.Service.drain svc in
        Triage.Service.close svc;
        s
      in
      let dir = Filename.temp_dir "fuzz-triage" "" in
      let rm_dir () =
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      in
      try
        Fun.protect ~finally:rm_dir @@ fun () ->
        let whole = drain (incarnation ~tick:false items) in
        let shuffled = Array.of_list items in
        Osmodel.Rng.shuffle
          (Osmodel.Rng.create (cfg.config.Bugrepro.Pipeline.Config.seed + 1))
          shuffled;
        let half = Array.length shuffled / 2 in
        let part lo n = Array.to_list (Array.sub shuffled lo n) in
        Triage.Service.close
          (incarnation ~index_dir:dir ~tick:true (part 0 half));
        let restarted =
          drain
            (incarnation ~index_dir:dir ~tick:true
               (part half (Array.length shuffled - half)))
        in
        let canon s = Triage.Summary.to_json ~timing:false s in
        let w = canon whole and r = canon restarted in
        (* both runs are run-bounded, so even a timed_out count that
           differs is a divergence, not wall-clock noise *)
        if String.equal w r then Pass
        else
          Fail
            (Printf.sprintf
               "restarted summary diverged from uninterrupted:\n\
                --- uninterrupted\n%s\n--- restarted\n%s"
               w r)
      with exn -> Fail ("streaming triage raised " ^ Printexc.to_string exn))

(* Oracle (j): online-encoding equivalence.  Per method, the field run's
   decoded bit log must equal, bit for bit, the shadow log an independent
   {!Instrument.Branch_log.Writer} built from every logged bit (the
   oracle's plans carry no suppression table, so the shadow writer sees
   exactly the bits the encoder saw); the encoded stream must validate
   and carry exactly the logged bit count; a crashing run's v4 report
   must survive the strict wire round trip byte-identically;
   and a torn or byte-corrupted encoded payload must fail the strict
   reader closed while salvage still recovers the crash site with no
   more bits than were shipped. *)

let encoding_check (cfg : cfg) (case : Gen.case) (sc : Concolic.Scenario.t)
    ~dynamic ~static : verdict =
  let failure = ref None in
  let fail msg = if !failure = None then failure := Some msg in
  (try
     List.iter
       (fun meth ->
         if !failure = None then begin
           let mname = Instrument.Methods.to_string meth in
           let err msg = fail (mname ^ ": " ^ msg) in
           let plan =
             Instrument.Plan.make
               ~nbranches:(Minic.Program.nbranches case.Gen.prog)
               ?dynamic ~static meth
           in
           let enc = Instrument.Field_run.run ~shadow:true ~plan sc in
           let shadow = Option.get enc.shadow_log in
           if
             enc.branch_log.Instrument.Branch_log.nbits
             <> shadow.Instrument.Branch_log.nbits
             || not
                  (String.equal enc.branch_log.Instrument.Branch_log.bytes
                     shadow.Instrument.Branch_log.bytes)
           then err "encoded log decodes to different bits than were logged"
           else begin
             (let e = enc.encoded_log in
              match Instrument.Codec.count_bits e.Instrument.Codec.data with
              | Error m -> err ("shipped stream invalid: " ^ m)
              | Ok n when n <> e.Instrument.Codec.nbits ->
                  err
                    (Printf.sprintf "stream carries %d bits, claims %d" n
                       e.Instrument.Codec.nbits)
              | Ok _ -> ());
             if !failure = None then
               match Instrument.Report.of_field_run ~sc ~plan enc with
               | None -> ()
               | Some report -> (
                   let wire = Instrument.Wire.serialize report in
                   (match Instrument.Wire.deserialize_v wire with
                   | Error e ->
                       err
                         ("v4 wire rejected its own report: "
                        ^ Instrument.Wire.error_to_string e)
                   | Ok report' ->
                       if
                         not
                           (String.equal wire
                              (Instrument.Wire.serialize report'))
                       then err "v4 wire round trip is not the identity"
                       else if
                         not
                           (String.equal
                              (Instrument.Report.raw_log report')
                                .Instrument.Branch_log.bytes
                              enc.branch_log.Instrument.Branch_log.bytes)
                       then err "wire round trip changed the decoded bits");
                   (* negatives, only meaningful on an encoded payload *)
                   match
                     (report.Instrument.Report.branch_log,
                      Instrument.Wire.payload_span wire)
                   with
                   | Instrument.Report.Raw _, _ | _, None ->
                       err "crashing encoded run shipped no branch-enc"
                   | Instrument.Report.Encoded _, Some (start, hex_end) ->
                       let torn =
                         String.sub wire 0 (start + ((hex_end - start) / 2))
                       in
                       (if hex_end > start + 1 then
                          match Instrument.Wire.deserialize_v torn with
                          | Ok _ -> err "strict reader accepted a torn payload"
                          | Error _ -> ());
                       (match Instrument.Wire.deserialize_salvage torn with
                       | Error (Instrument.Wire.Unknown_version v) ->
                           err
                             (Printf.sprintf
                                "tear misread as wire version %d" v)
                       | Error (Instrument.Wire.Malformed _) -> ()
                       | Ok (r, _) ->
                           if not (Interp.Crash.equal_site r.crash report.crash)
                           then err "salvage of a torn payload moved the crash"
                           else if
                             Instrument.Report.nbits r
                             > Instrument.Report.nbits report
                           then err "salvage invented branch bits");
                       if hex_end > start + 1 then
                         let corrupt = Bytes.of_string wire in
                         Bytes.set corrupt start 'z';
                         match
                           Instrument.Wire.deserialize_v
                             (Bytes.to_string corrupt)
                         with
                         | Ok _ ->
                             err "strict reader accepted corrupted payload hex"
                         | Error _ -> ())
           end
         end)
       cfg.methods
   with exn -> fail ("encoding oracle raised " ^ Printexc.to_string exn));
  match !failure with None -> Pass | Some msg -> Fail msg

(* ------------------------------------------------------------------ *)

let run ?only (cfg : cfg) (case : Gen.case) : outcome list =
  let tel = cfg.config.telemetry in
  let want name = match only with None -> true | Some o -> String.equal o name in
  let span name f =
    Telemetry.Span.with_ tel ~name:("fuzz.oracle." ^ name) (fun _ -> f ())
  in
  let results = ref [] in
  let record name verdict =
    Telemetry.Metrics.incr_named tel
      ("fuzz.oracle." ^ name ^ "."
      ^ (match verdict with Pass -> "pass" | Skip _ -> "skip" | Fail _ -> "fail")
      );
    results := { oracle = name; verdict } :: !results
  in
  let sc = Gen.scenario ~max_steps:cfg.max_steps case in
  let need_explore =
    want "labels" || want "cache"
    || (cfg.check_suppression && want "suppression")
    || (cfg.check_streaming && want "streaming")
    || List.exists
         (fun m ->
           m <> Instrument.Methods.All_branches
           && m <> Instrument.Methods.No_instrumentation)
         cfg.methods
       && (want "replay" || want "wire" || want "salvage"
          || (cfg.check_encoding && want "encoding"))
  in
  let base =
    if need_explore then
      Some
        (Telemetry.Span.with_ tel ~name:"fuzz.explore" (fun _ ->
             explore ~cfg sc))
    else None
  in
  (if want "labels" then
     match base with
     | Some b -> record "labels" (span "labels" (fun () -> labels_oracle cfg case b))
     | None -> ());
  (if cfg.check_cache && want "cache" then
     match base with
     | Some b -> record "cache" (span "cache" (fun () -> cache_oracle cfg b))
     | None -> ());
  (* static labels for the plans, computed once *)
  let static_labels =
    lazy
      (Staticanalysis.Static.analyze ~analyze_lib:true case.Gen.prog)
        .labels
  in
  (* the truncation sweep is method-independent soundness, so one report
     (the first crashing method's) is enough per case *)
  let salvage_done = ref false in
  if want "replay" || want "wire" || want "salvage" then
    List.iter
      (fun meth ->
        let mname = Instrument.Methods.to_string meth in
        let plan =
          Instrument.Plan.make
            ~nbranches:(Minic.Program.nbranches case.Gen.prog)
            ?dynamic:(Option.map (fun (b : explo) -> b.labels) base)
            ~static:(Lazy.force static_labels) meth
        in
        let _run, report =
          Bugrepro.Pipeline.Run.field_run_report cfg.config ~plan sc
        in
        match report with
        | None ->
            if want "replay" then
              record "replay" (Skip ("no crash under " ^ mname))
        | Some report ->
            if want "wire" then
              record "wire" (span "wire" (fun () -> wire_check report));
            if cfg.check_salvage && want "salvage" && not !salvage_done then begin
              salvage_done := true;
              record "salvage"
                (span "salvage" (fun () -> salvage_check cfg case plan report))
            end;
            if want "replay" then
              record "replay"
                (span "replay" (fun () -> replay_check cfg case plan meth report)))
      cfg.methods;
  if cfg.check_suppression && want "suppression" then
    record "suppression"
      (span "suppression" (fun () ->
           suppression_check cfg case sc
             ~dynamic:(Option.map (fun (b : explo) -> b.labels) base)
             ~static:(Lazy.force static_labels)));
  if cfg.check_streaming && want "streaming" then
    record "streaming"
      (span "streaming" (fun () ->
           streaming_check cfg case sc
             ~dynamic:(Option.map (fun (b : explo) -> b.labels) base)
             ~static:(Lazy.force static_labels)));
  if cfg.check_encoding && want "encoding" then
    record "encoding"
      (span "encoding" (fun () ->
           encoding_check cfg case sc
             ~dynamic:(Option.map (fun (b : explo) -> b.labels) base)
             ~static:(Lazy.force static_labels)));
  List.rev !results
