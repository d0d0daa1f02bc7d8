(** Fuzz campaign driver (see driver.mli).

    All randomness flows from one {!Osmodel.Rng} stream: the campaign seed
    derives one printable per-case seed per index ({!Rng.derive}), so any
    reported failure can be re-run alone with [Gen.generate ~seed:<case
    seed>] regardless of how many cases ran before it. *)

module Config = Bugrepro.Pipeline.Config

type opts = {
  seed : int;
  count : int;
  shrink : bool;
  save_corpus : string option;
  thorough : bool;
  config : Config.t;
}

let default_opts =
  {
    seed = 42;
    count = 100;
    shrink = false;
    save_corpus = None;
    thorough = false;
    config = Oracle.default_cfg.Oracle.config;
  }

type violation = {
  case_seed : int;
  oracle : string;
  detail : string;
  src : string;
  shrunk : Gen.t option;
  repro_path : string option;
}

type summary = {
  cases : int;
  gen_errors : int;
  crashed_cases : int;
  passes : int;
  skips : int;
  violations : violation list;
}

let ok (s : summary) = s.gen_errors = 0 && s.violations = []

(* ------------------------------------------------------------------ *)
(* Per-case oracle configuration: the cheap oracles run every case; the
   heavy ones (extra replay methods, a second exploration with a worker
   pool) rotate across case indices so a 200-case smoke stays in CI
   budget.  [--thorough] runs everything on every case. *)

let oracle_cfg (opts : opts) ~index : Oracle.cfg =
  let rotating =
    Instrument.Methods.[| Dynamic; Static; Dynamic_static |].(index mod 3)
  in
  {
    Oracle.config = opts.config;
    methods =
      (if opts.thorough then Instrument.Methods.instrumented
       else [ rotating; Instrument.Methods.All_branches ]);
    check_determinism = opts.thorough || index mod 4 = 0;
    check_cache = opts.thorough || index mod 2 = 0;
    check_salvage = opts.thorough || index mod 3 = 1;
    check_suppression = opts.thorough || index mod 3 = 2;
    check_streaming = opts.thorough || index mod 4 = 3;
    check_encoding = opts.thorough || index mod 4 = 1;
    det_jobs = max 2 opts.config.Config.jobs;
    max_steps = 200_000;
  }

let shrink_failure (opts : opts) (ocfg : Oracle.cfg) oracle (g : Gen.t) :
    Gen.t option =
  let pred g' =
    match Gen.elaborate g' with
    | Error _ -> false
    | Ok case' ->
        Oracle.run ~only:oracle ocfg case'
        |> List.exists (fun (o : Oracle.outcome) ->
               match o.verdict with Oracle.Fail _ -> true | _ -> false)
  in
  if not (pred g) then None
  else
    let shrunk, steps =
      Shrink.minimize ~telemetry:opts.config.Config.telemetry ~pred g
    in
    ignore steps;
    Some shrunk

(* ------------------------------------------------------------------ *)

let run_case (opts : opts) ~index ~case_seed : violation list * Oracle.outcome list =
  let tel = opts.config.Config.telemetry in
  Telemetry.Span.with_ tel ~name:"fuzz.case"
    ~attrs:[ ("seed", Telemetry.Event.Int case_seed) ]
  @@ fun sp ->
  let g =
    Telemetry.Span.with_ tel ~name:"fuzz.gen" (fun _ ->
        Gen.generate ~seed:case_seed ())
  in
  Telemetry.Metrics.incr_named tel "fuzz.gen";
  match Gen.elaborate g with
  | Error e ->
      Telemetry.Span.adds sp "error" (Gen.error_to_string e);
      ( [
          {
            case_seed;
            oracle = "generate";
            detail = Gen.error_to_string e;
            src = g.Gen.src;
            shrunk = None;
            repro_path = None;
          };
        ],
        [] )
  | Ok case ->
      (match opts.save_corpus with
      | Some dir -> ignore (Corpus.save ~dir g)
      | None -> ());
      let ocfg = oracle_cfg opts ~index in
      let outcomes = Oracle.run ocfg case in
      let violations =
        Oracle.failed outcomes
        |> List.map (fun (o : Oracle.outcome) ->
               let detail =
                 match o.verdict with Oracle.Fail d -> d | _ -> assert false
               in
               let shrunk =
                 if opts.shrink then shrink_failure opts ocfg o.oracle g
                 else None
               in
               let repro_path =
                 let dir =
                   match opts.save_corpus with
                   | Some d -> Some d
                   | None -> if opts.shrink then Some "fuzz-failures" else None
                 in
                 Option.map
                   (fun d ->
                     Corpus.save ~dir:d
                       ~name:
                         (Printf.sprintf "violation-%s-%d" o.oracle case_seed)
                       (Option.value shrunk ~default:g))
                   dir
               in
               { case_seed; oracle = o.oracle; detail; src = g.Gen.src; shrunk;
                 repro_path })
      in
      (violations, outcomes)

let count_outcomes outcomes =
  List.fold_left
    (fun (p, s, crashed) (o : Oracle.outcome) ->
      match o.verdict with
      | Oracle.Pass -> (p + 1, s, crashed)
      | Oracle.Skip _ -> (p, s + 1, crashed)
      | Oracle.Fail _ -> (p, s, crashed))
    (0, 0, false) outcomes

let run (opts : opts) : summary =
  let tel = opts.config.Config.telemetry in
  Telemetry.Span.with_ tel ~name:"fuzz"
    ~attrs:
      [
        ("seed", Telemetry.Event.Int opts.seed);
        ("count", Telemetry.Event.Int opts.count);
      ]
  @@ fun _ ->
  let rng = Osmodel.Rng.create opts.seed in
  let summary =
    ref
      {
        cases = 0;
        gen_errors = 0;
        crashed_cases = 0;
        passes = 0;
        skips = 0;
        violations = [];
      }
  in
  for index = 0 to opts.count - 1 do
    let case_seed = Osmodel.Rng.derive rng ~index in
    let violations, outcomes = run_case opts ~index ~case_seed in
    let p, s, _ = count_outcomes outcomes in
    let gen_err =
      List.exists (fun v -> v.oracle = "generate") violations
    in
    (* the wire oracle only ever records an outcome when a report exists,
       i.e. when the field run crashed *)
    let crashed =
      List.exists (fun (o : Oracle.outcome) -> o.oracle = "wire") outcomes
    in
    summary :=
      {
        cases = !summary.cases + 1;
        gen_errors = (!summary.gen_errors + if gen_err then 1 else 0);
        crashed_cases = (!summary.crashed_cases + if crashed then 1 else 0);
        passes = !summary.passes + p;
        skips = !summary.skips + s;
        violations = !summary.violations @ violations;
      }
  done;
  Telemetry.Metrics.incr_named tel ~by:(List.length !summary.violations)
    "fuzz.violations";
  !summary

(* ------------------------------------------------------------------ *)
(* Corpus replay: same oracles over checked-in [.mc] files *)

let replay_dir (opts : opts) (dir : string) : summary =
  let entries = Corpus.load_dir dir in
  let summary =
    ref
      {
        cases = 0;
        gen_errors = 0;
        crashed_cases = 0;
        passes = 0;
        skips = 0;
        violations = [];
      }
  in
  List.iteri
    (fun index (path, loaded) ->
      let violations, outcomes =
        match loaded with
        | Error e ->
            ( [
                {
                  case_seed = 0;
                  oracle = "corpus";
                  detail = Printf.sprintf "%s: %s" path e;
                  src = "";
                  shrunk = None;
                  repro_path = None;
                };
              ],
              [] )
        | Ok g -> (
            match Gen.elaborate g with
            | Error e ->
                ( [
                    {
                      case_seed = g.Gen.seed;
                      oracle = "generate";
                      detail = Printf.sprintf "%s: %s" path (Gen.error_to_string e);
                      src = g.Gen.src;
                      shrunk = None;
                      repro_path = None;
                    };
                  ],
                  [] )
            | Ok case ->
                let ocfg = oracle_cfg opts ~index in
                let outcomes = Oracle.run ocfg case in
                ( Oracle.failed outcomes
                  |> List.map (fun (o : Oracle.outcome) ->
                         {
                           case_seed = g.Gen.seed;
                           oracle = o.oracle;
                           detail =
                             (match o.verdict with
                             | Oracle.Fail d -> Printf.sprintf "%s: %s" path d
                             | _ -> assert false);
                           src = g.Gen.src;
                           shrunk = None;
                           repro_path = None;
                         }),
                  outcomes ))
      in
      let p, s, _ = count_outcomes outcomes in
      let crashed =
        List.exists (fun (o : Oracle.outcome) -> o.oracle = "wire") outcomes
      in
      summary :=
        {
          !summary with
          cases = !summary.cases + 1;
          crashed_cases = (!summary.crashed_cases + if crashed then 1 else 0);
          passes = !summary.passes + p;
          skips = !summary.skips + s;
          violations = !summary.violations @ violations;
        })
    entries;
  !summary

(* ------------------------------------------------------------------ *)

let pp_summary ppf (s : summary) =
  Format.fprintf ppf
    "fuzz: %d case(s), %d crashing, %d oracle pass(es), %d skip(s), %d \
     generator error(s), %d violation(s)"
    s.cases s.crashed_cases s.passes s.skips s.gen_errors
    (List.length s.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  [%s] seed %d: %s" v.oracle v.case_seed v.detail;
      (match v.shrunk with
      | Some g ->
          Format.fprintf ppf "@.    shrunk to %d AST nodes"
            (Minic.Astcmp.size_unit g.Gen.ast)
      | None -> ());
      match v.repro_path with
      | Some p -> Format.fprintf ppf "@.    repro: %s" p
      | None -> ())
    s.violations

let summary_to_string s = Format.asprintf "%a" pp_summary s
