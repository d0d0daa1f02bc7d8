(** Fuzz campaign driver: generate, elaborate, run the oracles, shrink.

    The fuzz stage plugs into the pipeline the same way every other stage
    does — it consumes a {!Bugrepro.Pipeline.Config.t} (budgets, seed,
    telemetry) and opens [fuzz] / [fuzz.case] / [fuzz.gen] /
    [fuzz.oracle.*] telemetry spans with [fuzz.gen], [fuzz.oracle.*.pass/
    skip/fail], [fuzz.shrink.steps] and [fuzz.violations] counters.

    Heavier oracles rotate across case indices (replay methods cycle
    [Dynamic]/[Static]/[Dynamic_static] with [All_branches] always on; the
    cache check runs every 2nd case) so a 200-case smoke finishes inside a
    CI minute; [thorough] disables the rotation. *)

type opts = {
  seed : int;  (** campaign seed; per-case seeds derive from it *)
  count : int;
  shrink : bool;  (** minimize any violation before reporting it *)
  save_corpus : string option;  (** save every generated case to this dir *)
  thorough : bool;  (** all oracles and all methods on every case *)
  config : Bugrepro.Pipeline.Config.t;
}

(** Seed 42, 100 cases, no shrinking, smoke budgets. *)
val default_opts : opts

type violation = {
  case_seed : int;  (** re-run alone with [Gen.generate ~seed:case_seed] *)
  oracle : string;
  detail : string;
  src : string;  (** the offending program, pre-shrink *)
  shrunk : Gen.t option;
  repro_path : string option;  (** corpus file written for this violation *)
}

type summary = {
  cases : int;
  gen_errors : int;  (** elaboration failures: parse/round-trip/link *)
  crashed_cases : int;  (** cases whose field run produced a report *)
  passes : int;  (** individual oracle passes across all cases *)
  skips : int;  (** inconclusive oracle runs (no crash, truncation) *)
  violations : violation list;
}

(** No generator errors and no violations. *)
val ok : summary -> bool

(** Run a generation campaign. *)
val run : opts -> summary

(** Replay every [.mc] file under a corpus directory through the oracles. *)
val replay_dir : opts -> string -> summary

val pp_summary : Format.formatter -> summary -> unit
val summary_to_string : summary -> string
