(** The differential oracles, spanning every pipeline stage.

    Cross-stage invariants, checked per generated case (the print/parse
    round trip is enforced by {!Gen.elaborate} before a case ever reaches
    this module):

    - {b replay}: for each instrumentation method, a crashing field run's
      report must be reproduced by guided replay, and every [Reproduced]
      model must crash at the recorded site again when the program is
      re-executed from [main] by a hook-free {!Interp.Eval.run} over the
      replay kernel (the attempt's seed supplying the bytes the model
      leaves free) — so a run that resumed at a case-2b mismatch is
      checked against the from-scratch execution it stands for (DESIGN.md
      §5m); a search that exhausts
      its space without reproducing is a violation, and the failure
      message flags searches killed purely by concrete-log contradictions
      ([case3b]) on the logged prefix.  (Contradiction dead ends that are
      later backtracked are legitimate even under [All_branches]: a store
      through a concretized symbolic index can make a field-symbolic
      branch concrete in a replay run — see the minimized witness in
      [test/corpus/known/].)
    - {b labels}: every branch dynamic analysis observed symbolic must be
      statically labelled symbolic ({!Staticanalysis.Precision},
      [n_missed = 0] — the paper's soundness direction).
    - {b cache}: for the path constraint sets the exploration actually
      produced (and their negated-tail variants), a fresh
      {!Solver.Cache}-backed solve must agree with the direct solve on
      satisfiability, and any cached model must satisfy the query.
    - {b wire}: [serialize -> deserialize -> serialize] is the identity on
      every generated report, and the decoded report preserves the crash
      site.
    - {b suppression}: the probe-elision analysis' own table passes the
      proof checker; a suppressed field run's shadow log equals the
      suppression-free log bit for bit with zero reconstruction
      mismatches and unchanged outcome/output; and, when the run
      crashed, the table survives the wire (where the two readers agree
      at every cut, as in {b salvage}) and guided replay from the
      suppressed report reaches the same verdict — with the same §3.1
      case counters absent timeouts — as replay from the raw report.
    - {b salvage}: truncating the wire form at every byte boundary and
      salvaging ({!Instrument.Wire.deserialize_salvage}) never raises,
      never misreads a truncation as an unknown version, preserves the
      crash site and program on every successful salvage, recovers a bit
      count monotone in the cut, and yields a report the strict reader
      round-trips; at every cut the strict reader accepts exactly when
      salvage diagnoses the prefix complete, with the same report.  One
      deep cut (half the branch log) is then actually replayed and must
      come back [Reproduced] at the recorded site or a clean
      [Not_reproduced] — never an exception.
    - {b streaming}: a small report set (duplicates under distinct
      provenance paths plus one torn copy) triaged by a
      {!Triage.Service} twice — once uninterrupted (canonical order, one
      drain), once interrupted (seeded-shuffled arrival, one report per
      tick with eager replay, buckets persisted to a fresh index, closed
      after half the items and reopened over that index for the rest) —
      must render byte-identical timing-stripped summaries
      ([Summary.to_json ~timing:false]) under the run-bounded ladder of
      {!Triage.Sched.policy_of_config}; both runs are deterministic, so
      a differing timed_out count fails like any other divergence.
    - {b encoding}: per method, the field run's decoded bit log equals,
      bit for bit, the [~shadow:true] log an independent
      {!Instrument.Branch_log.Writer} built from every logged bit; the
      shipped token stream validates and carries
      exactly the logged bit count; a crashing run's v4 report round
      trips the strict wire byte-identically; and torn or byte-corrupted
      [branch-enc] payloads fail the strict reader closed while salvage
      keeps the crash site and never recovers more bits than shipped.

    Oracles that cannot run (no crash, truncated exploration, replay
    timeout) report [Skip] with a reason — a skip is not a pass, and the
    driver counts them separately. *)

type verdict = Pass | Skip of string | Fail of string

type outcome = { oracle : string; verdict : verdict }

type cfg = {
  config : Bugrepro.Pipeline.Config.t;
      (** budgets ([dynamic_budget]/[replay_budget]), [seed] and
          [telemetry] are read from here — the fuzz stage consumes the
          same knob record as every other pipeline stage *)
  methods : Instrument.Methods.t list;  (** replay methods for this case *)
  check_cache : bool;
  check_salvage : bool;
  check_suppression : bool;
  check_streaming : bool;
  check_encoding : bool;
  max_steps : int;  (** interpreter step cap per exploration run *)
}

(** Moderate per-case budgets tuned for the CI smoke; telemetry disabled. *)
val default_cfg : cfg

(** Run the oracles on one elaborated case.  [only] restricts to a single
    oracle by name (the shrinker's predicate uses this). *)
val run : ?only:string -> cfg -> Gen.case -> outcome list

(** The wire readers' agreement on one input, as oracles 6 and 7 check
    it at every cut: [None] when {!Instrument.Wire.deserialize_v}
    accepts exactly when {!Instrument.Wire.deserialize_salvage} returns
    a complete diagnosis with the same report and both read the same
    [Unknown_version]; [Some why] otherwise. *)
val reader_disagreement : string -> string option

val failed : outcome list -> outcome list
val verdict_to_string : verdict -> string
