(** Instrumentation plans: which branch locations get a logging probe.

    The developer computes the plan before shipping and retains it — replay
    needs the exact instrumented set to know which branches consume a bit
    from the log (§3.1). *)

type t = {
  meth : Methods.t;
  instrumented : bool array;  (** indexed by branch id *)
  n_instrumented : int;
  suppression : Staticanalysis.Suppression.t option;
      (** probe-elision refinement; [None] logs every instrumented branch *)
  cohort : string option;
      (** adaptive-deployment cohort the plan was compiled for; rides the
          report so triage can resolve the exact per-cohort branch set *)
}

val is_instrumented : t -> int -> bool
val instrumented_ids : t -> int list

(** Refine a plan with a suppression table.  The caller must have run
    {!Staticanalysis.Suppression.verify} first (the pipeline does); an
    unverified table must never reach the field. *)
val with_suppression : t -> Staticanalysis.Suppression.t -> t

(** The suppression table shipped with this plan ([[]] when none). *)
val suppression_table : t -> (int * Staticanalysis.Suppression.rule) list

(** Build a plan per §2.3:

    - [Dynamic]: exactly the branches dynamic analysis labelled symbolic;
    - [Static]: the branches static analysis labelled symbolic;
    - [Dynamic_static]: where dynamic analysis visited a branch its label
      wins (including overriding static's symbolic with dynamic's
      concrete); unvisited branches fall back to the static label;
    - [All_branches] / [No_instrumentation]: everything / nothing.

    Raises [Invalid_argument] when a required label map is missing or has
    the wrong size. *)
val make :
  nbranches:int ->
  ?dynamic:Minic.Label.map ->
  ?static:Minic.Label.map ->
  Methods.t ->
  t
