(** The bundled workloads, and the one map from a program name to its
    analyzed program and retained instrumentation plan.

    A report names its program ({!Instrument.Report.t.program}: the crash
    scenario's name, e.g. ["paste"] or ["userver-exp3"]); the developer
    site resolves that name here with {!find} and replays under the plan
    {!plan} compiles for the report's method.  The CLI's commands, the
    triage resolvers and {!Report_gen} all read this catalog. *)

type experiment = {
  id : int;  (** the CLI's [--experiment N] *)
  description : string;
  program : string;  (** the name its crash scenario, and so its report, carries *)
}

type entry = {
  name : string;  (** workload key, e.g. ["mkdir"], ["userver"] *)
  describe : string;
  prog : Minic.Program.t Lazy.t;
  analyze_lib : bool;
      (** static analysis covers the runtime library too ([false] for
          µServer, the paper's §5.3 setup) *)
  experiments : experiment list;  (** never empty *)
  crash : int -> Concolic.Scenario.t;  (** crash scenario of an experiment id *)
  analysis : unit -> Concolic.Scenario.t;
      (** the developer's test scenario for dynamic analysis *)
}

(** mkdir, mknod, mkfifo, paste, userver, diff, mtrace — in that order.
    Building the list forces no program. *)
val entries : entry list

(** Resolve a program name: an exact workload name first, then the prefix
    before the first ['-'] (["userver-exp3"] → userver).  The error lists
    the known names. *)
val find : string -> (entry, string) result

(** Memo tables over one pipeline config.  Not thread-safe: call from one
    domain (the triage scheduler resolves clusters sequentially). *)
type memo

val memo : Bugrepro.Pipeline.Config.t -> memo

(** The analyzed program and the plan for [meth], under the memo's config
    with the entry's [analyze_lib].  One analysis per (entry, whether
    [meth] needs dynamic labels) — dynamic analysis runs, on the entry's
    [analysis] scenario, only for [Dynamic] and [Dynamic_static] — and one
    plan per (entry, method); a repeated call returns the same value. *)
val plan :
  memo -> entry -> Instrument.Methods.t -> Minic.Program.t * Instrument.Plan.t

(** Field-run an experiment's crash scenario under {!plan} and return the
    report's wire form; an error when the scenario did not crash. *)
val record :
  memo -> entry -> experiment -> Instrument.Methods.t -> (string, string) result
