(** Incremental solving façade: scoped contexts ({!Scope}), learned unsat
    cores and a two-strategy portfolio on top of {!Solve}/{!Cache}.

    One [t] is shared by all workers of an exploration (or all rungs of a
    triage cluster's escalation ladder); each worker opens a {!session}
    owning a private scope.  {!solve} prunes queries subsumed by a learned
    core without touching the solver, probes the shared cache on the
    independence slice, and only on a miss re-syncs the scope — so a
    sibling pending reuses the shared lineage prefix's propagation
    fixpoint — and picks the interval-first or enumeration-first strategy
    from per-signature outcome stats.  Every [Unsat] feeds core
    learning.

    Cores are registry-scoped (dropped when a session under a different
    {!Symvars} registry appears); portfolio statistics are keyed on a
    registry-independent signature and survive replay restarts.  Verdicts
    agree with the from-scratch solver (fuzz oracle 8); models may differ. *)

type t

type strategy = Interval_first | Enum_first

type snapshot = {
  solver_calls : int;  (** calls that were not core-pruned *)
  incremental : int;
      (** calls answered without a from-scratch solve: a shared-cache hit
          on the slice, or a solve that reused >= 1 scope frame *)
  core_pruned : int;  (** queries answered Unsat by core subsumption *)
  cores_learned : int;
  cores_live : int;  (** cores currently retained (bounded) *)
  enum_first : int;  (** portfolio picks of the enumeration-first strategy *)
  cache_hits : int;  (** slice probes answered by the shared cache *)
}

val create : unit -> t
val snapshot : t -> snapshot

(** A worker-private handle: owns a {!Scope} under [vars].  Opening a
    session under a different registry than the cores were learned from
    drops them (they are domain facts of that registry). *)
type session

val session : t -> vars:Symvars.t -> session
val scope : session -> Scope.t

(** [learn_core t ~vars core] retains [core] (a constraint set known
    unsatisfiable under [vars]' domains) for subsumption pruning.  Bounded
    size and count; silently ignored when stale or too large. *)
val learn_core : t -> vars:Symvars.t -> Expr.t list -> unit

(** Some learned core is a subset (structural membership) of [cs]. *)
val core_subsumes : t -> vars:Symvars.t -> Expr.t list -> bool

(** Solve the conjunction with the full incremental pipeline: core
    subsumption, cache probe on the independence slice ([slice], default
    [true] — same invariant as {!Cache.solve}), then on a miss scope
    re-sync, portfolio search and core learning.  Drop-in for the engine's
    solve path. *)
val solve :
  session ->
  ?budget:Solve.budget ->
  ?cache:Cache.t ->
  ?slice:bool ->
  ?hint:(int -> int option) ->
  Expr.t list ->
  Solve.outcome

(** A {!snapshot} in the unified counter view (scope ["solver.incr"],
    gauge [incremental_rate]). *)
val counters : snapshot -> Telemetry.Counters.snapshot
