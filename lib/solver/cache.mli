(** Memoizing solver cache.

    Memoizes {!Solve.solve} on a canonicalized constraint-set key:
    constraints are deduplicated and variables alpha-renamed by first
    occurrence (domains included in the key), so alpha-equivalent queries —
    e.g. the same forced chain re-derived under a fresh {!Symvars} registry
    after a replay restart — hit the same entry.  Only [Sat]/[Unsat] are
    cached (both are budget-independent); [Unknown] never is.  Thread-safe:
    shared by all domains of a parallel exploration; a key one domain is
    solving is marked in flight, and the domains that miss on it meanwhile
    wait for its result and count as hits (after an [Unknown] or an
    exception they solve it themselves).  Bounded, FIFO eviction. *)

type t

type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  stores : int;
  uncacheable : int;  (** [Unknown] results, never memoized *)
}

(** [create ?capacity ()] makes an empty cache holding at most [capacity]
    entries (default 8192). *)
val create : ?capacity:int -> unit -> t

(** Counters so far (consistent snapshot under the cache's lock). *)
val snapshot : t -> snapshot

(** [hits / (hits + misses)]; 0 when the cache was never queried. *)
val hit_rate : snapshot -> float

(** Entries currently stored. *)
val length : t -> int

val clear : t -> unit

(** [slice_focus cs] keeps only the constraints transitively connected to
    the last one (the pending's negated / forced constraint) through shared
    variables — the classic constraint-independence optimisation.  Dropping
    the other components is sound for the exploration engine because their
    variables are untouched by any model of the slice: the engine merges the
    solver's model over the pending's hint, which already satisfies them.
    The engine takes its slices with [Concolic.Path.slice], which equals
    this function on a pending's constraint set; this whole-list version is
    the reference the tests compare against. *)
val slice_focus : Expr.t list -> Expr.t list

(** Drop-in replacement for {!Solve.solve} that consults the cache first.
    On a [Sat] hit the cached model is renamed back to the query's
    variables; it satisfies the conjunction but may differ from the model a
    fresh hint-seeded search would produce.  The exploration engine hands
    it a pending's slice, never the whole constraint set.

    [telemetry] records the solver-time split: counters
    [solver.cache.hit]/[solver.cache.miss_solve] and histograms
    [solver.cache.hit_s]/[solver.cache.miss_solve_s]. *)
val solve :
  t ->
  ?budget:Solve.budget ->
  ?telemetry:Telemetry.t ->
  vars:Symvars.t ->
  ?hint:(int -> int option) ->
  Expr.t list ->
  Solve.outcome

(** The {!snapshot} in the unified counter view (scope ["solver.cache"],
    gauge [hit_rate]).  The record stays for the bench tables. *)
val counters : snapshot -> Telemetry.Counters.snapshot
