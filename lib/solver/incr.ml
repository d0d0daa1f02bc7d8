(** Incremental solving façade: scoped contexts, learned unsat cores and a
    two-strategy portfolio on top of {!Solve}/{!Scope}/{!Cache}.

    One [Incr.t] is shared by all workers of an exploration (or by every
    rung of a triage cluster's escalation ladder); each worker opens its own
    {!session}, which owns a private {!Scope}.  A call to {!solve}:

    + prunes the query outright when a learned unsat core is a subset of it
      (no solver call at all),
    + probes the shared {!Cache} on the independence slice — a hit needs no
      scope work at all,
    + on a miss, re-syncs the session scope to the query by popping the
      divergent suffix and pushing the new one — the shared lineage prefix
      keeps its propagation fixpoint — and solves with whichever of two
      strategies the per-signature outcome stats favour: *interval-first*
      (deep propagation, path variable order — the historical default) or
      *enumeration-first* (shallow propagation, smallest-domain-first
      search),
    + learns a core from every [Unsat]: the scope's certified structural
      witness when there is one, otherwise the whole (sliced) set when it
      is small.

    Learned cores are sound only against the variable registry and domains
    they were derived from, so they are tagged with the registry and
    dropped when a session under a different one appears (a guided-replay
    restart).  Portfolio statistics are keyed on a registry-independent
    query signature and survive restarts — that is what makes the triage
    ladder's repeated replays of one cluster progressively cheaper.

    Verdict equivalence with the from-scratch solver is enforced by fuzz
    oracle 8 (incremental-vs-fresh); models may legitimately differ. *)

type strategy = Interval_first | Enum_first

type sig_stats = {
  mutable a_runs : int;
  mutable a_time : float;
  mutable b_runs : int;
  mutable b_time : float;
  mutable seen : int;  (** calls with this signature, for re-exploration *)
}

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

type t = {
  mu : Mutex.t;
  sigs : (int * int * int, sig_stats) Hashtbl.t;
  mutable cores : (int * Expr.t list) list;
      (** newest first, bounded; each core carries a 63-bit member-hash
          mask so subsumption can reject most cores without building the
          per-query membership table *)
  core_set : (Expr.t list, unit) Hashtbl.t;  (** same cores, O(1) dedup *)
  mutable n_cores : int;
  mutable core_vars : Symvars.t option;  (** registry the cores belong to *)
  mutable solver_calls : int;
  mutable incremental : int;
  mutable core_pruned : int;
  mutable cores_learned : int;
  mutable enum_first : int;
  mutable cache_hits : int;
}

let max_cores = 128
let max_core_size = 6

let create () =
  {
    mu = Mutex.create ();
    sigs = Hashtbl.create 32;
    cores = [];
    core_set = Hashtbl.create 64;
    n_cores = 0;
    core_vars = None;
    solver_calls = 0;
    incremental = 0;
    core_pruned = 0;
    cores_learned = 0;
    enum_first = 0;
    cache_hits = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
      Mutex.unlock t.mu;
      v
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let snapshot t : snapshot =
  locked t (fun () ->
      {
        solver_calls = t.solver_calls;
        incremental = t.incremental;
        core_pruned = t.core_pruned;
        cores_learned = t.cores_learned;
        cores_live = t.n_cores;
        enum_first = t.enum_first;
        cache_hits = t.cache_hits;
      })

(* ------------------------------------------------------------------ *)
(* Sessions *)

type session = { incr : t; scope : Scope.t; mutable bypasses : int }

(* Cores are interval/domain facts over a specific registry; a session under
   a different registry (replay restart) invalidates them.  Portfolio stats
   are registry-independent and survive. *)
let session t ~vars =
  locked t (fun () ->
      (match t.core_vars with
      | Some v when v == vars -> ()
      | _ ->
          t.cores <- [];
          Hashtbl.reset t.core_set;
          t.n_cores <- 0;
          t.core_vars <- Some vars);
      { incr = t; scope = Scope.create ~vars (); bypasses = 0 })

let scope s = s.scope

(* ------------------------------------------------------------------ *)
(* Unsat cores *)

(* One bit per constraint, by structural hash.  A core can only be a
   subset of [cs] if its mask is covered by [cs]'s mask, so the precise
   (allocating) membership test runs only for plausible cores — on the
   cache-hit fast path, i.e. almost every call, no core survives the mask
   and subsumption costs a hash fold and nothing else. *)
let expr_bit (c : Expr.t) = 1 lsl (Hashtbl.hash c mod 62)

let mask_of (cs : Expr.t list) =
  List.fold_left (fun m c -> m lor expr_bit c) 0 cs

let learn_core t ~vars (core : Expr.t list) =
  if core <> [] && List.length core <= max_core_size then
    locked t (fun () ->
        match t.core_vars with
        | Some v when v == vars ->
            if not (Hashtbl.mem t.core_set core) then begin
              Hashtbl.replace t.core_set core ();
              t.cores <- (mask_of core, core) :: t.cores;
              t.n_cores <- t.n_cores + 1;
              t.cores_learned <- t.cores_learned + 1;
              if t.n_cores > max_cores then begin
                (* drop the oldest *)
                let keep = List.filteri (fun i _ -> i < max_cores) t.cores in
                List.iteri
                  (fun i (_, c) ->
                    if i >= max_cores then Hashtbl.remove t.core_set c)
                  t.cores;
                t.cores <- keep;
                t.n_cores <- max_cores
              end
            end
        | _ -> () (* registry changed under us: stale, drop silently *))

(* Some learned core is a subset of [cs]: the query is Unsat for free.
   [cs] membership is structural on the raw path constraints — siblings
   share them verbatim, which is what makes subsumption fire. *)
let core_subsumes t ~vars (cs : Expr.t list) : bool =
  locked t (fun () ->
      match t.core_vars with
      | Some v when v == vars && t.cores <> [] ->
          let qmask = mask_of cs in
          if
            not
              (List.exists
                 (fun (m, _) -> m land qmask = m)
                 t.cores)
          then false
          else begin
            let members = Hashtbl.create 64 in
            List.iter (fun c -> Hashtbl.replace members c ()) cs;
            List.exists
              (fun (m, core) ->
                m land qmask = m
                && List.for_all (fun c -> Hashtbl.mem members c) core)
              t.cores
          end
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Portfolio *)

let bucket n =
  if n <= 2 then n
  else if n <= 4 then 4
  else if n <= 8 then 8
  else if n <= 16 then 16
  else if n <= 64 then 64
  else 256

let dom_bucket size = if size <= 2 then 2 else if size <= 16 then 16 else 256

let signature ~vars (cs : Expr.t list) =
  let seen = Hashtbl.create 32 in
  let maxd = ref 1 in
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            let d = Symvars.domain vars v in
            let sz = d.Symvars.hi - d.Symvars.lo + 1 in
            if sz > !maxd then maxd := sz
          end)
        (Expr.vars c))
    cs;
  (bucket (Hashtbl.length seen), dom_bucket !maxd, bucket (List.length cs))

let sig_stats_for t sg =
  match Hashtbl.find_opt t.sigs sg with
  | Some st -> st
  | None ->
      let st = { a_runs = 0; a_time = 0.0; b_runs = 0; b_time = 0.0; seen = 0 } in
      Hashtbl.replace t.sigs sg st;
      st

(* Alternate until both strategies have a couple of samples, then exploit
   the faster mean — with a 1-in-16 re-exploration of the loser so a phase
   change in the workload is eventually noticed. *)
let choose_strategy t sg =
  locked t (fun () ->
      let st = sig_stats_for t sg in
      st.seen <- st.seen + 1;
      if st.a_runs < 2 then Interval_first
      else if st.b_runs < 2 then Enum_first
      else
        let mean_a = st.a_time /. float_of_int st.a_runs in
        let mean_b = st.b_time /. float_of_int st.b_runs in
        let best = if mean_a <= mean_b then Interval_first else Enum_first in
        if st.seen land 15 = 0 then
          if best = Interval_first then Enum_first else Interval_first
        else best)

let record_strategy t sg strat dt =
  locked t (fun () ->
      let st = sig_stats_for t sg in
      match strat with
      | Interval_first ->
          st.a_runs <- st.a_runs + 1;
          st.a_time <- st.a_time +. dt
      | Enum_first ->
          st.b_runs <- st.b_runs + 1;
          st.b_time <- st.b_time +. dt)

(* ------------------------------------------------------------------ *)
(* Scope re-sync *)

(* A sync pays one {!Scope.push} (simplification, negation-pair scan,
   propagation) per divergent constraint.  Along a DFS lineage the
   divergence is a handful of frames and the sync is the whole point; but
   when the search jumps to a far region (a BFS frontier, a sibling
   worker's subtree), a full re-push of hundreds of frames costs more than
   solving the slice from scratch.  So a large divergence bypasses the
   scope — the query is solved hint-seeded without a warm start, exactly
   the cache-only path —
   unless the session has been bypassing for a while, in which case it
   re-anchors: the search has moved for good, pay one full sync so the new
   region becomes the cheap prefix. *)
let max_sync_pushes = 64

let reanchor_after = 16

(* Pop the divergent suffix, push the new one; [`Synced keep] reports the
   number of frames kept.  Frames are compared structurally on the original
   constraints, so the shared lineage prefix of sibling pendings is reused
   verbatim. *)
let sync_or_bypass (s : session) (cs : Expr.t list) : [ `Synced of int | `Bypass ] =
  let scope = s.scope in
  let cur = Scope.constraints scope in
  let rec common n (a : Expr.t list) (b : Expr.t list) =
    match (a, b) with
    | x :: a', y :: b' when x = y -> common (n + 1) a' b'
    | _ -> n
  in
  let keep = common 0 cur cs in
  let pushes = List.length cs - keep in
  if pushes > max_sync_pushes && s.bypasses < reanchor_after then begin
    s.bypasses <- s.bypasses + 1;
    `Bypass
  end
  else begin
    s.bypasses <- 0;
    for _ = 1 to Scope.depth scope - keep do
      Scope.pop scope
    done;
    List.iteri (fun i c -> if i >= keep then Scope.push scope c) cs;
    `Synced keep
  end

(* ------------------------------------------------------------------ *)
(* The solve pipeline *)

let solve (s : session) ?budget ?cache ?(slice = true)
    ?(hint : int -> int option = fun _ -> None) (cs : Expr.t list) :
    Solve.outcome =
  let t = s.incr in
  let vars = Scope.vars s.scope in
  if core_subsumes t ~vars cs then begin
    locked t (fun () -> t.core_pruned <- t.core_pruned + 1);
    Solve.Unsat
  end
  else begin
    locked t (fun () -> t.solver_calls <- t.solver_calls + 1);
    let scs = if slice then Cache.slice_focus cs else cs in
    let mark_incremental () =
      locked t (fun () -> t.incremental <- t.incremental + 1)
    in
    let finish_unsat () =
      (* the slice's Unsat proof is self-contained: it is a core *)
      learn_core t ~vars scs
    in
    (* Only a cache miss touches the scope: a hit needs no solving, and the
       re-sync (pop plus a propagation pass per pushed frame) is the
       expensive half of the call, so paying it on the 95%+ of calls the
       shared cache answers would cost more than the seed solver. *)
    let portfolio_solve ~scoped () =
      let sg = signature ~vars scs in
      let strat = choose_strategy t sg in
      let t0 = Unix.gettimeofday () in
      let r =
        match (strat, scoped) with
        | Interval_first, true -> Scope.solve ?budget ~hint s.scope scs
        | Interval_first, false -> Solve.solve ?budget ~vars ~hint scs
        | Enum_first, scoped ->
            locked t (fun () -> t.enum_first <- t.enum_first + 1);
            if scoped then
              Scope.solve ?budget ~order:`Smallest_dom ~prop_rounds:4 ~hint
                s.scope scs
            else
              Solve.solve ?budget ~order:`Smallest_dom ~prop_rounds:4 ~vars
                ~hint scs
      in
      record_strategy t sg strat (Unix.gettimeofday () -. t0);
      if r = Solve.Unsat then finish_unsat ();
      r
    in
    let solve_fresh () =
      match sync_or_bypass s cs with
      | `Bypass -> portfolio_solve ~scoped:false ()
      | `Synced kept ->
          if kept > 0 then mark_incremental ();
          if Scope.contradiction s.scope then begin
            (match Scope.contra_core s.scope with
            | Some core -> learn_core t ~vars core
            | None -> learn_core t ~vars cs);
            Solve.Unsat
          end
          else portfolio_solve ~scoped:true ()
    in
    match cache with
    | None -> solve_fresh ()
    | Some c -> (
        let p = Cache.prepare ~vars scs in
        match Cache.lookup c p with
        | Some r ->
            locked t (fun () -> t.cache_hits <- t.cache_hits + 1);
            mark_incremental ();
            if r = Solve.Unsat then finish_unsat ();
            r
        | None ->
            let r = solve_fresh () in
            Cache.remember c p r;
            r)
  end

(* ------------------------------------------------------------------ *)

let counters (s : snapshot) : Telemetry.Counters.snapshot =
  Telemetry.Counters.make ~scope:"solver.incr"
    ~gauges:
      [
        ( "incremental_rate",
          if s.solver_calls = 0 then 0.0
          else float_of_int s.incremental /. float_of_int s.solver_calls );
      ]
    [
      ("solver_calls", s.solver_calls);
      ("incremental", s.incremental);
      ("core_pruned", s.core_pruned);
      ("cores_learned", s.cores_learned);
      ("cores_live", s.cores_live);
      ("enum_first", s.enum_first);
      ("cache_hits", s.cache_hits);
    ]
