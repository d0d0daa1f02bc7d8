(** Memoizing solver cache.

    Concolic exploration re-solves heavily overlapping constraint sets:
    sibling pendings share their whole lineage prefix, loop-heavy traces
    repeat the same (deduplicated) conjunction for many negation positions,
    and guided replay restarts re-derive the same forced chains under a
    fresh variable registry.  Following the redundancy-suppression idea of
    time-aware DBI, the cache pays for each distinct conjunction once.

    Keys are *canonicalized* constraint sets: constraints are deduplicated
    (order-preserving) and variables alpha-renamed to 0, 1, 2, … in order of
    first occurrence, with each canonical variable's domain folded into the
    key.  Two alpha-equivalent queries — same structure, same domains,
    different variable ids — therefore hit the same entry, which is what
    makes the cache survive the fresh [Symvars] registry of a replay
    restart.

    Only [Sat] and [Unsat] are memoized.  Both are budget-independent
    ([Unsat] is only ever reported after a complete search), so a hit is
    valid under any budget; [Unknown] depends on the budget and the hint and
    is never cached.  Cached models are stored over canonical variables and
    renamed back on a hit, so a model computed for one sibling serves its
    alpha-equivalent twins.

    The table is bounded (FIFO eviction) and every operation is
    mutex-protected: the cache is shared by all domains of a parallel
    exploration.  A key being solved is marked in flight, so domains that
    miss on it together solve it once: the others wait for the result and
    count as hits. *)

type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  stores : int;
  uncacheable : int;  (** [Unknown] results, never memoized *)
}

(* Canonical form: constraints with variables renamed to first-occurrence
   order, plus the (lo, hi) domain of each canonical variable.  Structural
   equality/hashing of this pair is what the table keys on. *)
type key = { ccs : Expr.t list; cdoms : (int * int) list }

type entry =
  | Sat_c of (int * int) list  (** canonical variable -> value *)
  | Unsat_c

(* A key one domain is solving.  [result] is set when the solve lands:
   [Some] for a stored entry, [None] for [Unknown] or an exception (the
   waiters then solve it themselves). *)
type flight = { mutable landed : bool; mutable result : entry option }

type t = {
  mu : Mutex.t;
  landed : Condition.t;  (** broadcast whenever a flight lands *)
  tbl : (key, entry) Hashtbl.t;
  inflight : (key, flight) Hashtbl.t;
  fifo : key Queue.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stores : int;
  mutable uncacheable : int;
}

let create ?(capacity = 8192) () =
  {
    mu = Mutex.create ();
    landed = Condition.create ();
    tbl = Hashtbl.create 256;
    inflight = Hashtbl.create 16;
    fifo = Queue.create ();
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
    stores = 0;
    uncacheable = 0;
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
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        stores = t.stores; uncacheable = t.uncacheable })

let hit_rate (s : snapshot) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let length t = locked t (fun () -> Hashtbl.length t.tbl)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      Queue.clear t.fifo)

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

(* Rename every variable of [cs] to its first-occurrence index.  Returns the
   canonical constraints, the canonical domains (in canonical order) and the
   inverse renaming (canonical index -> actual id). *)
let canonicalize ~(vars : Symvars.t) (cs : Expr.t list) :
    key * int array * (int, int) Hashtbl.t =
  (* order-preserving dedupe first: loop-heavy traces repeat constraints
     thousands of times, and the key must not depend on the multiplicity *)
  let cs =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun c ->
        if Hashtbl.mem seen c then false
        else begin
          Hashtbl.replace seen c ();
          true
        end)
      cs
  in
  let fwd : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let rev_doms = ref [] in
  let canon v =
    match Hashtbl.find_opt fwd v with
    | Some c -> c
    | None ->
        let c = Hashtbl.length fwd in
        Hashtbl.replace fwd v c;
        let d = Symvars.domain vars v in
        rev_doms := (d.Symvars.lo, d.Symvars.hi) :: !rev_doms;
        c
  in
  let rec rename (e : Expr.t) : Expr.t =
    match e with
    | Expr.Var v -> Expr.Var (canon v)
    | Expr.Const _ -> e
    | Expr.Unop (op, a) -> Expr.Unop (op, rename a)
    | Expr.Binop (op, a, b) -> Expr.Binop (op, rename a, rename b)
  in
  let ccs = List.map rename cs in
  let n = Hashtbl.length fwd in
  let inv = Array.make n (-1) in
  Hashtbl.iter (fun actual c -> inv.(c) <- actual) fwd;
  ({ ccs; cdoms = List.rev !rev_doms }, inv, fwd)

(* ------------------------------------------------------------------ *)
(* Independence slicing *)

let rec vars_of_expr acc (e : Expr.t) =
  match e with
  | Expr.Var v -> v :: acc
  | Expr.Const _ -> acc
  | Expr.Unop (_, a) -> vars_of_expr acc a
  | Expr.Binop (_, a, b) -> vars_of_expr (vars_of_expr acc a) b

(* Keep only the constraints transitively connected to the *last* one (the
   focus — the negated / forced constraint of a pending) through shared
   variables.  Classic constraint-independence optimisation: the dropped
   components share no variable with the slice, so any model of the slice
   extends to the full set with values that already satisfied them. *)
let slice_focus (cs : Expr.t list) : Expr.t list =
  match cs with
  | [] | [ _ ] -> cs
  | _ ->
      let arr = Array.of_list cs in
      let n = Array.length arr in
      (* union-find over constraint indices, linked via shared variables *)
      let parent = Array.init n Fun.id in
      let rec find i =
        if parent.(i) = i then i
        else begin
          let r = find parent.(i) in
          parent.(i) <- r;
          r
        end
      in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      in
      let owner : (int, int) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun i c ->
          List.iter
            (fun v ->
              match Hashtbl.find_opt owner v with
              | Some j -> union i j
              | None -> Hashtbl.replace owner v i)
            (vars_of_expr [] c))
        arr;
      let root = find (n - 1) in
      let out = ref [] in
      for i = n - 1 downto 0 do
        if find i = root then out := arr.(i) :: !out
      done;
      !out

(* ------------------------------------------------------------------ *)
(* Lookup / store *)

(* Called with [t.mu] held. *)
let store t key entry =
  while Hashtbl.length t.tbl >= t.capacity && not (Queue.is_empty t.fifo) do
    let victim = Queue.pop t.fifo in
    if Hashtbl.mem t.tbl victim then begin
      Hashtbl.remove t.tbl victim;
      t.evictions <- t.evictions + 1
    end
  done;
  Hashtbl.replace t.tbl key entry;
  Queue.push key t.fifo;
  t.stores <- t.stores + 1

(* A stored entry ([`Hit]), or the caller's own flight for a key it must
   solve ([`Miss]).  A key another domain is solving is waited for: its
   entry is a hit; a flight that lands empty is claimed again.  Called with
   [t.mu] held. *)
let rec claim t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      `Hit e
  | None -> (
      match Hashtbl.find_opt t.inflight key with
      | Some f -> (
          while not f.landed do
            Condition.wait t.landed t.mu
          done;
          match f.result with
          | Some e ->
              t.hits <- t.hits + 1;
              `Hit e
          | None -> claim t key)
      | None ->
          let f = { landed = false; result = None } in
          Hashtbl.replace t.inflight key f;
          t.misses <- t.misses + 1;
          `Miss f)

(* Land the caller's flight with [result] (stored when [Some]) and wake the
   waiters. *)
let settle t key f result =
  locked t (fun () ->
      Option.iter (store t key) result;
      f.result <- result;
      f.landed <- true;
      Hashtbl.remove t.inflight key;
      Condition.broadcast t.landed)

let outcome_of ~inv = function
  | Unsat_c -> Solve.Unsat
  | Sat_c pairs ->
      Solve.Sat
        (List.fold_left (fun m (c, v) -> Model.add inv.(c) v m) Model.empty pairs)

let entry_of ~fwd (r : Solve.outcome) =
  match r with
  | Solve.Sat m ->
      Some
        (Sat_c
           (Hashtbl.fold
              (fun actual c acc ->
                match Model.find_opt actual m with
                | Some v -> (c, v) :: acc
                | None -> acc)
              fwd []))
  | Solve.Unsat -> Some Unsat_c
  | Solve.Unknown -> None

(** Drop-in replacement for {!Solve.solve} that consults the cache first.
    On a [Sat] hit the cached model is renamed from canonical variables back
    to the query's variables; it satisfies the conjunction but may differ
    from the model a fresh hint-seeded search would have produced (any model
    is equally valid to the exploration engine, which re-executes with it).
    The exploration engine hands it a pending's slice (see {!slice_focus}),
    not the whole constraint set. *)
let solve t ?budget ?(telemetry = Telemetry.disabled) ~(vars : Symvars.t)
    ?(hint : int -> int option = fun _ -> None) (cs : Expr.t list) :
    Solve.outcome =
  (* the paper's overhead axis also applies to the observation layer: the
     split below is recorded per call, but each record is two clock reads
     and an atomic add — nothing on the canonicalization path changes *)
  let t0 = if Telemetry.enabled telemetry then Telemetry.now telemetry else 0.0 in
  let record kind =
    if Telemetry.enabled telemetry then begin
      Telemetry.Metrics.incr_named telemetry ("solver.cache." ^ kind);
      Telemetry.Metrics.observe telemetry
        ("solver.cache." ^ kind ^ "_s")
        (Telemetry.now telemetry -. t0)
    end
  in
  let key, inv, fwd = canonicalize ~vars cs in
  match locked t (fun () -> claim t key) with
  | `Hit e ->
      record "hit";
      outcome_of ~inv e
  | `Miss f ->
      let r =
        try Solve.solve ?budget ~vars ~hint cs
        with e ->
          settle t key f None;
          raise e
      in
      record "miss_solve";
      let entry = entry_of ~fwd r in
      settle t key f entry;
      if Option.is_none entry then
        locked t (fun () -> t.uncacheable <- t.uncacheable + 1);
      r

(* ------------------------------------------------------------------ *)

(** The {!snapshot} in the unified counter view (scope ["solver.cache"]).
    The record stays for the bench tables; generic consumers (CLI
    [--metrics], traces, tests) read this. *)
let counters (s : snapshot) : Telemetry.Counters.snapshot =
  Telemetry.Counters.make ~scope:"solver.cache"
    ~gauges:[ ("hit_rate", hit_rate s) ]
    [
      ("hits", s.hits); ("misses", s.misses); ("evictions", s.evictions);
      ("stores", s.stores); ("uncacheable", s.uncacheable);
    ]
