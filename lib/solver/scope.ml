(** Scoped incremental solving context.

    Concolic exploration solves a *stack* of constraint sets: a child
    pending's conjunction is its parent's plus one flipped branch condition,
    and sibling pendings share their whole lineage prefix.  A [Scope] keeps
    the interval-propagation state of that shared prefix alive between
    queries: each pushed constraint opens a frame that records how it
    narrowed the variable domains (a trail), and popping a frame undoes
    exactly those narrowings.  Re-solving a sibling then costs one push/pop
    of the divergent suffix instead of re-propagating the whole stack from
    scratch.

    Every domain stored here is *implied* by the pushed conjunction — the
    trail only ever records meets driven by pushed constraints — so the
    current domains are always a sound warm start ([Solve.solve ~init_dom])
    for any query over the pushed set or an independence slice of it.

    Contradictions are detected at push time three ways: a constraint that
    simplifies to [Const 0], a structural negation pair against an already
    pushed constraint, and a domain emptied by propagation.  A contradicted
    scope answers [Unsat] without any search.

    Not thread-safe: each worker owns its scope (one per worker of
    {!Concolic.Engine}; a DFS pop extends the worker's previous lineage). *)

type frame = {
  orig : Expr.t;  (** the constraint as pushed, for prefix comparison *)
  cons : Expr.t list;  (** its simplified conjuncts, [] when trivial *)
  mutable trail : (int * Interval.t option) list;
      (** first-write-per-frame previous domains, innermost first *)
  contra_here : bool;  (** this frame made the conjunction unsat *)
  core : Expr.t list;
      (** certified unsat subset of the pushed constraints, when the
          contradiction has a cheap structural witness ([] otherwise) *)
}

type t = {
  vars : Symvars.t;
  doms : (int, Interval.t) Hashtbl.t;  (** current narrowed domains *)
  mutable frames : frame list;  (** innermost first *)
  present : (Expr.t, int) Hashtbl.t;  (** conjunct multiset, for negation pairs *)
  watch : (int, Expr.t list) Hashtbl.t;
      (** var -> live conjuncts mentioning it, for worklist propagation *)
  conj_memo : (Expr.t, Expr.t list option) Hashtbl.t;
      (** push-time simplification, memoized: re-syncing re-pushes the same
          constraints over and over *)
  neg_memo : (Expr.t, Expr.t) Hashtbl.t;  (** simplified negations, ditto *)
  scratch_trail : (int, unit) Hashtbl.t;
      (** per-push first-write set, reused across pushes — a scope is
          worker-private, so one scratch table is safe and keeps the hot
          push path allocation-free *)
  scratch_queue : Expr.t Queue.t;  (** propagation worklist, ditto *)
  mutable contra : int;  (** number of live contradiction frames *)
  mutable pushes : int;
  mutable pops : int;
}

let create ~vars () =
  {
    vars;
    doms = Hashtbl.create 64;
    frames = [];
    present = Hashtbl.create 64;
    watch = Hashtbl.create 64;
    conj_memo = Hashtbl.create 64;
    neg_memo = Hashtbl.create 64;
    scratch_trail = Hashtbl.create 16;
    scratch_queue = Queue.create ();
    contra = 0;
    pushes = 0;
    pops = 0;
  }

let vars t = t.vars
let depth t = List.length t.frames
let contradiction t = t.contra > 0
let pushes t = t.pushes
let pops t = t.pops

let base_dom t v : Interval.t =
  let d = Symvars.domain t.vars v in
  Interval.of_bounds d.Symvars.lo d.Symvars.hi

let dom_of t v =
  match Hashtbl.find_opt t.doms v with
  | Some i -> i
  | None -> base_dom t v

(* Warm-start view for {!Solve.solve}: only variables the scope actually
   narrowed — everything else falls back to the registry domain anyway. *)
let init_dom t v = Hashtbl.find_opt t.doms v

let constraints t = List.rev_map (fun f -> f.orig) t.frames

let multiset_add tbl c =
  Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))

let multiset_remove tbl c =
  match Hashtbl.find_opt tbl c with
  | Some 1 -> Hashtbl.remove tbl c
  | Some n -> Hashtbl.replace tbl c (n - 1)
  | None -> ()

let watch_add t (c : Expr.t) =
  List.iter
    (fun v ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.watch v) in
      Hashtbl.replace t.watch v (c :: cur))
    (Expr.vars c)

let watch_remove t (c : Expr.t) =
  List.iter
    (fun v ->
      match Hashtbl.find_opt t.watch v with
      | None -> ()
      | Some l ->
          let rec drop = function
            | [] -> []
            | x :: r -> if x = c then r else x :: drop r
          in
          Hashtbl.replace t.watch v (drop l))
    (Expr.vars c)

(* Worklist propagation: the pre-push domains are already a fixpoint of the
   outer frames, so only the new conjuncts — and, transitively, the live
   conjuncts watching a domain they actually narrow — need a visit.  This
   keeps a push O(affected constraints) instead of O(scope depth), which is
   what makes re-syncing a deep sibling suffix cheaper than re-propagating
   the whole stack.  The visit cap bounds pathological chains; stopping
   early is sound (domains merely stay wider). *)
let max_visits = 200

let propagate t ~(seeds : Expr.t list) (frame_trail : (int, unit) Hashtbl.t)
    trail_acc =
  let contra = ref false in
  let dom_of v = dom_of t v in
  let queue = t.scratch_queue in
  Queue.clear queue;
  List.iter (fun c -> Queue.add c queue) seeds;
  let touched = ref [] in
  let set_dom v i =
    let old = dom_of v in
    if not (Interval.equal old i) then begin
      if not (Hashtbl.mem frame_trail v) then begin
        Hashtbl.replace frame_trail v ();
        trail_acc := (v, Hashtbl.find_opt t.doms v) :: !trail_acc
      end;
      Hashtbl.replace t.doms v i;
      if Interval.is_empty i then contra := true;
      touched := v :: !touched
    end
  in
  let visits = ref 0 in
  while (not !contra) && (not (Queue.is_empty queue)) && !visits < max_visits do
    incr visits;
    let c = Queue.pop queue in
    touched := [];
    Solve.narrow dom_of set_dom c;
    (match Interval.eval dom_of c with
    | i when Interval.is_empty i -> contra := true
    | i when i.lo = 0 && i.hi = 0 -> contra := true
    | _ -> ());
    if not !contra then
      List.iter
        (fun v ->
          match Hashtbl.find_opt t.watch v with
          | Some cs ->
              List.iter (fun c' -> if c' != c then Queue.add c' queue) cs
          | None -> ())
        !touched
  done;
  !contra

let push t (c : Expr.t) =
  t.pushes <- t.pushes + 1;
  let trail_acc = ref [] in
  let frame_trail = t.scratch_trail in
  Hashtbl.clear frame_trail;
  let finish ~cons ~contra_here ~core =
    List.iter (multiset_add t.present) cons;
    if contra_here then t.contra <- t.contra + 1;
    t.frames <-
      { orig = c; cons; trail = !trail_acc; contra_here; core } :: t.frames
  in
  if t.contra > 0 then
    (* already unsat: record the frame for pop symmetry, skip the work *)
    finish ~cons:[] ~contra_here:false ~core:[]
  else
    let conjuncts_of c =
      match Hashtbl.find_opt t.conj_memo c with
      | Some r -> r
      | None ->
          let r = Simplify.conjuncts [ c ] in
          Hashtbl.replace t.conj_memo c r;
          r
    in
    let negation_of cn =
      match Hashtbl.find_opt t.neg_memo cn with
      | Some n -> n
      | None ->
          let n = Simplify.simplify (Expr.negate cn) in
          Hashtbl.replace t.neg_memo cn n;
          n
    in
    match conjuncts_of c with
    | None ->
        (* [c] alone is false: a one-constraint core *)
        finish ~cons:[] ~contra_here:true ~core:[ c ]
    | Some [] -> finish ~cons:[] ~contra_here:false ~core:[]
    | Some cons ->
        (* structural negation pair: the partner frame plus this constraint
           form a certified two-constraint core *)
        let neg_partner =
          List.find_map
            (fun cn ->
              let neg = negation_of cn in
              if Hashtbl.mem t.present neg then
                List.find_map
                  (fun f -> if List.mem neg f.cons then Some f.orig else None)
                  t.frames
              else None)
            cons
        in
        match neg_partner with
        | Some partner ->
            List.iter (watch_add t) cons;
            finish ~cons ~contra_here:true ~core:[ partner; c ]
        | None ->
            (* watches first, so a new conjunct re-enters the worklist when
               a sibling seed narrows one of its variables *)
            List.iter (watch_add t) cons;
            let contra = propagate t ~seeds:cons frame_trail trail_acc in
            finish ~cons ~contra_here:contra ~core:[]

let pop t =
  match t.frames with
  | [] -> invalid_arg "Scope.pop: empty scope"
  | f :: rest ->
      t.pops <- t.pops + 1;
      t.frames <- rest;
      List.iter (multiset_remove t.present) f.cons;
      List.iter (watch_remove t) f.cons;
      if f.contra_here then t.contra <- t.contra - 1;
      List.iter
        (fun (v, prev) ->
          match prev with
          | Some i -> Hashtbl.replace t.doms v i
          | None -> Hashtbl.remove t.doms v)
        f.trail

let pop_all t =
  while t.frames <> [] do
    pop t
  done

(* A certified small unsat subset of the pushed constraints, when some live
   contradiction frame has a structural witness (trivially-false constraint
   or negation pair).  Propagation-detected contradictions carry no small
   witness; callers fall back to whole-set learning. *)
let contra_core t =
  List.find_map
    (fun f -> if f.contra_here && f.core <> [] then Some f.core else None)
    t.frames

(** Solve [cs] — the pushed conjunction or an independence slice of it —
    reusing the scope's propagated domains as a warm start.  A contradicted
    scope answers [Unsat] immediately.  Verdicts agree with a from-scratch
    {!Solve.solve} (enforced by fuzz oracle 8); models may differ. *)
let solve ?budget ?order ?prop_rounds ?hint t (cs : Expr.t list) :
    Solve.outcome =
  if contradiction t then Solve.Unsat
  else
    Solve.solve ?budget ~init_dom:(init_dom t) ?order ?prop_rounds
      ~vars:t.vars ?hint cs
