(** Constraint solving: satisfiability and model construction.

    A home-grown solver in the spirit of the paper's home-grown concolic
    engine [Crameri 2009].  Pipeline: structural simplification, interval
    propagation to a fixpoint, then backtracking search with forward
    checking.  The search tries the caller-supplied hint first — this is the
    concolic trick that makes most queries trivial, because the previous
    run's input already satisfies all but the negated constraint. *)

type outcome = Sat of Model.t | Unsat | Unknown

type budget = {
  max_nodes : int;  (** backtracking nodes before giving up *)
  max_enum : int;  (** largest domain enumerated exhaustively *)
}

let default_budget = { max_nodes = 400_000; max_enum = 4096 }

(* ------------------------------------------------------------------ *)
(* Interval propagation *)

(* Try to view [e] as [v + k]: returns (v, k). *)
let rec as_var_plus_const (e : Expr.t) : (int * int) option =
  match e with
  | Expr.Var v -> Some (v, 0)
  | Expr.Binop (Expr.Add, a, Expr.Const c) ->
      Option.map (fun (v, k) -> (v, k + c)) (as_var_plus_const a)
  | Expr.Binop (Expr.Add, Expr.Const c, a) ->
      Option.map (fun (v, k) -> (v, k + c)) (as_var_plus_const a)
  | Expr.Binop (Expr.Sub, a, Expr.Const c) ->
      Option.map (fun (v, k) -> (v, k - c)) (as_var_plus_const a)
  | _ -> None

(* Tighten [dom] for the constraint [e ≠ 0] (i.e. the constraint holds). *)
let narrow dom_of set_dom (c : Expr.t) =
  let tighten v (i : Interval.t) =
    let cur = dom_of v in
    set_dom v (Interval.meet cur i)
  in
  let exclude v n =
    let cur : Interval.t = dom_of v in
    if cur.lo = cur.hi && cur.lo = n then set_dom v Interval.empty
    else if cur.lo = n then set_dom v (Interval.of_bounds (n + 1) cur.hi)
    else if cur.hi = n then set_dom v (Interval.of_bounds cur.lo (n - 1))
  in
  let ienv v = dom_of v in
  let apply_cmp op lhs rhs =
    (* lhs op rhs must hold; refine a variable on either side. *)
    let ir = Interval.eval ienv rhs in
    let il = Interval.eval ienv lhs in
    (match as_var_plus_const lhs with
    | Some (v, k) when not (Interval.is_empty ir) -> (
        (* v + k op [ir.lo, ir.hi] *)
        match op with
        | Expr.Eq -> tighten v (Interval.of_bounds (ir.lo - k) (ir.hi - k))
        | Expr.Le -> tighten v (Interval.of_bounds Interval.clamp_lo (ir.hi - k))
        | Expr.Lt ->
            tighten v (Interval.of_bounds Interval.clamp_lo (ir.hi - 1 - k))
        | Expr.Ge -> tighten v (Interval.of_bounds (ir.lo - k) Interval.clamp_hi)
        | Expr.Gt ->
            tighten v (Interval.of_bounds (ir.lo + 1 - k) Interval.clamp_hi)
        | Expr.Ne -> if ir.lo = ir.hi then exclude v (ir.lo - k)
        | _ -> ())
    | _ -> ());
    match as_var_plus_const rhs with
    | Some (v, k) when not (Interval.is_empty il) -> (
        (* il op (v + k), flip the comparison *)
        match op with
        | Expr.Eq -> tighten v (Interval.of_bounds (il.lo - k) (il.hi - k))
        | Expr.Ge -> tighten v (Interval.of_bounds Interval.clamp_lo (il.hi - k))
        | Expr.Gt ->
            tighten v (Interval.of_bounds Interval.clamp_lo (il.hi - 1 - k))
        | Expr.Le -> tighten v (Interval.of_bounds (il.lo - k) Interval.clamp_hi)
        | Expr.Lt ->
            tighten v (Interval.of_bounds (il.lo + 1 - k) Interval.clamp_hi)
        | Expr.Ne -> if il.lo = il.hi then exclude v (il.lo - k)
        | _ -> ())
    | _ -> ()
  in
  match c with
  | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), a, b)
    ->
      apply_cmp op a b
  | Expr.Var v -> exclude v 0
  | Expr.Unop (Expr.Lognot, Expr.Var v) -> tighten v (Interval.of_const 0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Equality propagation: var-var equalities (pervasive in byte-comparison
   chains like diff's line matching) are solved by union-find and
   substitution, so the backtracking search only sees representatives. *)

module Uf = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let rec find (t : t) v =
    match Hashtbl.find_opt t v with
    | None -> v
    | Some p ->
        let r = find t p in
        if r <> p then Hashtbl.replace t v r;
        r

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t (max ra rb) (min ra rb)
end

(* Substitute each variable by its representative. *)
let rec subst_repr uf (e : Expr.t) : Expr.t =
  match e with
  | Expr.Var v ->
      let r = Uf.find uf v in
      if r = v then e else Expr.Var r
  | Expr.Const _ -> e
  | Expr.Unop (op, a) -> Expr.Unop (op, subst_repr uf a)
  | Expr.Binop (op, a, b) -> Expr.Binop (op, subst_repr uf a, subst_repr uf b)

exception Found of Model.t

let solve ?(budget = default_budget) ~(vars : Symvars.t)
    ?(hint : int -> int option = fun _ -> None) (constraints : Expr.t list) :
    outcome =
  match Simplify.conjuncts constraints with
  | None -> Unsat
  | Some [] -> Sat Model.empty
  | Some cs -> (
      (* Loop-heavy traces repeat the same constraint thousands of times;
         dedupe — order-preserving, because path order groups the variables
         each constraint couples and the search order below relies on it. *)
      let cs =
        let seen = Hashtbl.create 256 in
        List.filter
          (fun c ->
            if Hashtbl.mem seen c then false
            else begin
              Hashtbl.replace seen c ();
              true
            end)
          cs
      in
      (* union-find over plain var-var equalities, then substitute
         representatives and re-simplify (Ne over a merged class becomes a
         trivial contradiction) *)
      let uf = Uf.create () in
      let eq_members = Hashtbl.create 32 in
      List.iter
        (fun c ->
          match c with
          | Expr.Binop (Expr.Eq, Expr.Var a, Expr.Var b) ->
              Hashtbl.replace eq_members a ();
              Hashtbl.replace eq_members b ();
              Uf.union uf a b
          | _ -> ())
        cs;
      let cs =
        if Hashtbl.length eq_members = 0 then cs
        else
          List.filter_map
            (fun c ->
              match Simplify.simplify (subst_repr uf c) with
              | Expr.Const 0 -> Some (Expr.Const 0) (* keep: contradiction *)
              | Expr.Const _ -> None
              | c -> Some c)
            cs
      in
      (* substitution can expose a contradiction (x == y with x != y) *)
      if List.exists (fun c -> c = Expr.Const 0) cs then Unsat
      else if
        (* negation pairs: a loop re-checks the same condition with unchanged
           operands, so a conjunction often contains both [c] and [not c]
           verbatim (e.g. a log-forced direction against an earlier pinned
           occurrence).  The search cannot *prove* this unsat cheaply, so
           detect it structurally. *)
        let seen = Hashtbl.create 64 in
        List.iter (fun c -> Hashtbl.replace seen c ()) cs;
        List.exists (fun c -> Hashtbl.mem seen (Simplify.simplify (Expr.negate c))) cs
      then Unsat
      else begin
      (* class representatives take the meet of their members' domains *)
      let class_dom = Hashtbl.create 32 in
      Hashtbl.iter
        (fun v () ->
          let r = Uf.find uf v in
          let d = Symvars.domain vars v in
          let i = Interval.of_bounds d.lo d.hi in
          let cur =
            match Hashtbl.find_opt class_dom r with
            | Some c -> Interval.meet c i
            | None -> i
          in
          Hashtbl.replace class_dom r cur)
        eq_members;
      (* variables in order of first occurrence along the path: coupled
         variables end up adjacent, so forward checking prunes early *)
      let var_ids =
        let seen = Hashtbl.create 256 in
        List.concat_map Expr.vars cs
        |> List.filter (fun v ->
               if Hashtbl.mem seen v then false
               else begin
                 Hashtbl.replace seen v ();
                 true
               end)
      in
      let doms = Hashtbl.create 64 in
      List.iter
        (fun v ->
          let dom =
            match Hashtbl.find_opt class_dom v with
            | Some i -> i
            | None ->
                let d = Symvars.domain vars v in
                Interval.of_bounds d.lo d.hi
          in
          Hashtbl.replace doms v dom)
        var_ids;
      let dom_of v =
        match Hashtbl.find_opt doms v with Some i -> i | None -> Interval.top
      in
      (* intervals for repeated complex subexpressions compared against
         constants: catches contradictions like [e <= 5] with [e > 9] that
         neither per-variable propagation nor structural negation-pairing
         sees (e.g. an atoi result checked in a loop) *)
      let edoms : (Expr.t, Interval.t) Hashtbl.t = Hashtbl.create 32 in
      let contradiction = ref false in
      let tighten_expr e (i : Interval.t) =
        match e with
        | Expr.Var _ | Expr.Const _ -> ()
        | _ ->
            let cur =
              match Hashtbl.find_opt edoms e with
              | Some c -> c
              | None -> Interval.top
            in
            let next = Interval.meet cur i in
            Hashtbl.replace edoms e next;
            if Interval.is_empty next then contradiction := true
      in
      List.iter
        (fun c ->
          match c with
          | Expr.Binop (op, e, Expr.Const k) -> (
              match op with
              | Expr.Eq -> tighten_expr e (Interval.of_const k)
              | Expr.Lt -> tighten_expr e (Interval.of_bounds Interval.clamp_lo (k - 1))
              | Expr.Le -> tighten_expr e (Interval.of_bounds Interval.clamp_lo k)
              | Expr.Gt -> tighten_expr e (Interval.of_bounds (k + 1) Interval.clamp_hi)
              | Expr.Ge -> tighten_expr e (Interval.of_bounds k Interval.clamp_hi)
              | _ -> ())
          | Expr.Binop (op, Expr.Const k, e) -> (
              match op with
              | Expr.Eq -> tighten_expr e (Interval.of_const k)
              | Expr.Gt -> tighten_expr e (Interval.of_bounds Interval.clamp_lo (k - 1))
              | Expr.Ge -> tighten_expr e (Interval.of_bounds Interval.clamp_lo k)
              | Expr.Lt -> tighten_expr e (Interval.of_bounds (k + 1) Interval.clamp_hi)
              | Expr.Le -> tighten_expr e (Interval.of_bounds k Interval.clamp_hi)
              | _ -> ())
          | _ -> ())
        cs;
      let changed = ref true in
      let set_dom v i =
        let old = dom_of v in
        if not (Interval.equal old i) then begin
          changed := true;
          Hashtbl.replace doms v i;
          if Interval.is_empty i then contradiction := true
        end
      in
      (* propagation to fixpoint (bounded rounds) *)
      let rounds = ref 0 in
      while !changed && (not !contradiction) && !rounds < 30 do
        changed := false;
        incr rounds;
        List.iter
          (fun c ->
            narrow dom_of set_dom c;
            match Interval.eval dom_of c with
            | i when Interval.is_empty i -> contradiction := true
            | i when i.lo = 0 && i.hi = 0 -> contradiction := true
            | _ -> ())
          cs
      done;
      if !contradiction then Unsat
      else begin
        (* variable order: singleton domains first (free), then first
           occurrence along the path (keeps coupled variables adjacent) *)
        let singles, rest =
          List.partition (fun v -> Interval.size (dom_of v) <= 1) var_ids
        in
        let order = Array.of_list (singles @ rest) in
        let nvars = Array.length order in
        let pos_of = Hashtbl.create 16 in
        Array.iteri (fun i v -> Hashtbl.replace pos_of v i) order;
        (* constraints indexed by the position of their last-assigned var *)
        let by_last = Array.make (max nvars 1) [] in
        List.iter
          (fun c ->
            match Expr.vars c with
            | [] -> () (* constant: already handled by simplify *)
            | vs ->
                let last =
                  List.fold_left (fun m v -> max m (Hashtbl.find pos_of v)) 0 vs
                in
                by_last.(last) <- c :: by_last.(last))
          cs;
        let assigned = Hashtbl.create 16 in
        let env v =
          match Hashtbl.find_opt assigned v with
          | Some x -> x
          | None -> raise Not_found
        in
        let check_at pos =
          List.for_all
            (fun c ->
              match Expr.eval env c with
              | n -> n <> 0
              | exception Expr.Undefined -> false)
            by_last.(pos)
        in
        (* conflict-directed backjumping: when no value works at a position,
           jump to the deepest *relevant* earlier position (a variable of
           some constraint checked here) instead of re-enumerating
           unconstrained intermediates *)
        let jump_of = Array.make (max nvars 1) (-1) in
        List.iter
          (fun c ->
            match Expr.vars c with
            | [] -> ()
            | vs ->
                let ps = List.map (fun v -> Hashtbl.find pos_of v) vs in
                let last = List.fold_left max 0 ps in
                let second =
                  List.fold_left (fun m p -> if p < last then max m p else m) (-1) ps
                in
                jump_of.(last) <- max jump_of.(last) second)
          cs;
        let nodes = ref 0 in
        let complete = ref true in
        let candidates v =
          let d = dom_of v in
          let base =
            if Interval.size d <= budget.max_enum then
              List.init (Interval.size d) (fun i -> d.lo + i)
            else begin
              complete := false;
              let mid = (d.lo + d.hi) / 2 in
              [ d.lo; 0; 1; mid; d.hi; d.lo + 1; d.hi - 1 ]
              |> List.filter (fun x -> Interval.mem x d)
              |> List.sort_uniq Int.compare
            end
          in
          match hint v with
          | Some h when Interval.mem h d ->
              h :: List.filter (fun x -> x <> h) base
          | _ -> base
        in
        let module Backjump = struct
          exception E of int
        end in
        let rec assign pos =
          if pos = nvars then begin
            let m =
              Array.fold_left
                (fun m v -> Model.add v (Hashtbl.find assigned v) m)
                Model.empty order
            in
            (* extend the model from representatives to all merged vars *)
            let m =
              Hashtbl.fold
                (fun v () m ->
                  let r = Uf.find uf v in
                  if r <> v then
                    match Model.find_opt r m with
                    | Some x -> Model.add v x m
                    | None -> m
                  else m)
                eq_members m
            in
            raise (Found m)
          end
          else begin
            let v = order.(pos) in
            let locally_ok = ref false in
            let rec try_cands = function
              | [] -> ()
              | x :: rest ->
                  incr nodes;
                  if !nodes > budget.max_nodes then begin
                    complete := false;
                    raise Exit
                  end;
                  Hashtbl.replace assigned v x;
                  if check_at pos then begin
                    locally_ok := true;
                    (try assign (pos + 1) with
                    | Backjump.E j when j >= pos -> ()
                    | Backjump.E j ->
                        Hashtbl.remove assigned v;
                        raise (Backjump.E j))
                  end;
                  try_cands rest
            in
            try_cands (candidates v);
            Hashtbl.remove assigned v;
            (* no candidate even passed the local constraints: jump straight
               to the deepest variable those constraints mention *)
            if not !locally_ok then raise (Backjump.E jump_of.(pos))
          end
        in
        let search () = try assign 0 with Backjump.E _ -> () in
        match search () with
        | () -> if !complete then Unsat else Unknown
        | exception Found m -> Sat m
        | exception Exit -> Unknown
      end
      end)
