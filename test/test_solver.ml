(* Tests for the constraint solver: expressions, simplifier, intervals,
   model search — including soundness properties under QCheck. *)

open Solver

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_vars n =
  let vars = Symvars.create () in
  let ids =
    List.init n (fun i ->
        Symvars.lookup vars ~name:(Printf.sprintf "b%d" i) ~dom:Symvars.byte_domain)
  in
  (vars, ids)

let v i = Expr.Var i
let c n = Expr.Const n
let ( ==. ) a b = Expr.Binop (Expr.Eq, a, b)
let ( <>. ) a b = Expr.Binop (Expr.Ne, a, b)
let ( <. ) a b = Expr.Binop (Expr.Lt, a, b)
let ( >. ) a b = Expr.Binop (Expr.Gt, a, b)
let ( +. ) a b = Expr.Binop (Expr.Add, a, b)

(* ------------------------------------------------------------------ *)
(* Expr *)

let test_expr_eval () =
  let e = Expr.Binop (Expr.Mul, c 3, Expr.Binop (Expr.Add, v 0, c 1)) in
  check_int "3*(x+1) at x=4" 15 (Expr.eval (fun _ -> 4) e)

let test_expr_eval_undefined () =
  let e = Expr.Binop (Expr.Div, c 1, v 0) in
  match Expr.eval (fun _ -> 0) e with
  | exception Expr.Undefined -> ()
  | _ -> Alcotest.fail "expected Undefined"

let test_expr_vars () =
  let e = (v 3 +. v 1) ==. (v 3 +. c 2) in
  Alcotest.(check (list int)) "vars" [ 1; 3 ] (Expr.vars e)

let test_expr_negate_involution_semantics () =
  let e = v 0 <. c 5 in
  let ne = Expr.negate e in
  check_bool "negation flips truth" true
    (Expr.eval (fun _ -> 3) e <> 0 && Expr.eval (fun _ -> 3) ne = 0)

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_folds () =
  let e = Expr.Binop (Expr.Add, c 2, c 3) in
  check_bool "2+3 -> 5" true (Simplify.simplify e = c 5)

let test_simplify_identities () =
  check_bool "x+0" true (Simplify.simplify (v 0 +. c 0) = v 0);
  check_bool "x-x" true
    (Simplify.simplify (Expr.Binop (Expr.Sub, v 0, v 0)) = c 0);
  check_bool "(x+2)==5 -> x==3" true
    (Simplify.simplify ((v 0 +. c 2) ==. c 5) = (v 0 ==. c 3))

let test_simplify_lognot_pushes () =
  let e = Expr.Unop (Expr.Lognot, v 0 <. c 5) in
  check_bool "!(x<5) -> x>=5" true
    (Simplify.simplify e = Expr.Binop (Expr.Ge, v 0, c 5))

let test_conjuncts () =
  match Simplify.conjuncts [ Expr.Binop (Expr.Land, v 0 <. c 5, v 1 >. c 2); c 1 ] with
  | Some cs -> check_int "two conjuncts" 2 (List.length cs)
  | None -> Alcotest.fail "should be satisfiable"

let test_conjuncts_false () =
  check_bool "0 conjunct -> None" true (Simplify.conjuncts [ c 0 ] = None)

(* ------------------------------------------------------------------ *)
(* Interval *)

let test_interval_ops () =
  let open Interval in
  let i = add (of_bounds 1 3) (of_bounds 10 20) in
  check_int "add lo" 11 i.lo;
  check_int "add hi" 23 i.hi;
  let m = mul (of_bounds (-2) 3) (of_bounds 4 5) in
  check_int "mul lo" (-10) m.lo;
  check_int "mul hi" 15 m.hi;
  check_bool "meet empty" true (is_empty (meet (of_bounds 0 1) (of_bounds 5 9)))

let test_interval_eval_decides () =
  let env _ = Interval.of_bounds 0 255 in
  let e = v 0 <. c 300 in
  let r = Interval.eval env e in
  check_int "always true" 1 r.lo;
  let e2 = v 0 >. c 300 in
  let r2 = Interval.eval env e2 in
  check_int "always false" 0 r2.hi

(* ------------------------------------------------------------------ *)
(* Solve *)

let solve ?hint vars cs = Solve.solve ~vars ?hint cs

let test_solve_simple_eq () =
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  match solve vars [ v x ==. c 47 ] with
  | Solve.Sat m -> check_int "x=47" 47 (Option.get (Model.find_opt x m))
  | _ -> Alcotest.fail "expected sat"

let test_solve_conjunction () =
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  let cs = [ v x >. c 10; v x <. c 13; v y ==. (v x +. c 1) ] in
  match solve vars cs with
  | Solve.Sat m ->
      let xv = Option.get (Model.find_opt x m) in
      let yv = Option.get (Model.find_opt y m) in
      check_bool "x in range" true (xv > 10 && xv < 13);
      check_int "y = x+1" (xv + 1) yv
  | _ -> Alcotest.fail "expected sat"

let test_solve_unsat () =
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  match solve vars [ v x <. c 5; v x >. c 10 ] with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solve_unsat_byte_domain () =
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  (* no byte is 300 *)
  match solve vars [ v x ==. c 300 ] with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_solve_ne_chain () =
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  let cs = List.init 255 (fun i -> v x <>. c i) in
  match solve vars cs with
  | Solve.Sat m -> check_int "only 255 left" 255 (Option.get (Model.find_opt x m))
  | _ -> Alcotest.fail "expected sat"

let test_solve_hint_preferred () =
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  let hint id = if id = x then Some 99 else None in
  match solve ~hint vars [ v x >. c 50 ] with
  | Solve.Sat m -> check_int "hint kept" 99 (Option.get (Model.find_opt x m))
  | _ -> Alcotest.fail "expected sat"

let test_solve_string_match () =
  (* the classic concolic benchmark: make bytes spell "GET " *)
  let vars, ids = mk_vars 4 in
  let target = [ 71; 69; 84; 32 ] in
  let cs = List.map2 (fun id ch -> v id ==. c ch) ids target in
  match solve vars cs with
  | Solve.Sat m ->
      List.iter2
        (fun id ch -> check_int "byte" ch (Option.get (Model.find_opt id m)))
        ids target
  | _ -> Alcotest.fail "expected sat"

let test_solve_empty () =
  let vars, _ = mk_vars 0 in
  match solve vars [] with
  | Solve.Sat m -> check_int "empty model" 0 (Model.cardinal m)
  | _ -> Alcotest.fail "expected sat"

let test_solve_strict_logic () =
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  let cs = [ Expr.Binop (Expr.Lor, v x ==. c 1, v y ==. c 2); v x <>. c 1 ] in
  match solve vars cs with
  | Solve.Sat m -> check_int "y forced" 2 (Option.get (Model.find_opt y m))
  | _ -> Alcotest.fail "expected sat"

(* ------------------------------------------------------------------ *)
(* Equality propagation, backjumping, structural unsat detection *)

let test_solve_equality_chain () =
  let vars, ids = mk_vars 4 in
  let a = List.nth ids 0 and b = List.nth ids 1 and c2 = List.nth ids 2
  and d = List.nth ids 3 in
  let cs = [ v a ==. v b; v b ==. v c2; v c2 ==. v d; v d ==. c 77 ] in
  match solve vars cs with
  | Solve.Sat m ->
      List.iter
        (fun id -> check_int "chained equality" 77 (Option.get (Model.find_opt id m)))
        [ a; b; c2; d ]
  | _ -> Alcotest.fail "expected sat"

let test_solve_equality_contradiction () =
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  match solve vars [ v x ==. v y; v x <>. v y ] with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat (x==y && x!=y)"

let test_solve_offset_cancellation () =
  (* (x+32) == (y+32) must merge x and y via the simplifier *)
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  let cs = [ (v x +. c 32) ==. (v y +. c 32); v x ==. c 9 ] in
  match solve vars cs with
  | Solve.Sat m -> check_int "y follows x" 9 (Option.get (Model.find_opt y m))
  | _ -> Alcotest.fail "expected sat"

let test_solve_negation_pair_unsat () =
  (* a complex shared subexpression bounded both ways: e <= 5 and e > 9 *)
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  let e = Expr.Binop (Expr.Add, Expr.Binop (Expr.Mul, v x, c 10), v y) in
  let cs = [ Expr.Binop (Expr.Le, e, c 5); Expr.Binop (Expr.Gt, e, c 9) ] in
  match solve vars cs with
  | Solve.Unsat -> ()
  | Solve.Unknown -> Alcotest.fail "should be detected, not Unknown"
  | Solve.Sat _ -> Alcotest.fail "expected unsat"

let test_solve_backjump_over_unconstrained () =
  (* many unconstrained variables sit between the two coupled ones; without
     backjumping the search enumerates their cross product *)
  let vars, ids = mk_vars 12 in
  let first = List.hd ids and last = List.nth ids 11 in
  (* touch every var so they all enter the search *)
  let touch = List.map (fun id -> Expr.Binop (Expr.Ge, v id, c 0)) ids in
  let cs = touch @ [ (v first +. v last) ==. c 510 ] in
  (* a node blow-up would exhaust this budget and answer Unknown *)
  let budget = { Solve.default_budget with max_nodes = 100_000 } in
  match Solve.solve ~budget ~vars cs with
  | Solve.Sat m ->
      check_int "coupled sum" 510
        (Option.get (Model.find_opt first m) + Option.get (Model.find_opt last m))
  | _ -> Alcotest.fail "expected sat within 100k nodes"

(* ------------------------------------------------------------------ *)
(* QCheck properties *)

let gen_sexpr nvars : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Expr.Var i) (int_range 0 (nvars - 1));
                map (fun i -> Expr.Const i) (int_range (-20) 260);
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map (fun i -> Expr.Const i) (int_range (-20) 260);
                map2
                  (fun op (a, b) -> Expr.Binop (op, a, b))
                  (oneofl
                     Expr.
                       [
                         Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; Land;
                         Lor; Band; Bor; Bxor;
                       ])
                  (pair sub sub);
                map2
                  (fun op a -> Expr.Unop (op, a))
                  (oneofl Expr.[ Neg; Lognot; Bitnot ])
                  sub;
              ])
        n)

let eval_opt env e = match Expr.eval env e with x -> Some x | exception Expr.Undefined -> None

let prop_simplify_sound =
  QCheck.Test.make ~count:500 ~name:"simplify preserves semantics"
    QCheck.(make (Gen.pair (gen_sexpr 3) (Gen.array_size (Gen.return 3) (Gen.int_range 0 255))))
    (fun (e, env_arr) ->
      let env i = env_arr.(i) in
      let s = Simplify.simplify e in
      eval_opt env e = eval_opt env s
      || eval_opt env e = None (* undefined may simplify to defined *))

let prop_negate_flips =
  QCheck.Test.make ~count:500 ~name:"negate flips truthiness"
    QCheck.(make (Gen.pair (gen_sexpr 3) (Gen.array_size (Gen.return 3) (Gen.int_range 0 255))))
    (fun (e, env_arr) ->
      let env i = env_arr.(i) in
      match eval_opt env e, eval_opt env (Expr.negate e) with
      | Some a, Some b -> (a <> 0) = (b = 0)
      | None, _ | _, None -> true)

let prop_interval_sound =
  QCheck.Test.make ~count:500 ~name:"interval eval contains concrete eval"
    QCheck.(make (Gen.pair (gen_sexpr 3) (Gen.array_size (Gen.return 3) (Gen.int_range 0 255))))
    (fun (e, env_arr) ->
      let cenv i = env_arr.(i) in
      let ienv _ = Interval.of_bounds 0 255 in
      match eval_opt cenv e with
      | None -> true
      | Some x ->
          let i = Interval.eval ienv e in
          Interval.mem x i)

(* comparison-only constraints: solver must find a model that satisfies them *)
let gen_cmp_constraint nvars : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map (fun i -> Expr.Var i) (int_range 0 (nvars - 1));
        map (fun i -> Expr.Const i) (int_range 0 255);
      ]
  in
  map2
    (fun op (a, b) -> Expr.Binop (op, a, b))
    (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ])
    (pair atom atom)

let prop_solver_models_satisfy =
  QCheck.Test.make ~count:200 ~name:"Sat models satisfy all constraints"
    QCheck.(make (Gen.list_size (Gen.int_range 1 6) (gen_cmp_constraint 4)))
    (fun cs ->
      let vars, _ = mk_vars 4 in
      match Solve.solve ~vars cs with
      | Solve.Sat m -> Model.satisfies_all m cs
      | Solve.Unsat | Solve.Unknown -> true)

let prop_solver_unsat_really_unsat =
  (* for 2 byte vars we can exhaustively verify a reported Unsat *)
  QCheck.Test.make ~count:60 ~name:"Unsat verified exhaustively (2 vars)"
    QCheck.(make (Gen.list_size (Gen.int_range 1 4) (gen_cmp_constraint 2)))
    (fun cs ->
      let vars, ids = mk_vars 2 in
      match Solve.solve ~vars cs with
      | Solve.Sat _ | Solve.Unknown -> true
      | Solve.Unsat ->
          let x = List.nth ids 0 and y = List.nth ids 1 in
          let found = ref false in
          for a = 0 to 255 do
            for b = 0 to 255 do
              if not !found then
                if
                  Model.satisfies_all (Model.of_list [ (x, a); (y, b) ]) cs
                then found := true
            done
          done;
          not !found)

(* Golden outcomes: the exact outcome and model of each query, as the
   solver gave them when it built every candidate list eagerly and sized
   its tables for the largest query.  A faster search must still try the
   same candidates in the same order (hint first, then ascending, or the
   probe list past [max_enum]) and count the same nodes, so every model,
   Unknown and node-budget cut stays put; the cache's miss path, which
   hands the solver its deduplicated slice, must agree too. *)

let ( *. ) a b = Expr.Binop (Expr.Mul, a, b)
let ( >=. ) a b = Expr.Binop (Expr.Ge, a, b)
let ( <=. ) a b = Expr.Binop (Expr.Le, a, b)
let ( &&. ) a b = Expr.Binop (Expr.Land, a, b)
let ( ||. ) a b = Expr.Binop (Expr.Lor, a, b)

(* diff's case folding of a byte: [e + 32 * ('A' <= e <= 'Z')] *)
let fold_case e = ((e >=. c 65) &&. (e <=. c 90)) *. c 32 +. e

let golden_queries () =
  let b = Symvars.byte_domain and i = Symvars.int_domain in
  let small = { Solve.default_budget with max_nodes = 50 } in
  (* (name, variable domains, hint, budget, constraints, outcome) *)
  [
    ("single bound, hint inside", [ b ], [ (0, 15) ], None,
      [ v 0 >. c 10; v 0 <. c 20 ], "sat 0=15");
    ("single bound, no hint", [ b ], [], None, [ v 0 >=. c 200 ], "sat 0=200");
    ("hint outside the domain", [ b ], [ (0, 300) ], None, [ v 0 <>. c 0 ],
      "sat 0=1");
    ("ne excludes the hint", [ b; b ], [ (0, 7); (1, 7) ], None,
      [ v 0 <>. c 7; v 1 ==. v 0 +. c 1 ], "sat 0=0 1=1");
    ("int result past max_enum, hinted", [ i ], [ (0, 9) ], None,
      [ v 0 *. c 3 ==. c 27 ], "sat 0=9");
    ("int result past max_enum, probe", [ i ], [], None,
      [ v 0 *. c 2 ==. c 2 ], "sat 0=1");
    ("int result past max_enum, unknown", [ i ], [], None,
      [ v 0 *. c 3 ==. c 21 ], "unknown");
    ("int result narrowed", [ i; b ], [ (1, 65) ], None,
      [ v 0 >. c 2; v 0 <. c 9; v 1 ==. v 0 +. c 60 ], "sat 0=3 1=63");
    ("diff case-folding chain", List.init 12 (fun _ -> b),
      List.init 12 (fun k -> (k, 97 + (k mod 5))), None,
      List.init 6 (fun k -> fold_case (v (2 * k)) ==. fold_case (v ((2 * k) + 1)))
      @ [ v 0 ==. c 72; fold_case (v 10) <>. c 101; v 1 <>. c 72 ],
      "sat 0=72 1=104 2=99 3=67 4=101 5=69 6=98 7=66 8=100 9=68 10=97 11=65");
    ("equality chain", [ b; b; b; b ], [], None,
      [ v 0 ==. v 1; v 1 ==. v 2; v 2 ==. v 3; v 3 ==. c 113; v 0 <>. c 0 ],
      "sat 0=113 1=113 2=113 3=113");
    ("unsat by negation pair", [ b; b ], [ (0, 4) ], None,
      [ (v 0 *. v 1) <. c 50; v 0 >. c 2; Expr.negate ((v 0 *. v 1) <. c 50) ],
      "unsat");
    ("unsat by propagation", [ b; b ], [], None,
      [ v 0 >. c 10; v 0 +. c 1 <. c 5; v 1 ==. v 0 ], "unsat");
    ("unsat by subexpression bounds", [ b; b ], [], None,
      [ (v 0 *. v 1) <=. c 5; (v 0 *. v 1) >. c 9 ], "unsat");
    ("unsat by equality class", [ b; b; b ], [], None,
      [ v 0 ==. v 1; v 1 ==. v 2; v 0 <>. v 2 ], "unsat");
    ("node budget", [ b; b; b ], [], Some small,
      [ (v 0 ==. c 255) ||. (v 1 ==. c 255); v 2 *. v 0 ==. c 254; v 1 <>. c 255 ],
      "unknown");
    ("node count, just enough", [ b ], [], Some { small with max_nodes = 201 },
      [ v 0 *. c 3 ==. c 600 ], "sat 0=200");
    ("node count, one short", [ b ], [], Some { small with max_nodes = 200 },
      [ v 0 *. c 3 ==. c 600 ], "unknown");
    ("node count, hint tried once", [ b ], [ (0, 5) ],
      Some { small with max_nodes = 201 }, [ v 0 *. c 3 ==. c 600 ], "sat 0=200");
    ("repeated constraints", [ b; b; b ], [ (0, 40); (2, 3) ], None,
      [ v 0 >. c 30; v 1 ==. v 0 +. c 2; v 0 >. c 30; v 2 <>. c 3;
        v 1 ==. v 0 +. c 2; (v 0 <. c 60) &&. (v 2 <. c 9); v 0 >. c 30 ],
      "sat 0=40 1=42 2=0");
    ("backjump over unconstrained", [ b; b; b; b ], [ (0, 1) ], None,
      [ v 0 <. c 3; v 1 <>. c 1; v 2 >. c 4; v 3 ==. v 0 *. c 90; v 3 >. c 200 ],
      "unsat");
  ]

let render_outcome = function
  | Solve.Unsat -> "unsat"
  | Solve.Unknown -> "unknown"
  | Solve.Sat m ->
      "sat"
      ^ String.concat ""
          (List.map (fun (id, x) -> Printf.sprintf " %d=%d" id x) (Model.bindings m))

let test_solve_golden_table () =
  List.iter
    (fun (name, doms, hint, budget, cs, expected) ->
      let vars = Symvars.create () in
      List.iteri
        (fun k (d : Symvars.domain) ->
          ignore (Symvars.lookup vars ~name:(Printf.sprintf "q%d" k) ~dom:d))
        doms;
      let hint id = List.assoc_opt id hint in
      Alcotest.(check string) name expected
        (render_outcome (Solve.solve ?budget ~vars ~hint cs));
      Alcotest.(check string) (name ^ " (cache miss)") expected
        (render_outcome (Cache.solve (Cache.create ()) ?budget ~vars ~hint cs)))
    (golden_queries ())

(* ------------------------------------------------------------------ *)
(* Cache: memoization, canonicalization, slicing *)

let test_cache_hit_miss_accounting () =
  let t = Cache.create () in
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 in
  let cs = [ v x ==. c 47 ] in
  (match Cache.solve t ~vars cs with
  | Solve.Sat m -> check_int "x=47" 47 (Option.get (Model.find_opt x m))
  | _ -> Alcotest.fail "expected sat");
  (match Cache.solve t ~vars cs with
  | Solve.Sat m -> check_int "cached x=47" 47 (Option.get (Model.find_opt x m))
  | _ -> Alcotest.fail "expected cached sat");
  let s = Cache.snapshot t in
  check_int "one miss" 1 s.misses;
  check_int "one hit" 1 s.hits;
  check_int "one store" 1 s.stores;
  check_int "one entry" 1 (Cache.length t);
  (* an unsat set is cached too *)
  (match Cache.solve t ~vars [ v x <. c 5; v x >. c 10 ] with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat");
  (match Cache.solve t ~vars [ v x <. c 5; v x >. c 10 ] with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected cached unsat");
  let s = Cache.snapshot t in
  check_int "two hits total" 2 s.hits;
  check_int "two misses total" 2 s.misses

let test_cache_alpha_equivalence () =
  (* same structure over different variable ids — e.g. a replay restart's
     fresh registry — must hit the same entry *)
  let t = Cache.create () in
  let vars, ids = mk_vars 4 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  let x' = List.nth ids 2 and y' = List.nth ids 3 in
  (match Cache.solve t ~vars [ v x >. c 10; v y ==. (v x +. c 1) ] with
  | Solve.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat");
  (match Cache.solve t ~vars [ v x' >. c 10; v y' ==. (v x' +. c 1) ] with
  | Solve.Sat m ->
      (* the cached model must come back renamed to the new variables *)
      let xv = Option.get (Model.find_opt x' m) in
      let yv = Option.get (Model.find_opt y' m) in
      check_bool "renamed model satisfies" true (xv > 10 && yv = xv + 1)
  | _ -> Alcotest.fail "expected sat");
  let s = Cache.snapshot t in
  check_int "alpha-equivalent query hits" 1 s.hits;
  check_int "single entry for both" 1 (Cache.length t)

let test_cache_dedupe_multiplicity () =
  (* repeated constraints (loop-heavy traces) must not change the key *)
  let t = Cache.create () in
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  ignore (Cache.solve t ~vars [ v x >. c 10; v x >. c 10; v x <. c 20 ]);
  ignore (Cache.solve t ~vars [ v x >. c 10; v x <. c 20 ]);
  let s = Cache.snapshot t in
  check_int "deduped query hits" 1 s.hits

let test_cache_eviction () =
  let t = Cache.create ~capacity:2 () in
  let vars, ids = mk_vars 1 in
  let x = List.nth ids 0 in
  List.iter
    (fun n -> ignore (Cache.solve t ~vars [ v x ==. c n ]))
    [ 1; 2; 3; 4 ];
  let s = Cache.snapshot t in
  check_bool "evictions happened" true (s.evictions >= 2);
  check_bool "table stays bounded" true (Cache.length t <= 2)

let test_slice_focus_keeps_component () =
  (* x-constraints are independent of the y-component that the focus (last
     constraint) belongs to: the slice must keep y's and drop x's *)
  let sliced =
    Cache.slice_focus [ v 0 ==. c 1; v 1 >. c 5; v 1 <. c 9 ]
  in
  check_bool "slice = y component" true
    (sliced = [ v 1 >. c 5; v 1 <. c 9 ]);
  (* transitive connection through a shared variable is kept *)
  let sliced2 =
    Cache.slice_focus
      [ v 0 ==. c 1; v 1 ==. (v 2 +. c 1); v 2 >. c 5; v 1 <. c 9 ]
  in
  check_bool "transitive component kept" true
    (sliced2 = [ v 1 ==. (v 2 +. c 1); v 2 >. c 5; v 1 <. c 9 ])

let test_sliced_unsat_is_sound () =
  (* an unsat focus component decides the whole set, whatever was dropped *)
  let t = Cache.create () in
  let vars, ids = mk_vars 2 in
  let x = List.nth ids 0 and y = List.nth ids 1 in
  match
    Cache.solve t ~vars
      (Cache.slice_focus [ v x ==. c 1; v y <. c 5; v y >. c 10 ])
  with
  | Solve.Unsat -> ()
  | _ -> Alcotest.fail "expected unsat from the sliced component"

(* domains that miss on one key together solve it once: the key is in
   flight while the first one solves, and the others wait for its entry *)
let test_cache_inflight_single_solve () =
  let t = Cache.create () in
  let vars, ids = mk_vars 3 in
  let x = List.nth ids 0 and y = List.nth ids 1 and z = List.nth ids 2 in
  let cs =
    [ v x +. v y ==. c 300; v y +. v z ==. c 400; v x >. c 120; v z <. c 250 ]
  in
  let domains = 4 in
  let ready = Atomic.make 0 in
  let results =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            Cache.solve t ~vars cs))
    |> List.map Domain.join
  in
  List.iter
    (function
      | Solve.Sat m -> check_bool "model satisfies" true (Model.satisfies_all m cs)
      | Solve.Unsat -> Alcotest.fail "expected sat, got unsat"
      | Solve.Unknown -> Alcotest.fail "expected sat, got unknown")
    results;
  let s = Cache.snapshot t in
  check_int "one miss" 1 s.misses;
  check_int "one store" 1 s.stores;
  check_int "the rest are hits" (domains - 1) s.hits;
  (* an Unknown is never stored: every domain solves for itself *)
  let t = Cache.create () in
  let budget = { Solve.max_nodes = 1; max_enum = 1 } in
  List.init domains (fun _ ->
      Domain.spawn (fun () -> Cache.solve t ~budget ~vars cs))
  |> List.iter (fun d ->
         match Domain.join d with
         | Solve.Unknown -> ()
         | _ -> Alcotest.fail "expected unknown under a one-node budget");
  let s = Cache.snapshot t in
  check_int "every Unknown solves" domains s.misses;
  check_int "nothing stored" 0 s.stores;
  check_int "all uncacheable" domains s.uncacheable

(* cached and uncached solves agree on Sat/Unsat/Unknown, and a cached Sat
   model (possibly replayed from an earlier alpha-equivalent entry) still
   satisfies the query *)
let prop_cache_agrees_with_solver =
  let cache = Cache.create () in
  QCheck.Test.make ~count:300 ~name:"cached solve = uncached solve"
    QCheck.(make (Gen.list_size (Gen.int_range 1 6) (gen_cmp_constraint 4)))
    (fun cs ->
      let vars, _ = mk_vars 4 in
      let direct = Solve.solve ~vars cs in
      let cached = Cache.solve cache ~vars cs in
      match direct, cached with
      | Solve.Sat _, Solve.Sat m -> Model.satisfies_all m cs
      | Solve.Unsat, Solve.Unsat -> true
      | Solve.Unknown, Solve.Unknown -> true
      | _ -> false)

let () =
  Alcotest.run "solver"
    [
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "eval undefined" `Quick test_expr_eval_undefined;
          Alcotest.test_case "vars" `Quick test_expr_vars;
          Alcotest.test_case "negate semantics" `Quick
            test_expr_negate_involution_semantics;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "constant folding" `Quick test_simplify_folds;
          Alcotest.test_case "identities" `Quick test_simplify_identities;
          Alcotest.test_case "lognot pushed" `Quick test_simplify_lognot_pushes;
          Alcotest.test_case "conjuncts split" `Quick test_conjuncts;
          Alcotest.test_case "conjuncts false" `Quick test_conjuncts_false;
          QCheck_alcotest.to_alcotest prop_simplify_sound;
          QCheck_alcotest.to_alcotest prop_negate_flips;
        ] );
      ( "interval",
        [
          Alcotest.test_case "arithmetic" `Quick test_interval_ops;
          Alcotest.test_case "decides comparisons" `Quick
            test_interval_eval_decides;
          QCheck_alcotest.to_alcotest prop_interval_sound;
        ] );
      ( "solve",
        [
          Alcotest.test_case "simple equality" `Quick test_solve_simple_eq;
          Alcotest.test_case "conjunction" `Quick test_solve_conjunction;
          Alcotest.test_case "unsat" `Quick test_solve_unsat;
          Alcotest.test_case "unsat via domain" `Quick test_solve_unsat_byte_domain;
          Alcotest.test_case "ne chain" `Quick test_solve_ne_chain;
          Alcotest.test_case "hint preferred" `Quick test_solve_hint_preferred;
          Alcotest.test_case "string match" `Quick test_solve_string_match;
          Alcotest.test_case "empty constraints" `Quick test_solve_empty;
          Alcotest.test_case "strict logic ops" `Quick test_solve_strict_logic;
          Alcotest.test_case "equality chain" `Quick test_solve_equality_chain;
          Alcotest.test_case "equality contradiction" `Quick
            test_solve_equality_contradiction;
          Alcotest.test_case "offset cancellation" `Quick
            test_solve_offset_cancellation;
          Alcotest.test_case "negation-pair unsat" `Quick
            test_solve_negation_pair_unsat;
          Alcotest.test_case "backjump over unconstrained" `Quick
            test_solve_backjump_over_unconstrained;
          Alcotest.test_case "golden table" `Quick test_solve_golden_table;
          QCheck_alcotest.to_alcotest prop_solver_models_satisfy;
          QCheck_alcotest.to_alcotest prop_solver_unsat_really_unsat;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick
            test_cache_hit_miss_accounting;
          Alcotest.test_case "alpha equivalence" `Quick
            test_cache_alpha_equivalence;
          Alcotest.test_case "dedupe multiplicity" `Quick
            test_cache_dedupe_multiplicity;
          Alcotest.test_case "bounded eviction" `Quick test_cache_eviction;
          Alcotest.test_case "slice keeps focus component" `Quick
            test_slice_focus_keeps_component;
          Alcotest.test_case "sliced unsat sound" `Quick
            test_sliced_unsat_is_sound;
          Alcotest.test_case "in-flight key solved once" `Quick
            test_cache_inflight_single_solve;
          QCheck_alcotest.to_alcotest prop_cache_agrees_with_solver;
        ] );
    ]
