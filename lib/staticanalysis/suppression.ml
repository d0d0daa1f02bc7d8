(** Proof-producing probe-elision analysis ("suppression", ROADMAP item 2).

    Every instrumentation plan pays one log bit per executed instrumented
    branch.  Many of those bits are statically redundant: a branch nested in
    the then-arm of an identical condition can only go one way, a branch
    with the same condition as a dominating instrumented branch repeats a
    bit the log already carries, and a loop condition whose operands the
    loop body never writes yields the same bit on every iteration after the
    first.  This pass proves such redundancies over the explicit {!Cfg} and
    emits, per elided branch, a deterministic *reconstruction rule* that the
    replay side evaluates instead of consuming a bit.

    Rules (the wire codes in parentheses):
    - [Forced { polarity }] ([f1]/[f0]) — every execution takes the same
      side: the condition is constant ({!Constprop}), or the branch sits in
      an arm of a dominating branch whose condition decides it and no write
      on the arm path interferes.  Reconstruction is the constant.
    - [Implied_by { dom; polarity }] ([d<dom>+]/[d<dom>-]) — a strictly
      dominating, instrumented, non-elided branch [dom] in the same
      function has an equal (polarity [+]) or complementary ([-]) condition
      and every [dom]-to-branch path is free of writes to the condition's
      operands and of calls that could re-enter the function.
      Reconstruction is (the negation of) the *last bit consumed at [dom]*
      — deliberately the consumed bit rather than the observed outcome, so
      a suppressed replay mirrors a full-log replay bit-for-bit even after
      a divergence.
    - [Invariant_of { loop }] ([i<loop>]) — the branch lies in (or is) a
      while loop whose syntactic body never writes the condition's operands
      and cannot re-enter the function; only its first execution per loop
      entry is logged, later executions reconstruct the branch's own last
      recorded bit.

    Writes are tracked through calls with transitive may-write summaries:
    a call to a function with a body kills exactly the cells that body (or
    anything it reaches) can store to, and a builtin call kills the
    pointees of its input-writing arguments ({!Minic.Builtin}'s
    [taints_args] model).  Only unmodelled effects ([checkpoint], [spawn],
    unknown names) fall back to killing everything a pointer can reach.

    Soundness here is load-bearing for field data, so every rule carries a
    human-readable witness and {!verify} re-derives each rule from scratch
    against the CFG before a table is accepted — a report whose table fails
    verification must be rejected ({!Replay.Guided} does).

    Concurrency: [spawn]ing programs disable [Implied_by] and
    [Invariant_of] entirely (another thread could interleave executions and
    clobber the reconstruction cursors) and restrict [Forced] arm proofs to
    operands no other thread can reach. *)

open Minic

type rule =
  | Forced of { polarity : bool }
  | Implied_by of { dom : int; polarity : bool }
  | Invariant_of of { loop : int }

type kind = Const_cond | Arm_forced | Dom_implied | Loop_invariant

let kind_to_string = function
  | Const_cond -> "const"
  | Arm_forced -> "arm-forced"
  | Dom_implied -> "implied"
  | Loop_invariant -> "invariant"

type proof = { p_bid : int; p_rule : rule; p_kind : kind; p_witness : string }

type t = {
  nbranches : int;
  rules : rule option array;
  proofs : proof array;  (** one per elided branch, ascending bid *)
  dead : bool array;
  n_const : int;
  n_arm : int;
  n_implied : int;
  n_invariant : int;
}

let n_elided t = Array.length t.proofs

let rule_of t bid =
  if bid >= 0 && bid < t.nbranches then t.rules.(bid) else None

let elided t bid = rule_of t bid <> None

(* ------------------------------------------------------------------ *)
(* Wire codec: compact per-rule codes for the report format. *)

let rule_to_code = function
  | Forced { polarity } -> if polarity then "f1" else "f0"
  | Implied_by { dom; polarity } ->
      Printf.sprintf "d%d%c" dom (if polarity then '+' else '-')
  | Invariant_of { loop } -> Printf.sprintf "i%d" loop

let rule_to_string = function
  | Forced { polarity } -> Printf.sprintf "forced-%b" polarity
  | Implied_by { dom; polarity } ->
      Printf.sprintf "implied-by(b%d,%s)" dom (if polarity then "+" else "-")
  | Invariant_of { loop } -> Printf.sprintf "invariant-of(b%d)" loop

(* strict decimal: no sign, no 0x, no underscores — the wire codec must
   reject anything [rule_to_code] could not have printed *)
let dec_of_string s =
  let n = String.length s in
  if n = 0 || n > 9 then None
  else if n > 1 && s.[0] = '0' then None
  else
    let ok = ref true and v = ref 0 in
    String.iter
      (fun c ->
        if c < '0' || c > '9' then ok := false
        else v := (!v * 10) + (Char.code c - Char.code '0'))
      s;
    if !ok then Some !v else None

let rule_of_code (s : string) : (rule, string) result =
  let fail () = Error (Printf.sprintf "bad suppression rule %S" s) in
  match s with
  | "f1" -> Ok (Forced { polarity = true })
  | "f0" -> Ok (Forced { polarity = false })
  | _ when String.length s >= 3 && s.[0] = 'd' -> (
      let l = String.length s in
      let pol = s.[l - 1] in
      if pol <> '+' && pol <> '-' then fail ()
      else
        match dec_of_string (String.sub s 1 (l - 2)) with
        | Some dom -> Ok (Implied_by { dom; polarity = pol = '+' })
        | None -> fail ())
  | _ when String.length s >= 2 && s.[0] = 'i' -> (
      match dec_of_string (String.sub s 1 (String.length s - 1)) with
      | Some loop -> Ok (Invariant_of { loop })
      | None -> fail ())
  | _ -> fail ()

let table_to_string (tbl : (int * rule) list) : string =
  List.sort (fun (a, _) (b, _) -> compare a b) tbl
  |> List.map (fun (bid, r) -> Printf.sprintf "%d=%s" bid (rule_to_code r))
  |> String.concat ","

let table_of_string (s : string) : ((int * rule) list, string) result =
  if String.trim s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match String.index_opt p '=' with
          | None -> Error (Printf.sprintf "bad suppression entry %S" p)
          | Some i -> (
              let code = String.sub p (i + 1) (String.length p - i - 1) in
              match dec_of_string (String.sub p 0 i) with
              | None -> Error (Printf.sprintf "bad suppression bid in %S" p)
              | Some bid -> (
                  match rule_of_code code with
                  | Ok r -> go ((bid, r) :: acc) rest
                  | Error e -> Error e)))
    in
    go [] (String.split_on_char ',' s)

let to_table t =
  let out = ref [] in
  for bid = t.nbranches - 1 downto 0 do
    match t.rules.(bid) with
    | Some r -> out := (bid, r) :: !out
    | None -> ()
  done;
  !out

(** Decode a wire table into a dense rule array; fail-closed on
    out-of-range or duplicate bids, dangling references, and implied-by
    rules whose dominator is itself elided. *)
let of_table ~nbranches (tbl : (int * rule) list) :
    (rule option array, string) result =
  let rules = Array.make (max nbranches 0) None in
  let rec fill = function
    | [] -> Ok ()
    | (bid, r) :: rest ->
        if bid < 0 || bid >= nbranches then
          Error (Printf.sprintf "suppression bid %d out of range" bid)
        else if rules.(bid) <> None then
          Error (Printf.sprintf "duplicate suppression bid %d" bid)
        else
          let ref_ok =
            match r with
            | Forced _ -> true
            | Implied_by { dom; _ } -> dom >= 0 && dom < nbranches && dom <> bid
            | Invariant_of { loop } -> loop >= 0 && loop < nbranches
          in
          if not ref_ok then
            Error (Printf.sprintf "suppression rule for b%d has bad reference" bid)
          else begin
            rules.(bid) <- Some r;
            fill rest
          end
  in
  match fill tbl with
  | Error _ as e -> e
  | Ok () ->
      let bad = ref None in
      Array.iteri
        (fun bid r ->
          match r with
          | Some (Implied_by { dom; _ }) when rules.(dom) <> None ->
              if !bad = None then bad := Some (bid, dom)
          | _ -> ())
        rules;
      (match !bad with
      | Some (bid, dom) ->
          Error
            (Printf.sprintf "suppression: b%d implied by elided branch b%d" bid
               dom)
      | None -> Ok rules)

(* ------------------------------------------------------------------ *)
(* Condition implication: does the truth value of [a] decide that of [b]
   when both are evaluated in the same state? *)

let rec expr_equal (a : Ast.expr) (b : Ast.expr) : bool =
  match a, b with
  | Cint x, Cint y -> x = y
  | Cstr x, Cstr y -> String.equal x y
  | Lval x, Lval y | Addr x, Addr y -> lval_equal x y
  | Unop (o, x), Unop (p, y) -> o = p && expr_equal x y
  | Binop (o, x1, x2), Binop (p, y1, y2) ->
      o = p && expr_equal x1 y1 && expr_equal x2 y2
  | _ -> false

and lval_equal (a : Ast.lval) (b : Ast.lval) : bool =
  match a, b with
  | Var x, Var y -> String.equal x y
  | Index (l1, e1), Index (l2, e2) -> lval_equal l1 l2 && expr_equal e1 e2
  | Star e1, Star e2 -> expr_equal e1 e2
  | _ -> false

(* [a op b] has the same truth value as [b op' a] *)
let swap_commutes : Ast.binop -> Ast.binop option = function
  | Eq -> Some Eq
  | Ne -> Some Ne
  | Lt -> Some Gt
  | Gt -> Some Lt
  | Le -> Some Ge
  | Ge -> Some Le
  | Add -> Some Add
  | Mul -> Some Mul
  | Band -> Some Band
  | Bor -> Some Bor
  | Bxor -> Some Bxor
  | Land -> Some Land  (* MiniC's && / || are strict, so they commute *)
  | Lor -> Some Lor
  | Sub | Div | Mod | Shl | Shr -> None

let complement_relop : Ast.binop -> Ast.binop option = function
  | Eq -> Some Ne
  | Ne -> Some Eq
  | Lt -> Some Ge
  | Ge -> Some Lt
  | Gt -> Some Le
  | Le -> Some Gt
  | _ -> None

let rec same_outcome (a : Ast.expr) (b : Ast.expr) : bool =
  expr_equal a b
  || (match a with
     | Unop (Lognot, a') -> opposite_outcome a' b
     | _ -> false)
  || (match b with
     | Unop (Lognot, b') -> opposite_outcome a b'
     | _ -> false)
  ||
  match a, b with
  | Binop (o1, x1, y1), Binop (o2, x2, y2) -> (
      match swap_commutes o1 with
      | Some o1' -> o1' = o2 && expr_equal x1 y2 && expr_equal y1 x2
      | None -> false)
  | _ -> false

and opposite_outcome (a : Ast.expr) (b : Ast.expr) : bool =
  (match a with Unop (Lognot, a') -> same_outcome a' b | _ -> false)
  || (match b with Unop (Lognot, b') -> same_outcome a b' | _ -> false)
  ||
  match a, b with
  | Binop (o1, x1, y1), Binop (o2, x2, y2) ->
      (match complement_relop o1 with
      | Some c -> c = o2 && expr_equal x1 x2 && expr_equal y1 y2
      | None -> false)
      || (match swap_commutes o1 with
         | Some o1' -> (
             match complement_relop o1' with
             | Some c -> c = o2 && expr_equal x1 y2 && expr_equal y1 x2
             | None -> false)
         | None -> false)
  | _ -> false

(** [Some true]: [b] is taken iff [a] is; [Some false]: [b] is taken iff
    [a] is not; [None]: no structural relation. *)
let implies (a : Ast.expr) (b : Ast.expr) : bool option =
  if same_outcome a b then Some true
  else if opposite_outcome a b then Some false
  else None

(* ------------------------------------------------------------------ *)
(* Analysis context: aliasing, constants, CFGs, call graph. *)

type ctx = {
  prog : Program.t;
  pta : Pointsto.t;
  cp : Constprop.result;
  cfgs : Cfg.program_cfgs;
  pointed : Aloc.Set.t;
  has_spawn : bool;
  callees : (string, string list) Hashtbl.t;
      (* per function: directly-called functions that have bodies *)
  fsummary : (string, Aloc.Set.t option) Hashtbl.t;
      (* memoized transitive may-write summaries ([None] = may write
         anything); see [call_summary] *)
}

let build_ctx ?pta ?constprop (prog : Program.t) : ctx =
  let pta = match pta with Some p -> p | None -> Pointsto.analyze prog in
  let cp =
    match constprop with Some c -> c | None -> Constprop.analyze prog pta
  in
  let callees = Hashtbl.create 16 in
  let has_spawn = ref false in
  List.iter
    (fun (f : Ast.func) ->
      let acc = ref [] in
      Ast.iter_stmts
        (fun s ->
          match s.Ast.sdesc with
          | Scall (_, name, _) ->
              if String.equal name "spawn" then has_spawn := true;
              if Program.find_func prog name <> None && not (List.mem name !acc)
              then acc := name :: !acc
          | _ -> ())
        f.Ast.fbody;
      Hashtbl.replace callees f.Ast.fname !acc)
    prog.Program.funcs;
  {
    prog;
    pta;
    cp;
    cfgs = Cfg.of_program prog;
    pointed = Pointsto.pointed_cells pta;
    has_spawn = !has_spawn;
    callees;
    fsummary = Hashtbl.create 16;
  }

(* can a call to [callee] transitively re-enter [target]? *)
let call_reaches ctx ~(callee : string) ~(target : string) : bool =
  let seen = Hashtbl.create 8 in
  let rec go n =
    String.equal n target
    || (not (Hashtbl.mem seen n)
       && begin
            Hashtbl.add seen n ();
            match Hashtbl.find_opt ctx.callees n with
            | None -> false
            | Some cs -> List.exists go cs
          end)
  in
  go callee

(* a cell no pointer and no other frame can reach: immune to calls,
   pointer writes and other threads *)
let pure_local ctx ~fn (a : Aloc.t) : bool =
  match a with
  | Aloc.Local (f, x) ->
      String.equal f fn
      && Types.equal (Pointsto.var_type ctx.pta ~fn x) Types.Tint
      && not (Aloc.Set.mem a ctx.pointed)
  | _ -> false

exception Unanalyzable

(* every abstract cell evaluating [e] may read (over-approximate: base
   pointers and index sub-expressions included) *)
let cond_reads (pta : Pointsto.t) ~fn (e : Ast.expr) : Aloc.Set.t =
  let acc = ref Aloc.Set.empty in
  let add s = acc := Aloc.Set.union s !acc in
  let rec expr (e : Ast.expr) =
    match e with
    | Cint _ | Cstr _ -> ()
    | Lval lv ->
        add (Pointsto.denotes_of pta ~fn lv);
        base lv
    | Addr lv -> base lv
    | Unop (_, a) -> expr a
    | Binop (_, a, b) ->
        expr a;
        expr b
    | Ecall _ -> raise Unanalyzable
  and base = function
    | Ast.Var x -> add (Aloc.Set.singleton (Pointsto.aloc_of pta ~fn x))
    | Index (lv, i) ->
        base lv;
        expr i
    | Star e -> expr e
  in
  expr e;
  !acc

(* Call effects.  The interpreter's builtins write program memory only
   through the pointer arguments [Builtin.t.taints_args] names (checked
   against [Interp.Eval]'s builtin table), so a builtin call site's
   may-write set is the pointees of exactly those arguments.  [checkpoint]
   (its restore hook writes globals back), [spawn] (runs arbitrary code
   concurrently) and unknown names stay unmodelled: [None] = may write
   anything. *)
let builtin_site_effect ctx ~fn name (args : Ast.expr list) :
    Aloc.Set.t option =
  if String.equal name "checkpoint" || String.equal name "spawn" then None
  else
    match Builtin.find name with
    | None -> None
    | Some b ->
        List.fold_left
          (fun acc i ->
            match (acc, List.nth_opt args i) with
            | None, _ | _, None -> None
            | Some s, Some a ->
                Some
                  (Aloc.Set.union s (Pointsto.denotes_of ctx.pta ~fn (Ast.Star a))))
          (Some Aloc.Set.empty) b.Builtin.taints_args

(* direct may-writes of [f]'s own body: assignments, call result stores
   and the builtin effects of its body-less call sites (callees with
   bodies are the caller's job — see [call_summary]) *)
let direct_writes ctx (f : Ast.func) : Aloc.Set.t option =
  let fn = f.Ast.fname in
  let acc = ref (Some Aloc.Set.empty) in
  let add s =
    match !acc with
    | None -> ()
    | Some cur -> acc := Some (Aloc.Set.union cur s)
  in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.sdesc with
      | Sassign (lv, _) -> add (Pointsto.denotes_of ctx.pta ~fn lv)
      | Scall (lvo, name, args) ->
          (match lvo with
          | Some lv -> add (Pointsto.denotes_of ctx.pta ~fn lv)
          | None -> ());
          if Program.find_func ctx.prog name = None then begin
            match builtin_site_effect ctx ~fn name args with
            | None -> acc := None
            | Some s -> add s
          end
      | _ -> ())
    f.Ast.fbody;
  !acc

(* transitive may-write summary of a call to [name]: the union of direct
   writes over [name] and every body it can reach.  Memoized; recursion is
   fine because reachability closure needs no fixpoint. *)
let call_summary ctx (name : string) : Aloc.Set.t option =
  match Hashtbl.find_opt ctx.fsummary name with
  | Some s -> s
  | None ->
      let seen = Hashtbl.create 8 in
      let rec visit acc n =
        if Hashtbl.mem seen n then acc
        else begin
          Hashtbl.add seen n ();
          match Program.find_func ctx.prog n with
          | None -> acc
          | Some f ->
              let acc =
                match (acc, direct_writes ctx f) with
                | None, _ | _, None -> None
                | Some a, Some b -> Some (Aloc.Set.union a b)
              in
              List.fold_left visit acc
                (match Hashtbl.find_opt ctx.callees n with
                | Some cs -> cs
                | None -> [])
        end
      in
      let s = visit (Some Aloc.Set.empty) name in
      Hashtbl.replace ctx.fsummary name s;
      s

type write = { defs : Aloc.Set.t; top : bool; calls : string list }

let stmt_write ctx ~fn (s : Ast.stmt) : write =
  match s.Ast.sdesc with
  | Sassign (lv, _) ->
      { defs = Pointsto.denotes_of ctx.pta ~fn lv; top = false; calls = [] }
  | Scall (lvo, name, args) ->
      let res =
        match lvo with
        | Some lv -> Pointsto.denotes_of ctx.pta ~fn lv
        | None -> Aloc.Set.empty
      in
      let eff =
        if Program.find_func ctx.prog name <> None then call_summary ctx name
        else builtin_site_effect ctx ~fn name args
      in
      (match eff with
      | None -> { defs = res; top = true; calls = [ name ] }
      | Some s -> { defs = Aloc.Set.union res s; top = false; calls = [ name ] })
  | _ -> { defs = Aloc.Set.empty; top = false; calls = [] }

(* an unmodelled effect ([top]) may write anything a pointer or another
   frame can reach, so it kills every operand that is not a pure local *)
let write_kills ctx ~fn ~(operands : Aloc.Set.t) (w : write) : bool =
  (not (Aloc.Set.disjoint w.defs operands))
  || (w.top && Aloc.Set.exists (fun a -> not (pure_local ctx ~fn a)) operands)

let write_reenters ctx ~fn (w : write) : bool =
  List.exists (fun c -> call_reaches ctx ~callee:c ~target:fn) w.calls

(* no write on any [srcs]-to-[dst] path (node [avoid] deleted) kills an
   operand; with [check_reentry], no call on such a path can re-enter [fn]
   (re-entry would re-execute the dominator and clobber its bit cursor) *)
let path_safe ctx (cfg : Cfg.t) ~fn ~operands ~(check_reentry : bool) ~avoid
    ~srcs ~dst : bool =
  Cfg.nodes_on_path cfg ~avoid ~srcs ~dst
  |> List.for_all (fun nd ->
         match Cfg.kind cfg nd with
         | Cfg.Stmt s ->
             let w = stmt_write ctx ~fn s in
             (not (write_kills ctx ~fn ~operands w))
             && ((not check_reentry) || not (write_reenters ctx ~fn w))
         | _ -> true)

let spawn_safe ctx ~fn operands =
  (not ctx.has_spawn) || Aloc.Set.for_all (pure_local ctx ~fn) operands

(* ------------------------------------------------------------------ *)
(* Locating a branch and its syntactic context. *)

type enc =
  | In_arm of { dom : Ast.branch; dom_cond : Ast.expr; arm : bool }
  | In_loop of { loop : Ast.branch; body : Ast.block }

(* condition, while-body (for loops) and innermost-first enclosing context
   of branch [bid] in [f] *)
let find_branch (f : Ast.func) (bid : int) :
    (Ast.expr * Ast.block option * enc list) option =
  let rec blk encs = function
    | [] -> None
    | s :: rest -> (
        match stmt encs s with Some r -> Some r | None -> blk encs rest)
  and stmt encs (s : Ast.stmt) =
    match s.sdesc with
    | Sif (br, cond, tb, eb) ->
        if br.bid = bid then Some (cond, None, encs)
        else begin
          match
            blk (In_arm { dom = br; dom_cond = cond; arm = true } :: encs) tb
          with
          | Some r -> Some r
          | None ->
              blk (In_arm { dom = br; dom_cond = cond; arm = false } :: encs) eb
        end
    | Swhile (br, cond, body) ->
        if br.bid = bid then Some (cond, Some body, encs)
        else blk (In_loop { loop = br; body } :: encs) body
    | Sblock b -> blk encs b
    | _ -> None
  in
  blk [] f.fbody

(* everything the per-rule checkers need about one candidate branch *)
type site = {
  s_bid : int;
  s_fn : string;
  s_cond : Ast.expr;
  s_body : Ast.block option;  (* while body, when the branch is a loop *)
  s_encs : enc list;
  s_cfg : Cfg.t;
  s_node : int;
  s_operands : Aloc.Set.t;
}

let site_of ctx bid : (site, string) result =
  if bid < 0 || bid >= Program.nbranches ctx.prog then Error "bid out of range"
  else
    let info = Program.branch_info ctx.prog bid in
    match Program.find_func ctx.prog info.bfunc with
    | None -> Error "function not found"
    | Some f -> (
        match find_branch f bid with
        | None -> Error "branch not in function body"
        | Some (cond, body, encs) -> (
            match Cfg.locate ctx.cfgs ~bid with
            | None -> Error "branch has no CFG node"
            | Some (cfg, node) -> (
                match cond_reads ctx.pta ~fn:info.bfunc cond with
                | operands ->
                    Ok
                      {
                        s_bid = bid;
                        s_fn = info.bfunc;
                        s_cond = cond;
                        s_body = body;
                        s_encs = encs;
                        s_cfg = cfg;
                        s_node = node;
                        s_operands = operands;
                      }
                | exception Unanalyzable -> Error "condition not analyzable")))

(* ------------------------------------------------------------------ *)
(* Per-rule checkers.  [analyze] derives candidates with these and
   [verify] re-checks claims with the same predicates, so verification
   accepts the analysis output by construction. *)

let truthy v = v <> 0

let const_polarity ctx bid : bool option =
  match Constprop.branch_const_value ctx.cp bid with
  | Some v -> Some (truthy v)
  | None -> None

(* innermost enclosing arm whose condition decides this branch, with a
   kill-free arm-entry-to-branch path; [want] restricts the polarity *)
let arm_forced ctx (st : site) ~(want : bool option) :
    (bool * int * bool) option =
  if not (spawn_safe ctx ~fn:st.s_fn st.s_operands) then None
  else
    List.find_map
      (function
        | In_loop _ -> None
        | In_arm { dom; dom_cond; arm } -> (
            match implies dom_cond st.s_cond with
            | None -> None
            | Some rel -> (
                let pol = if arm then rel else not rel in
                if match want with Some w -> w <> pol | None -> false then None
                else
                  match Cfg.branch_node_of st.s_cfg ~bid:dom.bid with
                  | None -> None
                  | Some dn -> (
                      let tbl =
                        if arm then st.s_cfg.Cfg.true_succ
                        else st.s_cfg.Cfg.false_succ
                      in
                      match Hashtbl.find_opt tbl dn with
                      | None -> None
                      | Some arm_entry ->
                          if
                            path_safe ctx st.s_cfg ~fn:st.s_fn
                              ~operands:st.s_operands ~check_reentry:false
                              ~avoid:dn ~srcs:[ arm_entry ] ~dst:st.s_node
                          then Some (pol, dom.bid, arm)
                          else None))))
      st.s_encs

let implied_ok ctx (st : site) ~(dom : int) ~(polarity : bool)
    ~(dom_elided : int -> bool) ~(instrumented : bool array option) : bool =
  (not ctx.has_spawn)
  && dom >= 0
  && dom < Program.nbranches ctx.prog
  && dom < st.s_bid
  && String.equal (Program.branch_info ctx.prog dom).bfunc st.s_fn
  && (match instrumented with
     | Some ins -> dom < Array.length ins && ins.(dom)
     | None -> true)
  && (not (dom_elided dom))
  && (match Program.find_func ctx.prog st.s_fn with
     | None -> false
     | Some f -> (
         match find_branch f dom with
         | None -> false
         | Some (dom_cond, _, _) -> implies dom_cond st.s_cond = Some polarity))
  &&
  match Cfg.branch_node_of st.s_cfg ~bid:dom with
  | None -> false
  | Some dn ->
      Cfg.strictly_dominates st.s_cfg dn st.s_node
      &&
      let srcs = Array.to_list st.s_cfg.Cfg.succ.(dn) in
      path_safe ctx st.s_cfg ~fn:st.s_fn ~operands:st.s_operands
        ~check_reentry:true ~avoid:dn ~srcs ~dst:st.s_node

(* no write in [body] kills an operand and no body call re-enters [fn] *)
let body_invariant ctx ~fn ~operands (body : Ast.block) : bool =
  let ok = ref true in
  Ast.iter_stmts
    (fun s ->
      if !ok then begin
        let w = stmt_write ctx ~fn s in
        if write_kills ctx ~fn ~operands w || write_reenters ctx ~fn w then
          ok := false
      end)
    body;
  !ok

let invariant_ok ctx (st : site) ~(loop : int) : bool =
  (not ctx.has_spawn)
  && loop >= 0
  && loop < Program.nbranches ctx.prog
  && (Program.branch_info ctx.prog loop).bkind = Number.While_branch
  && String.equal (Program.branch_info ctx.prog loop).bfunc st.s_fn
  &&
  let body =
    if loop = st.s_bid then st.s_body
    else
      List.find_map
        (function
          | In_loop { loop = l; body } when l.bid = loop -> Some body
          | _ -> None)
        st.s_encs
  in
  match body with
  | None -> false
  | Some body -> body_invariant ctx ~fn:st.s_fn ~operands:st.s_operands body

(* ------------------------------------------------------------------ *)
(* Analysis: derive the best rule per instrumented branch. *)

let analyze ?pta ?constprop ~(instrumented : bool array) (prog : Program.t) : t
    =
  let ctx = build_ctx ?pta ?constprop prog in
  let n = Program.nbranches prog in
  let rules = Array.make n None in
  let dead = Array.init n (fun bid -> Constprop.is_dead ctx.cp bid) in
  let proofs = ref [] in
  let n_const = ref 0
  and n_arm = ref 0
  and n_implied = ref 0
  and n_invariant = ref 0 in
  let put bid rule kind witness cnt =
    rules.(bid) <- Some rule;
    proofs :=
      { p_bid = bid; p_rule = rule; p_kind = kind; p_witness = witness }
      :: !proofs;
    incr cnt
  in
  let try_implied (st : site) : (int * bool) option =
    if ctx.has_spawn then None
    else
      let cands = ref [] in
      Array.iter
        (fun (i : Number.info) ->
          if
            String.equal i.bfunc st.s_fn
            && i.bid < st.s_bid
            && i.bid < Array.length instrumented
            && instrumented.(i.bid)
            && rules.(i.bid) = None
            && not dead.(i.bid)
          then cands := i.bid :: !cands)
        prog.Program.branches;
      (* nearest (largest bid) candidate first *)
      List.sort (fun a b -> compare b a) !cands
      |> List.find_map (fun dom ->
             match Program.find_func ctx.prog st.s_fn with
             | None -> None
             | Some f -> (
                 match find_branch f dom with
                 | None -> None
                 | Some (dom_cond, _, _) -> (
                     match implies dom_cond st.s_cond with
                     | Some pol
                       when implied_ok ctx st ~dom ~polarity:pol
                              ~dom_elided:(fun d -> rules.(d) <> None)
                              ~instrumented:(Some instrumented) ->
                         Some (dom, pol)
                     | _ -> None)))
  in
  let try_invariant (st : site) : int option =
    (* outermost qualifying loop: fewest logged copies per run *)
    let enclosing =
      List.rev
        (List.filter_map
           (function In_loop { loop; _ } -> Some loop.bid | _ -> None)
           st.s_encs)
    in
    let cands =
      enclosing @ (if st.s_body <> None then [ st.s_bid ] else [])
    in
    List.find_opt (fun l -> invariant_ok ctx st ~loop:l) cands
  in
  let consider (st : site) =
    let bid = st.s_bid in
    match const_polarity ctx bid with
    | Some pol ->
        put bid
          (Forced { polarity = pol })
          Const_cond
          (Printf.sprintf "constprop: condition always %b" pol)
          n_const
    | None -> (
        match arm_forced ctx st ~want:None with
        | Some (pol, dom, arm) ->
            put bid
              (Forced { polarity = pol })
              Arm_forced
              (Printf.sprintf
                 "forced %b in %s-arm of b%d: (%s) decided there; kill-free \
                  arm path"
                 pol
                 (if arm then "then" else "else")
                 dom
                 (Pretty.expr_to_string st.s_cond))
              n_arm
        | None -> (
            match try_implied st with
            | Some (dom, pol) ->
                put bid
                  (Implied_by { dom; polarity = pol })
                  Dom_implied
                  (Printf.sprintf
                     "outcome %s dominating b%d; kill-free, call-safe paths"
                     (if pol then "equals" else "negates")
                     dom)
                  n_implied
            | None -> (
                match try_invariant st with
                | Some loop ->
                    put bid (Invariant_of { loop }) Loop_invariant
                      (Printf.sprintf
                         "operands {%s} invariant in body of loop b%d"
                         (Aloc.set_to_string st.s_operands)
                         loop)
                      n_invariant
                | None -> ())))
  in
  Array.iter
    (fun (info : Number.info) ->
      let bid = info.bid in
      if
        bid >= 0
        && bid < Array.length instrumented
        && instrumented.(bid)
        && not dead.(bid)
      then
        match site_of ctx bid with Error _ -> () | Ok st -> consider st)
    prog.Program.branches;
  {
    nbranches = n;
    rules;
    proofs = Array.of_list (List.rev !proofs);
    dead;
    n_const = !n_const;
    n_arm = !n_arm;
    n_implied = !n_implied;
    n_invariant = !n_invariant;
  }

(* ------------------------------------------------------------------ *)
(* Proof checker: re-derive every claimed rule from scratch. *)

let verify ?pta ?constprop ?instrumented (prog : Program.t)
    (table : (int * rule) list) : (unit, string) result =
  let ctx = build_ctx ?pta ?constprop prog in
  let n = Program.nbranches prog in
  let elided_tbl = Hashtbl.create 16 in
  let rec dedup = function
    | [] -> Ok ()
    | (bid, r) :: rest ->
        if Hashtbl.mem elided_tbl bid then
          Error (Printf.sprintf "b%d: duplicate suppression rule" bid)
        else begin
          Hashtbl.replace elided_tbl bid r;
          dedup rest
        end
  in
  let check (bid, r) : (unit, string) result =
    let err fmt =
      Printf.ksprintf (fun s -> Error (Printf.sprintf "b%d: %s" bid s)) fmt
    in
    if bid < 0 || bid >= n then err "bid out of range"
    else if Constprop.is_dead ctx.cp bid then err "rule on a dead branch"
    else if
      match instrumented with
      | Some ins -> bid >= Array.length ins || not ins.(bid)
      | None -> false
    then err "rule on an uninstrumented branch"
    else
      match site_of ctx bid with
      | Error e -> err "%s" e
      | Ok st -> (
          match r with
          | Forced { polarity } ->
              if
                const_polarity ctx bid = Some polarity
                || arm_forced ctx st ~want:(Some polarity) <> None
              then Ok ()
              else err "forced(%b) not provable" polarity
          | Implied_by { dom; polarity } ->
              if
                implied_ok ctx st ~dom ~polarity
                  ~dom_elided:(fun d -> Hashtbl.mem elided_tbl d)
                  ~instrumented
              then Ok ()
              else err "implication from b%d not provable" dom
          | Invariant_of { loop } ->
              if invariant_ok ctx st ~loop then Ok ()
              else err "invariance in loop b%d not provable" loop)
  in
  match dedup table with
  | Error _ as e -> e
  | Ok () ->
      List.fold_left
        (fun acc entry -> match acc with Error _ -> acc | Ok () -> check entry)
        (Ok ()) table

(* ------------------------------------------------------------------ *)
(* Reconstruction state machine, shared by the field side (to skip the
   write and optionally emit a shadow prediction) and the replay side (to
   synthesize the bit a full log would have carried).  Drive it with
   [on_branch] for EVERY executed branch — instrumented or not, elided or
   not — and [record] at every site where a bit is actually logged or
   consumed. *)

module Recon = struct
  type action =
    | Consume  (** log / consume a bit as usual, then call [record] *)
    | Elide of bool  (** skip the bit; a full log would carry this value *)
    | Elide_unknown
        (** elided, but the referenced bit is unavailable (exhausted log):
            treat like an exhausted reader *)

  type t = {
    rules : rule option array;
    children : int list array;  (* loop bid -> its Invariant_of children *)
    last : bool array;
    valid : bool array;
    fresh : bool array;
  }

  let create (rules : rule option array) : t =
    let n = Array.length rules in
    let children = Array.make n [] in
    Array.iteri
      (fun bid r ->
        match r with
        | Some (Invariant_of { loop }) when loop >= 0 && loop < n ->
            children.(loop) <- bid :: children.(loop)
        | _ -> ())
      rules;
    {
      rules;
      children;
      last = Array.make n false;
      valid = Array.make n false;
      fresh = Array.make n true;
    }

  (* shared so the per-branch answer never allocates *)
  let elide_true = Elide true
  let elide_false = Elide false
  let elide b = if b then elide_true else elide_false

  let rec mark_fresh fresh = function
    | [] -> ()
    | c :: rest ->
        fresh.(c) <- true;
        mark_fresh fresh rest

  let on_branch t ~bid ~iter : action =
    if bid < 0 || bid >= Array.length t.rules then Consume
    else begin
      (* a loop header evaluating its condition for the first time in this
         entry starts a fresh invariance window for its children (and for
         itself, via its own entry in [children]) *)
      if iter = 0 then mark_fresh t.fresh t.children.(bid);
      match t.rules.(bid) with
      | None -> Consume
      | Some (Forced { polarity }) -> elide polarity
      | Some (Implied_by { dom; polarity }) ->
          if t.valid.(dom) then
            elide (if polarity then t.last.(dom) else not t.last.(dom))
          else Elide_unknown
      | Some (Invariant_of _) ->
          if t.fresh.(bid) then Consume
          else if t.valid.(bid) then elide t.last.(bid)
          else Elide_unknown
    end

  let record t ~bid bit =
    if bid >= 0 && bid < Array.length t.rules then begin
      t.last.(bid) <- bit;
      t.valid.(bid) <- true;
      t.fresh.(bid) <- false
    end
end

(* ------------------------------------------------------------------ *)
(* Report rendering, mirroring {!Precision}. *)

type verdict = Not_instrumented | Dead | Logged | Elided of kind

let verdict_to_string = function
  | Not_instrumented -> "not-instrumented"
  | Dead -> "dead"
  | Logged -> "logged"
  | Elided k -> "elided-" ^ kind_to_string k

type entry = {
  bid : int;
  loc : Loc.t;
  func : string;
  is_lib : bool;
  instrumented : bool;
  verdict : verdict;
  rule : rule option;
  witness : string option;
}

let entries (t : t) (prog : Program.t) ~(instrumented : bool array) :
    entry array =
  let proof_of bid =
    Array.to_seq t.proofs |> Seq.find (fun p -> p.p_bid = bid)
  in
  Array.map
    (fun (b : Number.info) ->
      let ins = b.bid < Array.length instrumented && instrumented.(b.bid) in
      let rule = rule_of t b.bid in
      let verdict =
        if not ins then Not_instrumented
        else if b.bid < Array.length t.dead && t.dead.(b.bid) then Dead
        else
          match proof_of b.bid with
          | Some p -> Elided p.p_kind
          | None -> Logged
      in
      {
        bid = b.bid;
        loc = b.bloc;
        func = b.bfunc;
        is_lib = b.bis_lib;
        instrumented = ins;
        verdict;
        rule;
        witness =
          (match proof_of b.bid with
          | Some p -> Some p.p_witness
          | None -> None);
      })
    prog.Program.branches

let n_instrumented_in ~(instrumented : bool array) (t : t) =
  let k = ref 0 in
  Array.iteri
    (fun bid ins -> if ins && bid < t.nbranches then incr k)
    instrumented;
  !k

let entry_to_string (e : entry) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "b%03d %s:%d [%s]%s %s" e.bid e.loc.Loc.file e.loc.Loc.line
       e.func
       (if e.is_lib then " (lib)" else "")
       (verdict_to_string e.verdict));
  (match e.rule with
  | Some r -> Buffer.add_string buf (" " ^ rule_to_string r)
  | None -> ());
  (match e.witness with
  | Some w -> Buffer.add_string buf ("\n      witness: " ^ w)
  | None -> ());
  Buffer.contents buf

(** Human-readable report.  By default only elided branches are listed in
    full; [all] lists every branch. *)
let report_to_text ?(all = false) (t : t) (prog : Program.t)
    ~(instrumented : bool array) : string =
  let es = entries t prog ~instrumented in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== suppression report ==\n";
  Array.iter
    (fun e ->
      let interesting =
        all || match e.verdict with Elided _ -> true | _ -> false
      in
      if interesting then begin
        Buffer.add_string buf (entry_to_string e);
        Buffer.add_char buf '\n'
      end)
    es;
  let n_ins = n_instrumented_in ~instrumented t in
  Buffer.add_string buf
    (Printf.sprintf
       "branches: %d  instrumented: %d  elided: %d (%.1f%% of instrumented)\n\
        by kind: const %d  arm-forced %d  implied %d  invariant %d\n"
       t.nbranches n_ins (n_elided t)
       (if n_ins = 0 then 0.0
        else 100.0 *. float_of_int (n_elided t) /. float_of_int n_ins)
       t.n_const t.n_arm t.n_implied t.n_invariant);
  Buffer.contents buf

let entry_to_json (e : entry) : string =
  Printf.sprintf
    "{\"bid\":%d,\"file\":\"%s\",\"line\":%d,\"func\":\"%s\",\"lib\":%b,\
     \"instrumented\":%b,\"verdict\":\"%s\",\"rule\":%s%s}"
    e.bid
    (Telemetry.Json.escape e.loc.Loc.file)
    e.loc.Loc.line
    (Telemetry.Json.escape e.func)
    e.is_lib e.instrumented
    (verdict_to_string e.verdict)
    (match e.rule with
    | Some r -> Printf.sprintf "\"%s\"" (rule_to_code r)
    | None -> "null")
    (match e.witness with
    | Some w -> Printf.sprintf ",\"witness\":\"%s\"" (Telemetry.Json.escape w)
    | None -> "")

(** Strict JSON report.  [extra] is spliced verbatim into the summary
    object (must start with "," when non-empty). *)
let report_to_json ?(extra = "") (t : t) (prog : Program.t)
    ~(instrumented : bool array) : string =
  let es = entries t prog ~instrumented in
  let n_ins = n_instrumented_in ~instrumented t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"summary\":{\"branches\":%d,\"instrumented\":%d,\"elided\":%d,\
        \"elision_rate\":%.4f,\"const\":%d,\"arm_forced\":%d,\"implied\":%d,\
        \"invariant\":%d%s},\"branches\":["
       t.nbranches n_ins (n_elided t)
       (if n_ins = 0 then 0.0
        else float_of_int (n_elided t) /. float_of_int n_ins)
       t.n_const t.n_arm t.n_implied t.n_invariant extra);
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (entry_to_json e))
    es;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let describe (t : t) : string =
  Printf.sprintf
    "suppression: %d elided (const %d, arm-forced %d, implied %d, invariant %d)"
    (n_elided t) t.n_const t.n_arm t.n_implied t.n_invariant
