(** Per-function control-flow graphs over the structured MiniC AST.

    The dataflow analyses interpret the tree directly ({!Dataflow}), but the
    suppression proofs need genuinely graph-shaped questions — "does branch
    [d] dominate branch [b]?", "which statements lie on some [d]-to-[b]
    path?" — so this module lowers one function body to an explicit digraph
    with [Entry]/[Exit] nodes, one node per straight-line statement and one
    per branch condition evaluation, plus structural [Join] nodes that give
    every branch arm a distinct entry point.

    Edges over-approximate control flow (a [while (1)] still gets its
    condition-false exit edge): extra edges only ever enlarge path sets, so
    clients that treat "on some path" as a kill condition stay sound.

    Dominators use the iterative algorithm of Cooper,
    Harvey and Kennedy over a reverse post-order; MiniC functions are small
    enough that the simple O(n^2) worst case is irrelevant. *)

open Minic

type node_kind =
  | Entry
  | Exit
  | Stmt of Ast.stmt  (** [Sassign] or [Scall] only *)
  | Branch of { bid : int; cond : Ast.expr; kind : Number.kind }
  | Join  (** structural merge / arm-entry point *)

type t = {
  func : Ast.func;
  kinds : node_kind array;
  succ : int array array;
  pred : int array array;
  entry : int;
  exit_ : int;
  branch_node : (int, int) Hashtbl.t;  (** branch id -> node id *)
  true_succ : (int, int) Hashtbl.t;  (** branch node -> condition-true arm *)
  false_succ : (int, int) Hashtbl.t;  (** branch node -> condition-false arm *)
  idom : int array;
      (** immediate dominator per node; [entry] maps to itself and
          unreachable nodes to [-1] *)
}

let nnodes t = Array.length t.kinds
let kind t n = t.kinds.(n)

let branch_node_of t ~bid = Hashtbl.find_opt t.branch_node bid

(* ------------------------------------------------------------------ *)
(* Dominators: Cooper/Harvey/Kennedy iteration over reverse post-order
   from [root]. *)

let compute_idom ~n ~(succ : int array array) ~(pred : int array array) ~root :
    int array =
  let order = Array.make n (-1) in
  (* iterative DFS: bench programs nest loops deep enough that the naive
     recursive walk is fine, but an explicit stack costs nothing *)
  let po = ref [] in
  let visited = Array.make n false in
  let rec dfs v =
    if not visited.(v) then begin
      visited.(v) <- true;
      Array.iter dfs succ.(v);
      po := v :: !po
    end
  in
  dfs root;
  let rpo = Array.of_list !po in
  Array.iteri (fun i v -> order.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> root then begin
          let d = ref (-1) in
          Array.iter
            (fun p ->
              if order.(p) >= 0 && idom.(p) >= 0 then
                d := if !d < 0 then p else intersect !d p)
            pred.(v);
          if !d >= 0 && idom.(v) <> !d then begin
            idom.(v) <- !d;
            changed := true
          end
        end)
      rpo
  done;
  idom

(* ------------------------------------------------------------------ *)
(* Construction *)

let of_func (f : Ast.func) : t =
  let kinds = ref [] and n = ref 0 in
  let edges = ref [] in
  let new_node k =
    let id = !n in
    incr n;
    kinds := k :: !kinds;
    id
  in
  let edge a b = edges := (a, b) :: !edges in
  let entry = new_node Entry in
  let exit_ = new_node Exit in
  let branch_node = Hashtbl.create 16 in
  let true_succ = Hashtbl.create 16 in
  let false_succ = Hashtbl.create 16 in
  let connect cur nd = match cur with Some c -> edge c nd | None -> () in
  (* Wire [b] starting from optional fall-through source [cur]; [None]
     means the code is unreachable (after a return/break) — its nodes are
     still created so every branch id resolves, they just have no
     predecessors.  Returns the fall-through node. *)
  let rec go_block cur b ~brk ~cont =
    List.fold_left (fun cur s -> go_stmt cur s ~brk ~cont) cur b
  and go_stmt cur (s : Ast.stmt) ~brk ~cont : int option =
    match s.sdesc with
    | Sassign _ | Scall _ ->
        let nd = new_node (Stmt s) in
        connect cur nd;
        Some nd
    | Sreturn _ ->
        (match cur with Some c -> edge c exit_ | None -> ());
        None
    | Sbreak ->
        (match cur, brk with Some c, Some b -> edge c b | _ -> ());
        None
    | Scontinue ->
        (match cur, cont with Some c, Some k -> edge c k | _ -> ());
        None
    | Sblock b -> go_block cur b ~brk ~cont
    | Sif (br, cond, then_b, else_b) ->
        let bn =
          new_node (Branch { bid = br.bid; cond; kind = Number.If_branch })
        in
        connect cur bn;
        Hashtbl.replace branch_node br.bid bn;
        let t_entry = new_node Join in
        let f_entry = new_node Join in
        edge bn t_entry;
        edge bn f_entry;
        Hashtbl.replace true_succ bn t_entry;
        Hashtbl.replace false_succ bn f_entry;
        let t_out = go_block (Some t_entry) then_b ~brk ~cont in
        let f_out = go_block (Some f_entry) else_b ~brk ~cont in
        if t_out = None && f_out = None then None
        else begin
          let join = new_node Join in
          connect t_out join;
          connect f_out join;
          Some join
        end
    | Swhile (br, cond, body) ->
        let bn =
          new_node (Branch { bid = br.bid; cond; kind = Number.While_branch })
        in
        connect cur bn;
        Hashtbl.replace branch_node br.bid bn;
        let body_entry = new_node Join in
        let exit_join = new_node Join in
        edge bn body_entry;
        edge bn exit_join;
        Hashtbl.replace true_succ bn body_entry;
        Hashtbl.replace false_succ bn exit_join;
        let body_out =
          go_block (Some body_entry) body ~brk:(Some exit_join) ~cont:(Some bn)
        in
        connect body_out bn;
        Some exit_join
  in
  let out = go_block (Some entry) f.fbody ~brk:None ~cont:None in
  (match out with Some c -> edge c exit_ | None -> ());
  let n = !n in
  let kinds = Array.of_list (List.rev !kinds) in
  let succ_l = Array.make n [] and pred_l = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succ_l.(a)) then begin
        succ_l.(a) <- b :: succ_l.(a);
        pred_l.(b) <- a :: pred_l.(b)
      end)
    !edges;
  let succ = Array.map Array.of_list succ_l in
  let pred = Array.map Array.of_list pred_l in
  let idom = compute_idom ~n ~succ ~pred ~root:entry in
  {
    func = f;
    kinds;
    succ;
    pred;
    entry;
    exit_;
    branch_node;
    true_succ;
    false_succ;
    idom;
  }

(* ------------------------------------------------------------------ *)
(* Queries *)

let reachable t n = t.idom.(n) >= 0 || n = t.entry

(* Walk the idom chain from [b] towards the root looking for [a]. *)
let chain_dominates (idom : int array) a b =
  if idom.(a) < 0 || idom.(b) < 0 then false
  else
    let rec up v = v = a || (idom.(v) <> v && up idom.(v)) in
    up b

(** [a] dominates [b] (reflexive: every reachable node dominates itself). *)
let dominates t a b = chain_dominates t.idom a b

(** [a] strictly dominates [b]. *)
let strictly_dominates t a b = a <> b && dominates t a b

(* BFS over [next], never stepping onto [avoid]. *)
let flood ~(next : int array array) ~(avoid : int) ~n (seeds : int list) :
    bool array =
  let seen = Array.make n false in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s <> avoid && not seen.(s) then begin
        seen.(s) <- true;
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun w ->
        if w <> avoid && not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
      next.(v)
  done;
  seen

(** Nodes lying on some path from a node of [srcs] to [dst] in the graph
    with node [avoid] deleted — the sources and [dst] itself included when
    they qualify.  This is the kill set the suppression proofs scan: any
    write between a dominating branch and its implied branch lives on such
    a path (including paths that loop, since reachability covers cycles). *)
let nodes_on_path t ~(avoid : int) ~(srcs : int list) ~(dst : int) : int list =
  let n = nnodes t in
  let fwd = flood ~next:t.succ ~avoid ~n srcs in
  let bwd = flood ~next:t.pred ~avoid ~n [ dst ] in
  let out = ref [] in
  for v = n - 1 downto 0 do
    if fwd.(v) && bwd.(v) then out := v :: !out
  done;
  !out

(** Can [src] reach [dst] without passing through [avoid]?  ([src] itself
    may equal [dst].) *)
let reaches t ~avoid ~src ~dst =
  if src = avoid || dst = avoid then false
  else (flood ~next:t.succ ~avoid ~n:(nnodes t) [ src ]).(dst)

(* ------------------------------------------------------------------ *)
(* Program-wide bundle: lazily one CFG per function that has branches. *)

type program_cfgs = {
  prog : Program.t;
  tbl : (string, t) Hashtbl.t;
}

let of_program (prog : Program.t) : program_cfgs =
  { prog; tbl = Hashtbl.create 16 }

let for_function (pc : program_cfgs) (fname : string) : t option =
  match Hashtbl.find_opt pc.tbl fname with
  | Some c -> Some c
  | None -> (
      match Program.find_func pc.prog fname with
      | None -> None
      | Some f ->
          let c = of_func f in
          Hashtbl.add pc.tbl fname c;
          Some c)

(** CFG and node id of branch [bid] ([None] for out-of-range ids). *)
let locate (pc : program_cfgs) ~(bid : int) : (t * int) option =
  if bid < 0 || bid >= Program.nbranches pc.prog then None
  else
    let info = Program.branch_info pc.prog bid in
    match for_function pc info.bfunc with
    | None -> None
    | Some c -> (
        match branch_node_of c ~bid with
        | Some nd -> Some (c, nd)
        | None -> None)
