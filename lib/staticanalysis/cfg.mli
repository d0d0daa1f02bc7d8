(** Per-function control-flow graphs with a dominator tree, built from the structured MiniC AST.  The explicit graph backs
    the suppression proofs ({!Suppression}): dominance queries, arm
    membership and on-some-path kill sets. *)

type node_kind =
  | Entry
  | Exit
  | Stmt of Minic.Ast.stmt  (** [Sassign] or [Scall] only *)
  | Branch of { bid : int; cond : Minic.Ast.expr; kind : Minic.Number.kind }
  | Join  (** structural merge / arm-entry point *)

type t = {
  func : Minic.Ast.func;
  kinds : node_kind array;
  succ : int array array;
  pred : int array array;
  entry : int;
  exit_ : int;
  branch_node : (int, int) Hashtbl.t;
  true_succ : (int, int) Hashtbl.t;
  false_succ : (int, int) Hashtbl.t;
  idom : int array;
}

val of_func : Minic.Ast.func -> t
val nnodes : t -> int
val kind : t -> int -> node_kind

(** Node of branch [bid] in this function, if the branch lives here. *)
val branch_node_of : t -> bid:int -> int option

(** The node is reachable from [Entry]. *)
val reachable : t -> int -> bool

(** [dominates t a b]: every entry-to-[b] path passes [a] (reflexive;
    false when either node is unreachable). *)
val dominates : t -> int -> int -> bool

val strictly_dominates : t -> int -> int -> bool

(** Nodes on some path from a node of [srcs] to [dst] in the graph with
    node [avoid] deleted (endpoints included; cycles covered). *)
val nodes_on_path : t -> avoid:int -> srcs:int list -> dst:int -> int list

(** [src] reaches [dst] without passing through [avoid]. *)
val reaches : t -> avoid:int -> src:int -> dst:int -> bool

(** Lazy per-function CFG bundle for a linked program. *)
type program_cfgs

val of_program : Minic.Program.t -> program_cfgs
val for_function : program_cfgs -> string -> t option

(** CFG and node id of branch [bid]. *)
val locate : program_cfgs -> bid:int -> (t * int) option
