(** Block-based memory.

    Every variable owns a block (scalars have size 1, arrays their declared
    size); pointers are (block, offset) pairs.  Out-of-bounds offsets,
    dangling blocks and unknown blocks fault, giving MiniC programs
    memory-safety crashes at well-defined source locations.  Blocks are
    indexed by id in a growable array; a dead block costs one word. *)

type fault = Oob | Dead_block | Unknown_block

(** Raised by {!load} and {!store} on a faulting access. *)
exception Fault of fault

type t

(** [index_shadows] (default [false]) keeps an index of the cells that hold
    a shadowed value, for {!iter_changed} and {!mark_clean}; only a run
    whose live state may be moved (guided replay's resume) pays for it. *)
val create : ?index_shadows:bool -> unit -> t

(** Allocate a zero-initialised block; returns its id. *)
val alloc : t -> size:int -> int

(** Mark a block dead; ids are never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free. *)
val kill : t -> int -> unit

(** Cell count of a live block. *)
val size : t -> int -> int option

val load : t -> base:int -> off:int -> Value.t
val store : t -> base:int -> off:int -> Value.t -> unit

(** [iter_changed t ~changed f] calls [f ~base ~off v] once on every cell
    of a live block whose value [v] carries a symbolic shadow and that
    either is dirty — stored since the last {!mark_clean}, or ever before
    the first — or is clean and has a shadow mentioning a variable of
    [changed], in no particular order.  The other shadowed cells, clean
    with a shadow over variables outside [changed], are not visited.

    The index behind it keeps the dirty cells and, for each variable, the
    cells that were clean with a shadow mentioning it at a {!mark_clean}.
    A walk costs the dirty cells plus the entries of the [changed]
    variables (it drops the entries of cells stored or killed since), not
    the whole memory.  A caller that marks cells clean only once they hold
    their shadow's value under an assignment, and changes that assignment
    only on [changed] variables, may skip the unvisited cells: they still
    hold their shadow's value under the new one.  [f] must neither store
    into [t] nor raise.  Raises [Invalid_argument] unless [t] was created
    with [~index_shadows:true]. *)
val iter_changed :
  t -> changed:int list -> (base:int -> off:int -> Value.t -> unit) -> unit

(** Mark every dirty cell that holds a shadowed value clean, until its next
    {!store}, and drop the dirty cells that no longer hold one from the
    index.  Costs the dirty cells.  Raises [Invalid_argument] like
    {!iter_changed}. *)
val mark_clean : t -> unit

val fault_to_crash_kind : fault -> Crash.kind
