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
    a shadowed value, for {!iter_shadowed} and {!mark_clean}; only a run
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

(** [iter_shadowed t f] calls [f ~base ~off ~dirty v] on every cell of a
    live block whose value [v] carries a symbolic shadow, once each, in no
    particular order; [dirty] says whether the cell was stored since the
    last {!mark_clean} (or ever, before the first).  The walk costs the
    cells stored with a shadow since the last walk plus the cells listed
    then, not the whole memory: it drops cells of dead blocks and cells no
    longer shadowed from the index.  [f] must neither store into [t] nor
    raise.  Raises [Invalid_argument] unless [t] was created with
    [~index_shadows:true]. *)
val iter_shadowed :
  t -> (base:int -> off:int -> dirty:bool -> Value.t -> unit) -> unit

(** Mark every shadowed cell clean, until its next {!store}.  Raises
    [Invalid_argument] like {!iter_shadowed}. *)
val mark_clean : t -> unit

val fault_to_crash_kind : fault -> Crash.kind
