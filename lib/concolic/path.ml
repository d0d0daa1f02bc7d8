(** Path recording for concolic runs.

    A trace is the ordered list of constraints implied by the run: one per
    *symbolic* branch execution (oriented by the direction actually taken)
    plus one equality per concretisation (symbolic value pinned to its
    concrete value at an array index, pointer offset or syscall argument).

    The trace is an append-only array; a {!view} is an O(1) snapshot of its
    first [len] entries, shared by every pending alternative of the run.
    Slicing a pending ({!slice}) goes through a per-path variable index that
    is built lazily: an entry pays for its variables only once some slice
    needs the positions up to it, and then only once per path. *)

type entry = {
  bid : int option;  (** branch id; [None] for concretisation constraints *)
  taken : bool;
  cons : Solver.Expr.t;  (** constraint asserted by this step *)
  negatable : bool;
      (** may the engine fork an alternative here?  False for branches whose
          direction is pinned by a branch log (replay case 2a). *)
}

(* Positions (ascending) of one variable's occurrences below [indexed]. *)
type occ = {
  mutable pos : int array;
  mutable n : int;
  mutable seen : int;  (** generation of the last slice that visited it *)
}

(* The variable index over positions [0, indexed): each entry's distinct
   variables and, per variable, the positions it occurs at.  It is never
   undone: the only overwrite of a recorded position, [drop_last] followed by
   a fresh record (guided replay resuming at a case-2b mismatch), replaces a
   branch constraint by the constraint of the other direction, which has the
   same variables. *)
type index = {
  mutable indexed : int;
  mutable evars : int array array;
  occ : (int, occ) Hashtbl.t;
  mutable stamp : int array;  (** per position: generation of its slice *)
  mutable gen : int;
}

type t = {
  mutable arr : entry array;
  mutable length : int;
  mutable index : index option;  (** built by the first {!slice} *)
}

type view = { path : t; varr : entry array; len : int }

let create () = { arr = [||]; length = 0; index = None }

(* [a], or a copy at least twice as long when [a] is shorter than [n] *)
let grow a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push t e =
  t.arr <- grow t.arr (max 16 (t.length + 1)) e;
  t.arr.(t.length) <- e;
  t.length <- t.length + 1

(** Constraint asserted by taking (or not taking) a branch whose condition
    has symbolic shadow [sym]. *)
let branch_constraint ~taken sym =
  if taken then Solver.Simplify.bool_coerce sym else Solver.Expr.negate sym

let record_branch ?(negatable = true) t ~bid ~taken (sym : Solver.Expr.t) =
  push t { bid = Some bid; taken; cons = branch_constraint ~taken sym; negatable }

let record_concretize ?(negatable = false) t (sym : Solver.Expr.t) (value : int) =
  push t
    {
      bid = None;
      taken = true;
      cons = Solver.Expr.Binop (Solver.Expr.Eq, sym, Solver.Expr.Const value);
      negatable;
    }

(** Remove the most recent entry (no-op on an empty trace). *)
let drop_last t = if t.length > 0 then t.length <- t.length - 1

let length t = t.length

let view t = { path = t; varr = t.arr; len = t.length }

let view_length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Path.get";
  v.varr.(i)

let entries v = List.init v.len (fun i -> v.varr.(i))

(* ------------------------------------------------------------------ *)
(* Slicing *)

let vars_of e = Array.of_list (Solver.Expr.vars e)

(* Index the positions of [v] below [upto] that are not indexed yet. *)
let extend (ix : index) (v : view) upto =
  if upto > ix.indexed then begin
    ix.evars <- grow ix.evars upto [||];
    ix.stamp <- grow ix.stamp upto 0;
    for p = ix.indexed to upto - 1 do
      let vs = vars_of v.varr.(p).cons in
      ix.evars.(p) <- vs;
      Array.iter
        (fun x ->
          match Hashtbl.find_opt ix.occ x with
          | Some o ->
              o.pos <- grow o.pos (o.n + 1) 0;
              o.pos.(o.n) <- p;
              o.n <- o.n + 1
          | None -> Hashtbl.replace ix.occ x { pos = [| p |]; n = 1; seen = 0 })
        vs
    done;
    ix.indexed <- upto
  end

let index_of t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix =
        { indexed = 0; evars = [||]; occ = Hashtbl.create 64; stamp = [||];
          gen = 0 }
      in
      t.index <- Some ix;
      ix

(** [slice v ~upto ~lineage focus] is
    [Solver.Cache.slice_focus (lineage @ prefix @ [focus])], where [prefix]
    is the constraints of [v]'s positions [0 .. upto-1]: the same members in
    the same order.  It walks the path's variable index from [focus]'s
    variables, so its cost is that of the slice plus indexing the positions
    below [upto] no earlier slice of the path reached.  Not thread-safe: only
    the search that owns the path slices it. *)
let slice v ~upto ~lineage (focus : Solver.Expr.t) : Solver.Expr.t list =
  if upto < 0 || upto > v.len then invalid_arg "Path.slice";
  let ix = index_of v.path in
  extend ix v upto;
  ix.gen <- ix.gen + 1;
  let gen = ix.gen in
  let lvars = Array.of_list (List.map vars_of lineage) in
  let ltaken = Array.make (Array.length lvars) false in
  let members = ref [] in
  let todo = ref [ vars_of focus ] in
  let visit x =
    let o =
      match Hashtbl.find_opt ix.occ x with
      | Some o -> o
      | None ->
          (* a variable only the focus or the lineage mention *)
          let o = { pos = [||]; n = 0; seen = 0 } in
          Hashtbl.replace ix.occ x o;
          o
    in
    if o.seen <> gen then begin
      o.seen <- gen;
      let k = ref 0 in
      while !k < o.n && o.pos.(!k) < upto do
        let p = o.pos.(!k) in
        if ix.stamp.(p) <> gen then begin
          ix.stamp.(p) <- gen;
          members := p :: !members;
          todo := ix.evars.(p) :: !todo
        end;
        incr k
      done;
      Array.iteri
        (fun i vs ->
          if (not ltaken.(i)) && Array.mem x vs then begin
            ltaken.(i) <- true;
            todo := vs :: !todo
          end)
        lvars
    end
  in
  let rec drain () =
    match !todo with
    | [] -> ()
    | vs :: rest ->
        todo := rest;
        Array.iter visit vs;
        drain ()
  in
  drain ();
  (* execution order: the lineage, then the prefix, then the focus *)
  List.filteri (fun i _ -> ltaken.(i)) lineage
  @ List.fold_left
      (fun acc p -> v.varr.(p).cons :: acc)
      [ focus ]
      (List.sort (fun a b -> compare b a) !members)

(** Evaluator hooks that record the path into [t] (and chain to [inner]). *)
let hooks ?(inner = Interp.Eval.no_hooks) (t : t) : Interp.Eval.hooks =
  {
    inner with
    Interp.Eval.on_branch =
      (fun ~bid ~iter ~taken ~cond ->
        let dir = inner.Interp.Eval.on_branch ~bid ~iter ~taken ~cond in
        (match cond.Interp.Value.sym with
        | Some sym -> record_branch t ~bid ~taken:dir sym
        | None -> ());
        dir);
    on_concretize =
      (fun sym value ->
        inner.Interp.Eval.on_concretize sym value;
        record_concretize t sym value);
  }
