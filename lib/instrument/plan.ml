(** Instrumentation plans: which branch locations get a logging probe.

    The developer computes the plan before shipping and retains it — replay
    needs the exact instrumented set to know which branches consume a bit
    from the log (§3.1). *)

open Minic

type t = {
  meth : Methods.t;
  instrumented : bool array;  (** indexed by branch id *)
  n_instrumented : int;
  suppression : Staticanalysis.Suppression.t option;
      (** probe-elision refinement; [None] logs every instrumented branch *)
  cohort : string option;
      (** adaptive-deployment cohort the plan was compiled for; rides the
          report so triage can resolve the exact per-cohort branch set *)
}

let is_instrumented t bid =
  bid >= 0 && bid < Array.length t.instrumented && t.instrumented.(bid)

let instrumented_ids t =
  let ids = ref [] in
  Array.iteri (fun i b -> if b then ids := i :: !ids) t.instrumented;
  List.rev !ids

(** Build a plan per §2.3:

    - [Dynamic]: instrument exactly the branches dynamic analysis labelled
      symbolic (concrete and unvisited are skipped);
    - [Static]: instrument the branches static analysis labelled symbolic;
    - [Dynamic_static]: where dynamic analysis visited a branch, its label
      wins (including overriding static's symbolic with dynamic's
      concrete); unvisited branches fall back to the static label;
    - [All_branches] / [No_instrumentation]: everything / nothing.

    [dynamic] may be omitted for [Static] and [All_branches]; [static] may
    be omitted for [Dynamic] and [All_branches]. *)
let make ~(nbranches : int) ?(dynamic : Label.map option)
    ?(static : Label.map option) (meth : Methods.t) : t =
  let get name = function
    | Some m ->
        if Array.length m <> nbranches then
          invalid_arg (Printf.sprintf "Plan.make: %s label map has wrong size" name);
        m
    | None -> invalid_arg (Printf.sprintf "Plan.make: %s labels required" name)
  in
  let instrumented =
    match meth with
    | Methods.No_instrumentation -> Array.make nbranches false
    | Methods.All_branches -> Array.make nbranches true
    | Methods.Dynamic ->
        let dyn = get "dynamic" dynamic in
        Array.map (fun l -> Label.equal l Label.Symbolic) dyn
    | Methods.Static ->
        let sta = get "static" static in
        Array.map (fun l -> Label.equal l Label.Symbolic) sta
    | Methods.Dynamic_static ->
        let dyn = get "dynamic" dynamic in
        let sta = get "static" static in
        Array.init nbranches (fun i ->
            match dyn.(i) with
            | Label.Symbolic -> true
            | Label.Concrete -> false (* overrides static's symbolic *)
            | Label.Unvisited -> Label.equal sta.(i) Label.Symbolic)
  in
  let n_instrumented = Array.fold_left (fun n b -> if b then n + 1 else n) 0 instrumented in
  { meth; instrumented; n_instrumented; suppression = None; cohort = None }

(** Refine a plan with a suppression table.  The caller is responsible for
    having run {!Staticanalysis.Suppression.verify} first (the pipeline
    does); an unverified table must never reach the field. *)
let with_suppression t (sup : Staticanalysis.Suppression.t) =
  { t with suppression = Some sup }

(** The suppression table shipped with this plan ([[]] when none). *)
let suppression_table t =
  match t.suppression with
  | None -> []
  | Some sup -> Staticanalysis.Suppression.to_table sup
