(** The branch-prediction logging alternative the paper rejects (§4).

    Instead of one bit per executed instrumented branch, one could log only
    *mispredicted* branches.  But replay must then know which branch
    occurrence each log entry corresponds to, so every entry carries the
    branch location — "at least another 32 bits of storage per branch,
    probably ruining any savings obtained by the prediction algorithm".

    This module implements two classic predictors over a branch-execution
    stream and accounts for the resulting log size, so the bench harness can
    quantify the paper's argument instead of taking it on faith. *)

type scheme =
  | Last_direction  (** predict the direction taken last time (1-bit state) *)
  | Two_bit  (** 2-bit saturating counter per branch location *)

let scheme_to_string = function
  | Last_direction -> "last-direction"
  | Two_bit -> "2-bit saturating"

type t = {
  scheme : scheme;
  state : int array;  (** per-branch predictor state *)
  mutable executions : int;
  mutable mispredictions : int;
}

let create ~nbranches scheme =
  (* initial state: predict taken (counter = 2 on the weakly-taken side) *)
  { scheme; state = Array.make nbranches 2; executions = 0; mispredictions = 0 }

let predict t bid =
  match t.scheme with
  | Last_direction -> t.state.(bid) >= 2
  | Two_bit -> t.state.(bid) >= 2

let update t bid ~taken =
  match t.scheme with
  | Last_direction -> t.state.(bid) <- (if taken then 3 else 0)
  | Two_bit ->
      let s = t.state.(bid) in
      t.state.(bid) <- (if taken then min 3 (s + 1) else max 0 (s - 1))

(** Feed one branch execution; returns true if it was mispredicted (and
    would therefore be logged under this scheme). *)
let observe t bid ~taken =
  t.executions <- t.executions + 1;
  let predicted = predict t bid in
  update t bid ~taken;
  if predicted <> taken then begin
    t.mispredictions <- t.mispredictions + 1;
    true
  end
  else false

(** Log size in bytes under the misprediction scheme: each entry records the
    branch location (32 bits), as the paper argues is required. *)
let log_size_bytes t = t.mispredictions * 4

let misprediction_rate t =
  if t.executions = 0 then 0.0
  else float_of_int t.mispredictions /. float_of_int t.executions

(** Hooks wrapper: run a predictor alongside a field run (observation only;
    chains to [inner]). *)
let hooks ?(inner = Interp.Eval.no_hooks) (t : t) ~(plan : Plan.t) :
    Interp.Eval.hooks =
  {
    inner with
    Interp.Eval.on_branch =
      (fun ~bid ~iter ~taken ~cond ->
        let dir = inner.Interp.Eval.on_branch ~bid ~iter ~taken ~cond in
        if Plan.is_instrumented plan bid then ignore (observe t bid ~taken:dir);
        dir);
  }
