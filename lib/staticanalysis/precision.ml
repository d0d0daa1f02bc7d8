(** Precision report: static labels vs dynamic ground truth.

    Diffs a static labelling against the labels observed by the dynamic
    analysis (`Concolic.Dynamic`, passed in as a plain {!Minic.Label.map})
    and issues a per-branch verdict.  Dynamic labels are ground truth where
    they exist: a dynamically-symbolic branch really received input-derived
    data on some run, and a dynamically-concrete one never did on the
    explored paths (so a static [Symbolic] there is *spurious* — paid-for
    instrumentation the paper's tradeoff wants to avoid).  [Missed] is a
    soundness violation and should never occur; it is reported loudly
    rather than hidden because the whole point of the report is to make the
    static analysis debuggable.

    The [spurious_rate] — spurious / (confirmed + spurious) — is the
    fraction of *dynamically-refuted* symbolic labels, the headline
    precision metric tracked by the bench tables. *)

open Minic

type verdict =
  | Confirmed  (** static Symbolic, dynamic Symbolic *)
  | Spurious  (** static Symbolic, dynamic Concrete: over-approximation *)
  | Unknown  (** static Symbolic, branch never visited dynamically *)
  | Missed  (** static Concrete, dynamic Symbolic: SOUNDNESS VIOLATION *)
  | Agree_concrete  (** both Concrete *)
  | Unobserved  (** static Concrete, never visited dynamically *)

let verdict_to_string = function
  | Confirmed -> "confirmed"
  | Spurious -> "spurious"
  | Unknown -> "unknown"
  | Missed -> "MISSED"
  | Agree_concrete -> "agree-concrete"
  | Unobserved -> "unobserved"

let classify (s : Label.t) (d : Label.t) : verdict =
  match s, d with
  | Label.Symbolic, Label.Symbolic -> Confirmed
  | Label.Symbolic, Label.Concrete -> Spurious
  | Label.Symbolic, Label.Unvisited -> Unknown
  | (Label.Concrete | Label.Unvisited), Label.Symbolic -> Missed
  | (Label.Concrete | Label.Unvisited), Label.Concrete -> Agree_concrete
  | (Label.Concrete | Label.Unvisited), Label.Unvisited -> Unobserved

type entry = {
  bid : int;
  loc : Loc.t;
  func : string;
  is_lib : bool;
  static_label : Label.t;
  dynamic_label : Label.t;
  verdict : verdict;
  const_value : int option;  (** condition proved constant by constprop *)
  dead : bool;  (** branch proved dead by constprop *)
  witness : string option;  (** provenance chain for symbolic labels *)
}

type report = {
  entries : entry array;
  n_confirmed : int;
  n_spurious : int;
  n_unknown : int;
  n_missed : int;
  n_agree_concrete : int;
  n_unobserved : int;
  spurious_rate : float;
      (** spurious / (confirmed + spurious): dynamically-refuted fraction
          of symbolic labels (0 when nothing was refutable) *)
}

let make ?constprop ?provenance (prog : Program.t) ~(static : Label.map)
    ~(dynamic : Label.map) : report =
  let entries =
    Array.map
      (fun (b : Number.info) ->
        let s = if b.bid < Array.length static then static.(b.bid) else Label.Unvisited in
        let d = if b.bid < Array.length dynamic then dynamic.(b.bid) else Label.Unvisited in
        {
          bid = b.bid;
          loc = b.bloc;
          func = b.bfunc;
          is_lib = b.bis_lib;
          static_label = s;
          dynamic_label = d;
          verdict = classify s d;
          const_value =
            (match constprop with
            | Some cp -> Constprop.branch_const_value cp b.bid
            | None -> None);
          dead =
            (match constprop with
            | Some cp -> Constprop.is_dead cp b.bid
            | None -> false);
          witness =
            (match provenance with
            | Some p when Label.equal s Label.Symbolic ->
                Provenance.explain_branch p b.bid
            | Some _ | None -> None);
        })
      prog.branches
  in
  let count v =
    Array.fold_left (fun n e -> if e.verdict = v then n + 1 else n) 0 entries
  in
  let n_confirmed = count Confirmed in
  let n_spurious = count Spurious in
  let refutable = n_confirmed + n_spurious in
  {
    entries;
    n_confirmed;
    n_spurious;
    n_unknown = count Unknown;
    n_missed = count Missed;
    n_agree_concrete = count Agree_concrete;
    n_unobserved = count Unobserved;
    spurious_rate =
      (if refutable = 0 then 0.0 else float_of_int n_spurious /. float_of_int refutable);
  }

let n_static_symbolic r =
  Array.fold_left
    (fun n e -> if Label.equal e.static_label Label.Symbolic then n + 1 else n)
    0 r.entries

(* ------------------------------------------------------------------ *)
(* Text rendering *)

let entry_to_string (e : entry) : string =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "b%03d %s:%d [%s]%s static=%s dynamic=%s -> %s" e.bid
       e.loc.Loc.file e.loc.Loc.line e.func
       (if e.is_lib then " (lib)" else "")
       (Label.to_string e.static_label)
       (Label.to_string e.dynamic_label)
       (verdict_to_string e.verdict));
  (match e.const_value with
  | Some v -> Buffer.add_string buf (Printf.sprintf "\n      condition constant = %d" v)
  | None -> ());
  if e.dead then Buffer.add_string buf "\n      provably dead";
  (match e.witness with
  | Some w -> Buffer.add_string buf ("\n      witness: " ^ w)
  | None -> ());
  Buffer.contents buf

(** Human-readable report.  By default only symbolic-labelled and [Missed]
    branches are listed in full; [all] lists every branch. *)
let to_text ?(all = false) (r : report) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== static precision report ==\n";
  Array.iter
    (fun e ->
      let interesting =
        all
        || Label.equal e.static_label Label.Symbolic
        || e.verdict = Missed
      in
      if interesting then begin
        Buffer.add_string buf (entry_to_string e);
        Buffer.add_char buf '\n'
      end)
    r.entries;
  Buffer.add_string buf
    (Printf.sprintf
       "branches: %d  static-symbolic: %d\n\
        confirmed: %d  spurious: %d  unknown(sym/unvisited): %d\n\
        agree-concrete: %d  unobserved: %d  missed: %d\n\
        spurious rate: %.1f%% (of %d dynamically-checkable symbolic labels)\n"
       (Array.length r.entries) (n_static_symbolic r) r.n_confirmed r.n_spurious
       r.n_unknown r.n_agree_concrete r.n_unobserved r.n_missed
       (100.0 *. r.spurious_rate)
       (r.n_confirmed + r.n_spurious));
  if r.n_missed > 0 then
    Buffer.add_string buf
      "*** SOUNDNESS VIOLATION: dynamically-symbolic branch labelled \
       Concrete ***\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON rendering over the shared Telemetry.Json escaper *)

let entry_to_json (e : entry) : string =
  Printf.sprintf
    "{\"bid\":%d,\"file\":\"%s\",\"line\":%d,\"func\":\"%s\",\"lib\":%b,\
     \"static\":\"%s\",\"dynamic\":\"%s\",\"verdict\":\"%s\",\"const\":%s,\
     \"dead\":%b%s}"
    e.bid
    (Telemetry.Json.escape e.loc.Loc.file)
    e.loc.Loc.line
    (Telemetry.Json.escape e.func)
    e.is_lib
    (Label.to_string e.static_label)
    (Label.to_string e.dynamic_label)
    (verdict_to_string e.verdict)
    (match e.const_value with Some v -> string_of_int v | None -> "null")
    e.dead
    (match e.witness with
    | Some w -> Printf.sprintf ",\"witness\":\"%s\"" (Telemetry.Json.escape w)
    | None -> "")

let to_json (r : report) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"summary\":{\"branches\":%d,\"static_symbolic\":%d,\
        \"confirmed\":%d,\"spurious\":%d,\"unknown\":%d,\"missed\":%d,\
        \"agree_concrete\":%d,\"unobserved\":%d,\"spurious_rate\":%.4f},\
        \"branches\":["
       (* from the verdict counts, not [entries]: callers may strip the
          per-branch array to emit a summary-only line *)
       (r.n_confirmed + r.n_spurious + r.n_unknown + r.n_missed
      + r.n_agree_concrete + r.n_unobserved)
       (r.n_confirmed + r.n_spurious + r.n_unknown)
       r.n_confirmed r.n_spurious r.n_unknown r.n_missed r.n_agree_concrete
       r.n_unobserved r.spurious_rate);
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (entry_to_json e))
    r.entries;
  Buffer.add_string buf "]}";
  Buffer.contents buf
