(** Seeded crash-report load generator (see report_gen.mli). *)

module Methods = Instrument.Methods

type source = {
  s_key : string;  (** workload key ("mkdir", "userver") *)
  s_program : string;  (** program name the wire form will carry *)
  s_meth : Methods.t;
  s_prog : unit -> Minic.Program.t;
  s_scenario : unit -> Concolic.Scenario.t;
  s_analyze_lib : bool;
}

let coreutils_source util meth =
  let e = Coreutils.find util in
  {
    s_key = util;
    s_program = util;
    s_meth = meth;
    s_prog = (fun () -> Lazy.force e.Coreutils.prog);
    s_scenario = (fun () -> Coreutils.crash_scenario e);
    s_analyze_lib = true;
  }

(* µServer crashes arrive from simulated clients: the experiment's
   requests ride behind a benign Http_gen preamble-free stream (the
   experiment scenario itself), named "userver-expN" on the wire *)
let userver_source id meth =
  let e = Userver.experiment id in
  {
    s_key = "userver";
    s_program = Printf.sprintf "userver-exp%d" id;
    s_meth = meth;
    s_prog = (fun () -> Lazy.force Userver.prog);
    s_scenario = (fun () -> Userver.experiment_scenario e);
    s_analyze_lib = false;
  }

let quick_sources () =
  [
    coreutils_source "mkdir" Methods.All_branches;
    coreutils_source "paste" Methods.Static;
    userver_source 1 Methods.Static;
  ]

let full_sources () =
  [
    coreutils_source "mkdir" Methods.All_branches;
    coreutils_source "mknod" Methods.Static;
    coreutils_source "mkfifo" Methods.All_branches;
    coreutils_source "paste" Methods.Static;
    userver_source 1 Methods.Static;
    userver_source 3 Methods.Static;
  ]

type t = {
  config : Bugrepro.Pipeline.Config.t;
  sources : source list;
  analyses : (string, Bugrepro.Pipeline.analysis) Hashtbl.t;  (** by s_key *)
  plans :
    ( string * Methods.t,
      Minic.Program.t * Instrument.Plan.t )
    Hashtbl.t;  (** by (s_key, method) *)
  mutable wires : string array option;  (** one recorded wire per source *)
}

let make ?(quick = false) ~config () =
  {
    config;
    sources = (if quick then quick_sources () else full_sources ());
    analyses = Hashtbl.create 8;
    plans = Hashtbl.create 8;
    wires = None;
  }

let bases t = List.map (fun s -> (s.s_program, s.s_meth)) t.sources

let source_config t (s : source) =
  Bugrepro.Pipeline.Config.with_analyze_lib s.s_analyze_lib t.config

let analysis_of t (s : source) =
  match Hashtbl.find_opt t.analyses s.s_key with
  | Some a -> a
  | None ->
      let a = Bugrepro.Pipeline.Run.analyze (source_config t s) (s.s_prog ()) in
      Hashtbl.add t.analyses s.s_key a;
      a

let plan_of t (s : source) =
  match Hashtbl.find_opt t.plans (s.s_key, s.s_meth) with
  | Some pp -> pp
  | None ->
      let analysis = analysis_of t s in
      let plan =
        Bugrepro.Pipeline.Run.plan (source_config t s) analysis s.s_meth
      in
      let pp = (analysis.Bugrepro.Pipeline.prog, plan) in
      Hashtbl.add t.plans (s.s_key, s.s_meth) pp;
      pp

(* Program-name resolution, ignoring the method: exact scenario name,
   then workload key, then the prefix before the first '-'. *)
let find_source t ~program =
  let by key =
    List.find_opt (fun s -> String.equal s.s_key key) t.sources
  in
  match
    List.find_opt (fun s -> String.equal s.s_program program) t.sources
  with
  | Some s -> Some s
  | None -> (
      match by program with
      | Some s -> Some s
      | None -> (
          match String.index_opt program '-' with
          | None -> None
          | Some i -> by (String.sub program 0 i)))

(* The wire form names the program by its field-run scenario name; match
   exactly first, then by the prefix before the first '-' (the same
   convention the CLI's triage resolver uses for "userver-exp3"). *)
let source_for t ~program ~meth =
  let matches (s : source) key = String.equal s.s_key key && s.s_meth = meth in
  let by key = List.find_opt (fun s -> matches s key) t.sources in
  let found =
    match List.find_opt (fun s -> String.equal s.s_program program) t.sources with
    | Some s when s.s_meth = meth -> Some s
    | _ -> (
        match by program with
        | Some s -> Some s
        | None -> (
            match String.index_opt program '-' with
            | None -> None
            | Some i -> by (String.sub program 0 i)))
  in
  match found with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "report_gen: no base for %s (%s)" program
           (Methods.to_string meth))

let plan_for t ~program ~meth =
  Result.map (plan_of t) (source_for t ~program ~meth)

let crash_base t ~program ~meth =
  match find_source t ~program with
  | None ->
      Error
        (Printf.sprintf "report_gen: no base for %s (%s)" program
           (Methods.to_string meth))
  | Some s ->
      (* re-key the source on the requested method: [plan_of] memoizes by
         (workload, method), so any §2.3 plan can be compiled over a
         recorded base regardless of the method it was recorded with *)
      let s = { s with s_meth = meth } in
      let prog, plan = plan_of t s in
      Ok (prog, plan, s.s_scenario ())

let record_wires t =
  match t.wires with
  | Some w -> w
  | None ->
      let w =
        t.sources
        |> List.map (fun s ->
               let _prog, plan = plan_of t s in
               let _field, report =
                 Bugrepro.Pipeline.Run.field_run_report (source_config t s)
                   ~plan (s.s_scenario ())
               in
               match report with
               | Some r -> Instrument.Wire.serialize r
               | None ->
                   failwith
                     (s.s_program ^ ": crash scenario did not crash"))
        |> Array.of_list
      in
      t.wires <- Some w;
      w

(* ------------------------------------------------------------------ *)

type report = { client : int; path : string; wire : string; torn : bool }

(* cut into the tail of the branch payload hex (wire-v4 [branch-enc]
   token stream, or [branch-log] on raw wires): strictly malformed,
   salvageable — the shape a crashing process tearing the tail of its
   own log buffer leaves behind.  Cuts land at one of three quantized
   depths (97..99% of the payload) so the torn variants stay few, cluster
   tightly, and replay cheaply — the missing tail is short enough that
   guided replay reliably reconstructs it whatever the worker count. *)
let tear ?cut_pct ?lost_hex rng wire =
  match Instrument.Wire.payload_span wire with
  | None -> wire
  | Some (start, hex_end) ->
      let hex_len = hex_end - start in
      if hex_len <= 2 then String.sub wire 0 start
      else
        let cut =
          match lost_hex with
          | Some k ->
              (* absolute tail loss: the unflushed buffer tail a crashing
                 process drops is a fixed byte count, whatever the
                 instrumentation density — so denser plans lose a shorter
                 execution suffix *)
              max 1 (min (hex_len - 1) (hex_len - max 1 k))
          | None ->
              let pct =
                match cut_pct with
                | Some p -> max 1 (min 99 p)
                | None -> [| 97; 98; 99 |].(Osmodel.Rng.range rng 0 2)
              in
              max 1 (min (hex_len - 1) (hex_len * pct / 100))
        in
        String.sub wire 0 (start + cut)

let stream t ~seed ~clients ~torn_pct n : report list =
  if clients < 1 then invalid_arg "Report_gen.stream: clients must be >= 1";
  if n < 0 then invalid_arg "Report_gen.stream: n must be >= 0";
  let wires = record_wires t in
  let n_bases = Array.length wires in
  let rng = Osmodel.Rng.create seed in
  let torn_permille = int_of_float (torn_pct *. 1000.0) in
  List.init n (fun i ->
      (* duplicates dominate, as in a real fleet: a client's crash is a
         seeded pick over the recorded bases, biased towards the first
         (hot) bug by drawing twice and keeping the smaller index *)
      let a = Osmodel.Rng.int rng n_bases in
      let b = Osmodel.Rng.int rng n_bases in
      let base = min a b in
      let client = Osmodel.Rng.int rng clients in
      let torn = Osmodel.Rng.int rng 1000 < torn_permille in
      let wire = if torn then tear rng wires.(base) else wires.(base) in
      {
        client;
        path = Printf.sprintf "client-%04d/r%05d.report" client i;
        wire;
        torn;
      })
