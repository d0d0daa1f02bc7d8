(* E16 — extension: batch triage of a crash-report stream.  Not in the
   paper; measures the developer-side ingestion tier (DESIGN.md §5f):
   torn-report salvage, fingerprint dedup and the escalating-budget
   scheduler, drained sequentially vs by a pool of worker domains.

   The batch is built in memory from the coreutils demo crashes:
   duplicates dominate (the WER premise behind dedup) and a few reports
   arrive torn mid-hex, as a crashing process tearing its own log buffer
   would leave them.  A probe-elision tier re-runs the same crashes with
   suppression on and folds the resulting v3 reports (one torn) into the
   batch, so the salvage path also exercises replay-side reconstruction;
   its elision counts, bit savings and CPU deltas land in the --json
   summary as suppression/* metrics.  Whatever the worker count, the
   timing-stripped summary must be byte-identical — scheduling may change
   how long triage takes, never what it concludes. *)

let sprintf = Printf.sprintf

module Wire = Instrument.Wire
module Report = Instrument.Report

(* The fifth base exercises the redundancy class probe elision targets:
   the record's first byte selects a processing mode, so its tests are
   symbolic — dynamic+static instruments them — yet provably redundant:
   loop-invariant inside the scan loop, dominator-implied outside it (the
   [print_str] between the two mode tests is harmless because builtin
   effects are modelled).  Parsers that re-test a record-type byte per
   field have exactly this shape. *)
let logscan_source =
  "// logscan: tally markers in a record whose first byte picks the mode\n\
   int nbang;\n\
   int scan(int *rec, int n) {\n\
  \  int mode = rec[0];\n\
  \  int hits = 0;\n\
  \  if (mode == 'u') { print_str(\"urgent record\\n\"); }\n\
  \  int i = 1;\n\
  \  while (i < n) {\n\
  \    if (mode == 'u') {\n\
  \      if (rec[i] == '!') { hits = hits + 2; }\n\
  \    }\n\
  \    if (mode == 'm') {\n\
  \      if (rec[i] == '#') { hits = hits + 1; }\n\
  \    }\n\
  \    if (rec[i] == '!') { nbang = nbang + 1; }\n\
  \    i = i + 1;\n\
  \  }\n\
  \  if (mode == 'u') { hits = hits + 1; }\n\
  \  return hits;\n\
   }\n\
   int main() {\n\
  \  int rec[128];\n\
  \  int n = arg(0, rec, 128);\n\
  \  if (n < 2) { return 1; }\n\
  \  int hits = scan(rec, n);\n\
  \  if (hits > 3) {\n\
  \    if (nbang > 2) { crash(); }\n\
  \  }\n\
  \  return 0;\n\
   }\n"

let logscan_prog =
  lazy (Minic.Program.of_sources ~name:"logscan" ~app:logscan_source ~libs:[] ())

type base = {
  b_name : string;
  b_meth : Instrument.Methods.t;
  b_prog : Minic.Program.t Lazy.t;
  b_crash_args : string list;
  b_analysis_args : string list option;
      (* developer-side argv for dynamic analysis; [None] = static-only
         labelling is enough for [b_meth] *)
}

let coreutils_base name meth =
  let e = Workloads.Coreutils.find name in
  {
    b_name = name;
    b_meth = meth;
    b_prog = e.Workloads.Coreutils.prog;
    b_crash_args = e.crashing_args;
    b_analysis_args = None;
  }

let bases =
  [
    coreutils_base "mkdir" Instrument.Methods.All_branches;
    coreutils_base "mknod" Instrument.Methods.Static;
    coreutils_base "paste" Instrument.Methods.Static;
    coreutils_base "mkfifo" Instrument.Methods.All_branches;
    {
      b_name = "logscan";
      b_meth = Instrument.Methods.Dynamic_static;
      b_prog = logscan_prog;
      b_crash_args = [ "u!!aaa!aaa!aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" ];
      b_analysis_args = Some [ "maaaa#aaaaaa" ];
    };
  ]

(* duplicates per base: 15 intact reports over 5 clusters *)
let copies = [ 4; 3; 3; 2; 3 ]

(* cut into the tail of the branch payload hex (the v4 [branch-enc]
   token stream, or [branch-log] on raw wires): strictly malformed,
   salvageable.  The cut keeps 3/4 of the payload — on an encoded wire
   each lost byte is a whole token, i.e. many decoded bits, so a
   halfway cut would leave too short a prefix to guide replay at all *)
let tear wire =
  match Instrument.Wire.payload_span wire with
  | None -> wire
  | Some (start, hex_end) ->
      String.sub wire 0 (start + (3 * (hex_end - start) / 4))

(* one probe-elision measurement per batch base: elision counts, shipped
   bits and field/replay CPU with suppression off vs on *)
type sup_row = {
  s_util : string;
  s_instr : int;  (* instrumented probe sites *)
  s_sup : Staticanalysis.Suppression.t;
  s_full_bits : int;
  s_sup_bits : int;
  s_full_enc_bytes : int;  (* online-encoded transfer bytes, raw plan *)
  s_sup_enc_bytes : int;  (* online-encoded transfer bytes, suppressed *)
  s_raw_field_s : float;
  s_sup_field_s : float;
  s_raw_ok : bool;
  s_sup_ok : bool;
  s_raw_replay_s : float;
  s_sup_replay_s : float;
  s_wire : string;  (* the suppressed v3 report, for the batch *)
}

let e16 (c : Ctx.t) =
  let par_jobs = if c.jobs > 1 then c.jobs else 4 in
  Util.section ~id:"E16" ~paper:"extension"
    (sprintf
       "Batch triage: salvage + dedup + budgeted replay, jobs=1 vs jobs=%d"
       par_jobs);
  let cfg = Ctx.pipeline_config c in
  let analyses = Hashtbl.create 8 in
  let plans = Hashtbl.create 8 in
  let crash_scenario (b : base) =
    Concolic.Scenario.make ~name:b.b_name ~args:b.b_crash_args
      (Lazy.force b.b_prog)
  in
  let wire_of (b : base) =
    let analysis =
      match Hashtbl.find_opt analyses b.b_name with
      | Some a -> a
      | None ->
          let test_scenario =
            Option.map
              (fun args ->
                Concolic.Scenario.make ~name:(b.b_name ^ "-analysis") ~args
                  (Lazy.force b.b_prog))
              b.b_analysis_args
          in
          let a =
            Bugrepro.Pipeline.Run.analyze cfg ?test_scenario
              (Lazy.force b.b_prog)
          in
          Hashtbl.add analyses b.b_name a;
          a
    in
    let plan = Bugrepro.Pipeline.Run.plan cfg analysis b.b_meth in
    Hashtbl.replace plans (b.b_name, b.b_meth)
      (analysis.Bugrepro.Pipeline.prog, plan);
    let _, report =
      Bugrepro.Pipeline.Run.field_run_report cfg ~plan (crash_scenario b)
    in
    match report with
    | Some r -> Wire.serialize r
    | None -> failwith (b.b_name ^ ": demo scenario did not crash")
  in
  let wires = List.map wire_of bases in
  (* probe-elision tier: the same crashes with the suppression refinement
     on.  The analysis output is proof-checked before the plan is trusted,
     both field runs replay to the same verdict, and the suppressed v3
     wires join the batch below so triage reconstructs elided bits on the
     salvage path too. *)
  let module Sup = Staticanalysis.Suppression in
  let sup_measure (b : base) =
    let prog, plan = Hashtbl.find plans (b.b_name, b.b_meth) in
    let instrumented = plan.Instrument.Plan.instrumented in
    let sup = Sup.analyze ~instrumented prog in
    (match Sup.verify ~instrumented prog (Sup.to_table sup) with
    | Ok () -> ()
    | Error m -> failwith (b.b_name ^ ": suppression proof rejected: " ^ m));
    let plan_sup = Instrument.Plan.with_suppression plan sup in
    let sc = crash_scenario b in
    let reps = if c.quick then 3 else 10 in
    let field plan =
      Util.time_call (fun () ->
          let r = ref None in
          for _ = 1 to reps do
            r := snd (Bugrepro.Pipeline.Run.field_run_report cfg ~plan sc)
          done;
          match !r with
          | Some r -> r
          | None -> failwith (b.b_name ^ ": demo scenario did not crash"))
    in
    let raw_r, raw_field_s = field plan in
    let sup_r, sup_field_s = field plan_sup in
    let replay plan r =
      Util.time_call (fun () ->
          fst (Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan r))
    in
    let raw_v, raw_replay_s = replay plan raw_r in
    let sup_v, sup_replay_s = replay plan_sup sup_r in
    {
      s_util = b.b_name;
      s_instr =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 instrumented;
      s_sup = sup;
      s_full_bits = Report.nbits raw_r;
      s_sup_bits = Report.nbits sup_r;
      s_full_enc_bytes = Report.payload_bytes raw_r;
      s_sup_enc_bytes = Report.payload_bytes sup_r;
      s_raw_field_s = raw_field_s;
      s_sup_field_s = sup_field_s;
      s_raw_ok =
        (match raw_v with Replay.Guided.Reproduced _ -> true | _ -> false);
      s_sup_ok =
        (match sup_v with Replay.Guided.Reproduced _ -> true | _ -> false);
      s_raw_replay_s = raw_replay_s;
      s_sup_replay_s = sup_replay_s;
      s_wire = Wire.serialize sup_r;
    }
  in
  let sup_rows = List.map sup_measure bases in
  let sup_wires = List.map (fun r -> r.s_wire) sup_rows in
  let texts =
    List.concat
      (List.map2 (fun w n -> List.init n (fun _ -> w)) wires copies)
    @ [ tear (List.nth wires 0); tear (List.nth wires 1) ]
    @ sup_wires
    @ [ tear (List.nth sup_wires 0) ]
  in
  let items =
    List.mapi
      (fun i s ->
        match Triage.Ingest.of_string ~path:(sprintf "r%03d.report" i) s with
        | Ok item -> item
        | Error r ->
            failwith
              (sprintf "batch report %d rejected: %s" i
                 (Wire.error_to_string r.Triage.Ingest.error)))
      texts
  in
  let resolve (cl : Triage.Cluster.t) =
    let r = cl.Triage.Cluster.representative.Triage.Ingest.report in
    match Hashtbl.find_opt plans (r.Report.program, r.Report.method_used) with
    | Some pp -> Ok pp
    | None -> Error ("no plan for " ^ r.Report.program)
  in
  let triage jobs =
    let policy =
      { (Triage.Sched.policy_of_config cfg) with
        Triage.Sched.jobs;
        deadline_s = 12.0 *. c.replay_time_s }
    in
    Util.time_call (fun () ->
        Util.triage_batch ~policy ~telemetry:c.telemetry ~resolve items)
  in
  let s1, seq_s = triage 1 in
  let sp, par_s = triage par_jobs in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  let row label (s : Triage.Summary.t) wall =
    [
      label;
      string_of_int s.reports;
      string_of_int s.salvaged;
      string_of_int (List.length s.clusters);
      sprintf "%.2f" s.dedup_ratio;
      sprintf "%d (%d from salvage)"
        (s.reproduced + s.salvaged_reproduced)
        s.salvaged_reproduced;
      string_of_int (s.timed_out + s.exhausted);
      Util.seconds wall;
    ]
  in
  Util.table
    [
      [ "configuration"; "reports"; "salvaged"; "clusters"; "dedup";
        "reproduced"; "not repro"; "wall clock" ];
      row "jobs=1" s1 seq_s;
      row (sprintf "jobs=%d" par_jobs) sp par_s;
    ];
  (* probe-elision tier: per-base elision verdicts and the raw-vs-
     suppressed cost comparison (§3.1 outcomes must not change) *)
  print_newline ();
  let pct_delta raw sup =
    if raw <= 0.0 then "n/a" else sprintf "%+.0f%%" (100.0 *. (sup -. raw) /. raw)
  in
  Util.table
    ([
       [ "probe elision"; "probes"; "elided c/a/d/i"; "bits raw>sup";
         "enc bytes raw>sup"; "field cpu"; "replay"; "repro" ];
     ]
    @ List.map
        (fun r ->
          let s = r.s_sup in
          [
            r.s_util;
            string_of_int r.s_instr;
            sprintf "%d/%d/%d/%d" s.Staticanalysis.Suppression.n_const
              s.n_arm s.n_implied s.n_invariant;
            sprintf "%d > %d" r.s_full_bits r.s_sup_bits;
            sprintf "%d > %d" r.s_full_enc_bytes r.s_sup_enc_bytes;
            pct_delta r.s_raw_field_s r.s_sup_field_s;
            pct_delta r.s_raw_replay_s r.s_sup_replay_s;
            sprintf "%s/%s"
              (if r.s_raw_ok then "yes" else "no")
              (if r.s_sup_ok then "yes" else "no");
          ])
        sup_rows);
  let sumi f = List.fold_left (fun a r -> a + f r) 0 sup_rows in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 sup_rows in
  let full_bits = sumi (fun r -> r.s_full_bits) in
  let sup_bits = sumi (fun r -> r.s_sup_bits) in
  let raw_ok = sumi (fun r -> if r.s_raw_ok then 1 else 0) in
  let sup_ok = sumi (fun r -> if r.s_sup_ok then 1 else 0) in
  let raw_field = sumf (fun r -> r.s_raw_field_s) in
  let sup_field = sumf (fun r -> r.s_sup_field_s) in
  let raw_replay = sumf (fun r -> r.s_raw_replay_s) in
  let sup_replay = sumf (fun r -> r.s_sup_replay_s) in
  let delta raw sup = if raw > 0.0 then 100.0 *. (sup -. raw) /. raw else 0.0 in
  let sup_metric k v = Util.record_metric ~experiment:"E16" ("suppression/" ^ k) v in
  sup_metric "probes" (float_of_int (sumi (fun r -> r.s_instr)));
  sup_metric "elided"
    (float_of_int
       (sumi (fun r -> Staticanalysis.Suppression.n_elided r.s_sup)));
  sup_metric "elided_const"
    (float_of_int (sumi (fun r -> r.s_sup.Staticanalysis.Suppression.n_const)));
  sup_metric "elided_arm"
    (float_of_int (sumi (fun r -> r.s_sup.Staticanalysis.Suppression.n_arm)));
  sup_metric "elided_implied"
    (float_of_int
       (sumi (fun r -> r.s_sup.Staticanalysis.Suppression.n_implied)));
  sup_metric "elided_invariant"
    (float_of_int
       (sumi (fun r -> r.s_sup.Staticanalysis.Suppression.n_invariant)));
  sup_metric "full_bits" (float_of_int full_bits);
  sup_metric "suppressed_bits" (float_of_int sup_bits);
  sup_metric "encoded_bytes"
    (float_of_int (sumi (fun r -> r.s_full_enc_bytes)));
  sup_metric "sup_encoded_bytes"
    (float_of_int (sumi (fun r -> r.s_sup_enc_bytes)));
  sup_metric "bits_saved_pct"
    (if full_bits > 0 then
       100.0 *. float_of_int (full_bits - sup_bits) /. float_of_int full_bits
     else 0.0);
  sup_metric "field_cpu_delta_pct" (delta raw_field sup_field);
  sup_metric "replay_cpu_delta_pct" (delta raw_replay sup_replay);
  sup_metric "raw_reproduced" (float_of_int raw_ok);
  sup_metric "sup_reproduced" (float_of_int sup_ok);
  sup_metric "equal_replay_success" (if raw_ok = sup_ok then 1.0 else 0.0);
  sup_metric "reports_in_batch" (float_of_int (List.length sup_wires + 1));
  Printf.printf
    "probe elision: %d bits -> %d bits (%.0f%% saved) at %d/%d vs %d/%d \
     reproduced\n"
    full_bits sup_bits
    (if full_bits > 0 then
       100.0 *. float_of_int (full_bits - sup_bits) /. float_of_int full_bits
     else 0.0)
    raw_ok (List.length sup_rows) sup_ok (List.length sup_rows);
  let deterministic =
    Triage.Summary.to_json ~timing:false s1
    = Triage.Summary.to_json ~timing:false sp
  in
  Util.record_metric ~experiment:"E16" "reports" (float_of_int s1.reports);
  Util.record_metric ~experiment:"E16" "dedup_ratio" s1.dedup_ratio;
  Util.record_metric ~experiment:"E16" "salvage_rate"
    (float_of_int s1.salvaged /. float_of_int (max 1 s1.reports));
  Util.record_metric ~experiment:"E16" "reproduced"
    (float_of_int (s1.reproduced + s1.salvaged_reproduced));
  Util.record_metric ~experiment:"E16" "salvaged_reproduced"
    (float_of_int s1.salvaged_reproduced);
  Util.record_metric ~experiment:"E16" "j1/seconds" seq_s;
  Util.record_metric ~experiment:"E16"
    (sprintf "j%d/seconds" par_jobs)
    par_s;
  Util.record_metric ~experiment:"E16" "speedup" speedup;
  Util.record_metric ~experiment:"E16" "summary_deterministic"
    (if deterministic then 1.0 else 0.0);
  Printf.printf "summary parity across worker counts: %s\n"
    (if deterministic then "OK" else "MISMATCH");
  print_endline
    "expected shape: dedup collapses the batch to one replay per distinct\n\
     crash (dedup well below 1.0), the torn reports are salvaged and still\n\
     reproduced, and extra worker domains only shorten the wall clock —\n\
     the timing-stripped summary is byte-identical across worker counts.\n\
     The suppressed v3 reports (one torn) cluster apart from their raw\n\
     twins and replay through bit reconstruction, at equal reproduction\n\
     success and strictly fewer shipped bits."
