(* Tests for the triage subsystem (§5f): torn-report salvage, fingerprint
   dedup, escalating-budget scheduling with honest elapsed-time accounting,
   and the deterministic summary (jobs=1 vs jobs=4). *)

module Wire = Instrument.Wire
module Report = Instrument.Report
module Ingest = Triage.Ingest
module Cluster = Triage.Cluster
module Fingerprint = Triage.Fingerprint
module Sched = Triage.Sched
module Summary = Triage.Summary

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* batch wrapper, unwrapped: none of these tests pass an index_dir, so an
   [Error] is a test failure, not a condition to handle *)
let run_items ?policy ~resolve ?rejected items =
  match Triage.run_items ?policy ~resolve ?rejected items with
  | Ok s -> s
  | Error e -> Alcotest.failf "run_items: %s" (Triage.Index.error_to_string e)

(* full pipeline on a small program: returns (prog, plan, report) *)
let record ?(name = "t") ?(meth = Instrument.Methods.All_branches)
    ?(args = []) ?world src =
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name ~args ?world prog in
  let analysis =
    Bugrepro.Pipeline.analyze
      ~dynamic_budget:{ Concolic.Engine.max_runs = 40; max_time_s = 5.0 }
      ~test_scenario:sc prog
  in
  let plan = Bugrepro.Pipeline.plan analysis meth in
  let _, report = Bugrepro.Pipeline.field_run_report ~plan sc in
  (prog, plan, Option.get report)

let magic_src =
  "int main() {\n\
  \  int b[8];\n\
  \  arg(0, b, 8);\n\
  \  if (b[0] == 'B') {\n\
  \    if (b[1] == 'U') {\n\
  \      if (b[2] == 'G') { crash(); }\n\
  \    }\n\
  \  }\n\
  \  return 0;\n\
   }"

let file_src =
  "int main() {\n\
  \  int b[16];\n\
  \  int fd = open(\"data\", 0);\n\
  \  int n = read(fd, b, 16);\n\
  \  if (n > 2) {\n\
  \    if (b[0] == 'X') { crash(); }\n\
  \  }\n\
  \  return 0;\n\
   }"

let file_world contents =
  { Osmodel.World.default_config with files = [ ("data", contents) ] }

let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

(* Start of the hex payload: v4 encoded reports carry "branch-enc: ",
   raw ones "branch-log: ". *)
let payload_hex_start wire =
  match find_sub wire "branch-enc: " with
  | Some pos -> pos + String.length "branch-enc: "
  | None ->
      Option.get (find_sub wire "branch-log: ")
      + String.length "branch-log: "

(* ------------------------------------------------------------------ *)
(* Salvage: the lenient reader on every truncation and on corruption *)

let test_salvage_truncation_sweep () =
  let _, _, report = record ~args:[ "BUG" ] magic_src in
  let wire = Wire.serialize report in
  let n = String.length wire in
  let prev_bits = ref (-1) in
  let torn_ok = ref 0 in
  for cut = 0 to n do
    let s = String.sub wire 0 cut in
    match Wire.deserialize_salvage s with
    | exception e ->
        Alcotest.failf "cut %d raised %s" cut (Printexc.to_string e)
    | Error (Wire.Unknown_version v) ->
        Alcotest.failf "cut %d misread a truncation as version %d" cut v
    | Error (Wire.Malformed _) -> ()
    | Ok (r, diag) ->
        check_bool "program preserved" true
          (r.Report.program = report.Report.program);
        check_bool "crash site preserved" true
          (Interp.Crash.equal_site r.Report.crash report.Report.crash);
        let bits = Report.nbits r in
        check_bool "salvaged bits monotone in the cut" true (bits >= !prev_bits);
        prev_bits := bits;
        if not diag.Wire.complete then incr torn_ok;
        (* a salvaged report must re-serialize past the strict reader *)
        (match Wire.deserialize_v (Wire.serialize r) with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "cut %d: re-serialized salvage rejected: %s" cut
              (Wire.error_to_string e))
  done;
  (match Wire.deserialize_salvage wire with
  | Ok (_, diag) ->
      check_bool "the untorn input salvages as complete" true diag.Wire.complete
  | Error e -> Alcotest.failf "untorn input rejected: %s" (Wire.error_to_string e));
  check_bool "some torn prefixes were salvaged" true (!torn_ok > 0)

let test_salvage_corrupted_hex () =
  let _, _, report = record ~args:[ "BUG" ] magic_src in
  let wire = Wire.serialize report in
  let pos = payload_hex_start wire in
  let bad = Bytes.of_string wire in
  Bytes.set bad pos 'z';
  let bad = Bytes.to_string bad in
  (match Wire.deserialize_v bad with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "strict reader accepted corrupted hex"
  | Error (Wire.Unknown_version _) -> Alcotest.fail "wrong strict error");
  match Wire.deserialize_salvage bad with
  | Ok (r, diag) ->
      check_bool "crash site survives hex corruption" true
        (Interp.Crash.equal_site r.Report.crash report.Report.crash);
      check_bool "lost bits are accounted" true (diag.Wire.lost_log_bits > 0)
  | Error e -> Alcotest.failf "salvage rejected: %s" (Wire.error_to_string e)

let test_salvage_unknown_version_fail_closed () =
  let _, _, report = record ~args:[ "BUG" ] magic_src in
  let wire = Wire.serialize report in
  let nl = String.index wire '\n' in
  let future =
    Wire.magic_prefix ^ "9" ^ String.sub wire nl (String.length wire - nl)
  in
  match Wire.deserialize_salvage future with
  | Error (Wire.Unknown_version 9) -> ()
  | Ok _ -> Alcotest.fail "salvage laundered an unknown version into a report"
  | Error e -> Alcotest.failf "wrong error: %s" (Wire.error_to_string e)

let test_ingest_strict_first () =
  let _, _, report = record ~args:[ "BUG" ] magic_src in
  let wire = Wire.serialize report in
  (match Ingest.of_string ~path:"a" wire with
  | Ok item -> check_bool "intact report is not salvaged" false (Ingest.salvaged item)
  | Error _ -> Alcotest.fail "intact report rejected");
  let torn =
    (* cut mid-hex: the claimed bit count now exceeds the log, which the
       strict reader rejects and salvage recovers *)
    String.sub wire 0 (payload_hex_start wire + 1)
  in
  (match Ingest.of_string ~path:"b" torn with
  | Ok item -> check_bool "torn report comes through salvage" true (Ingest.salvaged item)
  | Error _ -> Alcotest.fail "torn report rejected");
  match Ingest.of_string ~path:"c" "not a report" with
  | Error { Ingest.error = Wire.Malformed _; _ } -> ()
  | _ -> Alcotest.fail "garbage must be rejected"

(* ------------------------------------------------------------------ *)
(* Fingerprints and clustering *)

let test_fingerprint_dedup () =
  let _, _, ra = record ~name:"alpha" ~args:[ "BUG" ] magic_src in
  let _, _, rb = record ~name:"beta" ~world:(file_world "Xyz") file_src in
  let fa = Fingerprint.of_report ra and fb = Fingerprint.of_report rb in
  check_string "identical reports share a key" (Fingerprint.key fa)
    (Fingerprint.key (Fingerprint.of_report ra));
  check_bool "distinct crashes keep distinct keys" false
    (Fingerprint.equal fa fb);
  let wa = Wire.serialize ra and wb = Wire.serialize rb in
  let item p s =
    match Ingest.of_string ~path:p s with
    | Ok i -> i
    | Error _ -> Alcotest.failf "ingest %s failed" p
  in
  let clusters =
    Cluster.group [ item "r0" wa; item "r1" wa; item "r2" wb; item "r3" wa ]
  in
  check_int "two clusters" 2 (List.length clusters);
  let find prog =
    List.find (fun (c : Cluster.t) -> c.fp.Fingerprint.program = prog) clusters
  in
  check_int "alpha duplicates collapsed" 3 (Cluster.size (find "alpha"));
  check_int "beta alone" 1 (Cluster.size (find "beta"))

let test_cluster_prefers_intact_representative () =
  (* damage only the payload's tail: a dangling token header appended to
     the encoded stream is cut away by salvage, so every real bit (and
     hence the fingerprint sketch) survives — the torn copy lands in the
     intact copy's cluster, and must not be elected *)
  let _, _, rb = record ~name:"beta" ~world:(file_world "Xyz") file_src in
  let wb = Wire.serialize rb in
  let torn = String.sub wb 0 (String.length wb - 1) ^ "8c\n" in
  let item p s =
    match Ingest.of_string ~path:p s with
    | Ok i -> i
    | Error _ -> Alcotest.failf "ingest %s failed" p
  in
  (* the torn path sorts first: election must not be by path here *)
  match Cluster.group [ item "a-torn" torn; item "b-intact" wb ] with
  | [ c ] ->
      check_int "same fingerprint" 2 (Cluster.size c);
      check_string "intact member elected" "b-intact"
        c.Cluster.representative.Ingest.path;
      check_bool "cluster not counted as salvaged" false (Cluster.salvaged c)
  | cs -> Alcotest.failf "expected one cluster, got %d" (List.length cs)

(* ------------------------------------------------------------------ *)
(* S4: replaying a salvaged report is sound at every log truncation *)

let test_truncated_log_replay_sound () =
  let prog, plan, report = record ~args:[ "BUG" ] magic_src in
  let wire = Wire.serialize report in
  let start = payload_hex_start wire in
  let stop = String.index_from wire start '\n' in
  let exhausted = ref 0 in
  for cut = start to stop do
    let s = String.sub wire 0 cut in
    match Wire.deserialize_salvage s with
    | Error e -> Alcotest.failf "cut %d rejected: %s" cut (Wire.error_to_string e)
    | Ok (r, _) -> (
        match
          Replay.Guided.reproduce
            ~budget:{ Concolic.Engine.max_runs = 200; max_time_s = 10.0 }
            ~prog ~plan r
        with
        | exception e ->
            Alcotest.failf "cut %d: replay raised %s" cut (Printexc.to_string e)
        | Replay.Guided.Reproduced rr, stats ->
            check_bool "reproduced at the recorded site" true
              (Interp.Crash.equal_site rr.crash report.Report.crash);
            exhausted := !exhausted + stats.Replay.Guided.cases.log_exhausted
        | Replay.Guided.Not_reproduced _, stats ->
            exhausted := !exhausted + stats.Replay.Guided.cases.log_exhausted)
  done;
  check_bool "truncation exercised log-exhausted forking" true (!exhausted > 0)

(* ------------------------------------------------------------------ *)
(* S3: escalating budgets accumulate elapsed time honestly *)

let test_escalation_accumulates_elapsed () =
  let prog, _, _ = record ~args:[ "BUG" ] magic_src in
  let none =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "BUG" ] prog in
  let _, report = Bugrepro.Pipeline.field_run_report ~plan:none sc in
  let report = Option.get report in
  let item =
    match Ingest.of_string ~path:"r0" (Wire.serialize report) with
    | Ok i -> i
    | Error _ -> Alcotest.fail "ingest failed"
  in
  (* first rung: one run, guaranteed to come up empty on a pure search —
     the bug needs the second rung *)
  let policy =
    {
      Sched.default_policy with
      ladder =
        [
          { Concolic.Engine.max_runs = 1; max_time_s = 5.0 };
          { Concolic.Engine.max_runs = 400; max_time_s = 15.0 };
        ];
      deadline_s = 120.0;
    }
  in
  match
    Sched.run ~policy ~resolve:(fun _ -> Ok (prog, none)) (Cluster.group [ item ])
  with
  | [ r ] ->
      check_bool "reproduced on the second rung" true
        (match r.Sched.status with Sched.Reproduced _ -> true | _ -> false);
      check_int "both rungs tried" 2 r.Sched.rungs;
      check_int "per-rung breakdown matches" 2 (List.length r.Sched.rung_elapsed_s);
      let sum = List.fold_left ( +. ) 0.0 r.Sched.rung_elapsed_s in
      check_bool "cumulative elapsed sums every rung" true
        (Float.abs (r.Sched.elapsed_s -. sum) < 1e-6);
      check_bool "a retry never reports less than its predecessors" true
        (r.Sched.elapsed_s >= List.hd r.Sched.rung_elapsed_s);
      check_bool "runs accumulate across rungs" true (r.Sched.runs > 1)
  | rs -> Alcotest.failf "expected one cluster result, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Worker count must not change the summary (timing fields aside) *)

let test_jobs_invariant_summary () =
  let progA, planA, ra = record ~name:"alpha" ~args:[ "BUG" ] magic_src in
  let progB, planB, rb = record ~name:"beta" ~world:(file_world "Xyz") file_src in
  let wa = Wire.serialize ra and wb = Wire.serialize rb in
  let torn = String.sub wb 0 (Option.get (find_sub wb "syscalls: ") + 12) in
  let texts =
    [ ("r0.report", wa); ("r1.report", wa); ("r2.report", wb);
      ("r3.report", torn); ("r4.report", wa) ]
  in
  let items =
    List.map
      (fun (p, s) ->
        match Ingest.of_string ~path:p s with
        | Ok i -> i
        | Error _ -> Alcotest.failf "ingest %s failed" p)
      texts
  in
  let resolve (c : Cluster.t) =
    match c.Cluster.fp.Fingerprint.program with
    | "alpha" -> Ok (progA, planA)
    | "beta" -> Ok (progB, planB)
    | p -> Error ("unknown program " ^ p)
  in
  let summarize jobs =
    let policy = { Sched.default_policy with jobs; deadline_s = 120.0 } in
    run_items ~policy ~resolve items
  in
  let s1 = summarize 1 in
  check_bool "duplicates collapsed" true (s1.Summary.dedup_ratio < 1.0);
  check_bool "salvage path used" true (s1.Summary.salvaged > 0);
  check_int "every cluster reproduced"
    (List.length s1.Summary.clusters)
    (s1.Summary.reproduced + s1.Summary.salvaged_reproduced);
  let s4 = summarize 4 in
  check_string "jobs=1 and jobs=4 summaries agree"
    (Summary.to_json ~timing:false s1)
    (Summary.to_json ~timing:false s4)

(* A mixed-version batch — v4 encoded reports alongside v1/v2/v3 raw
   downgrades of the same crashes — must triage to exactly the summary an
   all-raw batch produces: the wire reader normalizes every accepted
   version to the same report, and raw/encoded twins fingerprint
   identically. *)

let test_mixed_version_batch_matches_all_raw () =
  let progA, planA, ra = record ~name:"alpha" ~args:[ "BUG" ] magic_src in
  let progB, planB, rb = record ~name:"beta" ~world:(file_world "Xyz") file_src in
  let raw_wire r =
    Wire.serialize
      { r with Report.branch_log = Report.Raw (Report.raw_log r) }
  in
  let with_version v wire =
    let nl = String.index wire '\n' in
    Printf.sprintf "bugrepro-report/%d%s" v
      (String.sub wire nl (String.length wire - nl))
  in
  let enc_a = Wire.serialize ra and enc_b = Wire.serialize rb in
  check_bool "fixture ships encoded payloads" true
    (find_sub enc_a "branch-enc: " <> None);
  let mixed =
    [ enc_a; with_version 3 (raw_wire ra); with_version 1 (raw_wire ra);
      enc_b; with_version 2 (raw_wire rb) ]
  in
  let all_raw =
    [ raw_wire ra; raw_wire ra; raw_wire ra; raw_wire rb; raw_wire rb ]
  in
  let items texts =
    List.mapi
      (fun i s ->
        match Ingest.of_string ~path:(Printf.sprintf "r%d.report" i) s with
        | Ok it -> it
        | Error _ -> Alcotest.failf "ingest r%d failed" i)
      texts
  in
  let resolve (c : Cluster.t) =
    match c.Cluster.fp.Fingerprint.program with
    | "alpha" -> Ok (progA, planA)
    | "beta" -> Ok (progB, planB)
    | p -> Error ("unknown program " ^ p)
  in
  let policy = { Sched.default_policy with Sched.deadline_s = 120.0 } in
  let sm = run_items ~policy ~resolve (items mixed) in
  let sr = run_items ~policy ~resolve (items all_raw) in
  check_int "two clusters" 2 (List.length sm.Summary.clusters);
  check_string "mixed-version batch summarizes like all-raw"
    (Summary.to_json ~timing:false sr)
    (Summary.to_json ~timing:false sm)

(* ------------------------------------------------------------------ *)
(* Streaming service: arrival-order invariance, restart survival,
   bounded overload with deterministic shedding, incremental ingestion *)

module Service = Triage.Service

let service_policy = { Sched.default_policy with Sched.deadline_s = 120.0 }

(* the jobs-invariant fixture, shared by the service tests: five reports
   over two distinct crashes, one torn *)
let service_fixture () =
  let progA, planA, ra = record ~name:"alpha" ~args:[ "BUG" ] magic_src in
  let progB, planB, rb = record ~name:"beta" ~world:(file_world "Xyz") file_src in
  let wa = Wire.serialize ra and wb = Wire.serialize rb in
  let torn = String.sub wb 0 (Option.get (find_sub wb "syscalls: ") + 12) in
  let texts =
    [ ("r0.report", wa); ("r1.report", wa); ("r2.report", wb);
      ("r3.report", torn); ("r4.report", wa) ]
  in
  let items =
    List.map
      (fun (p, s) ->
        match Ingest.of_string ~path:p s with
        | Ok i -> i
        | Error _ -> Alcotest.failf "ingest %s failed" p)
      texts
  in
  let resolve (c : Cluster.t) =
    match c.Cluster.fp.Fingerprint.program with
    | "alpha" -> Ok (progA, planA)
    | "beta" -> Ok (progB, planB)
    | p -> Error ("unknown program " ^ p)
  in
  (items, wa, resolve)

let open_service ?telemetry ~config resolve =
  match Service.open_ ?telemetry ~config ~resolve () with
  | Ok svc -> svc
  | Error e -> Alcotest.failf "open: %s" (Triage.Index.error_to_string e)

(* a scratch directory under the system temp dir; one flat level *)
let fresh_dir () =
  let f = Filename.temp_file "triage-test" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_service_matches_batch () =
  let items, _, resolve = service_fixture () in
  let batch = run_items ~policy:service_policy ~resolve items in
  let shuffled = Array.of_list items in
  Osmodel.Rng.shuffle (Osmodel.Rng.create 7) shuffled;
  let config =
    {
      Service.default_config with
      Service.policy = service_policy;
      queue_capacity = 8;
      burst = 1;
      window = 16;
      eager = true;
    }
  in
  let svc = open_service ~config resolve in
  Array.iter
    (fun it ->
      match Service.submit_item svc it with
      | Service.Queued -> ()
      | _ -> Alcotest.fail "in-capacity submission refused")
    shuffled;
  while Service.queue_depth svc > 0 do
    ignore (Service.tick svc)
  done;
  let snap = Service.snapshot svc in
  check_int "every report clustered" (List.length items) snap.Service.processed;
  check_bool "duplicates collapsed" true (snap.Service.dedup_ratio < 1.0);
  let streamed = Service.drain svc in
  Service.close svc;
  check_string "shuffled one-at-a-time streaming equals batch"
    (Summary.to_json ~timing:false batch)
    (Summary.to_json ~timing:false streamed)

let test_service_restart_survival () =
  let items, _, resolve = service_fixture () in
  let batch = run_items ~policy:service_policy ~resolve items in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        {
          Service.default_config with
          Service.policy = service_policy;
          queue_capacity = 8;
          eager = false;
          index_dir = Some dir;
          index_shards = 4;
        }
      in
      (* first incarnation: ingest three reports, then die without drain *)
      let first, rest =
        match items with
        | a :: b :: c :: rest -> ([ a; b; c ], rest)
        | _ -> Alcotest.fail "fixture too small"
      in
      let svc1 = open_service ~config resolve in
      List.iter (fun it -> ignore (Service.submit_item svc1 it)) first;
      while Service.queue_depth svc1 > 0 do
        ignore (Service.tick svc1)
      done;
      Service.close svc1;
      (* second incarnation: buckets rebuild from the index *)
      let tel = Telemetry.create () in
      let svc2 = open_service ~telemetry:tel ~config resolve in
      let snap = Service.snapshot svc2 in
      check_int "reloaded reports recluster" 3 snap.Service.processed;
      check_int "recovery is counted" 3
        (Telemetry.Metrics.counter_value tel "triage.service.recovered");
      List.iter (fun it -> ignore (Service.submit_item svc2 it)) rest;
      while Service.queue_depth svc2 > 0 do
        ignore (Service.tick svc2)
      done;
      let streamed = Service.drain svc2 in
      Service.close svc2;
      check_string "summary survives a mid-stream restart"
        (Summary.to_json ~timing:false batch)
        (Summary.to_json ~timing:false streamed))

let test_service_overload_determinism () =
  let items, _, resolve = service_fixture () in
  (* 40 submissions over a capacity-4 queue with no ticks: overload is
     guaranteed; the same stream must shed the same reports every time *)
  let stream = List.concat (List.init 8 (fun _ -> items)) in
  let run drop =
    let tel = Telemetry.create () in
    let config =
      {
        Service.default_config with
        Service.policy = service_policy;
        queue_capacity = 4;
        drop;
        eager = false;
      }
    in
    let svc = open_service ~telemetry:tel ~config resolve in
    let outcomes =
      List.map
        (fun it ->
          match Service.submit_item svc it with
          | Service.Queued -> 'q'
          | Service.Dropped _ -> 'd'
          | Service.Rejected _ -> 'r')
        stream
      |> List.to_seq |> String.of_seq
    in
    let snap = Service.snapshot svc in
    check_bool "the queue never exceeds its capacity" true
      (snap.Service.queued <= 4);
    check_int "drops are counted in telemetry" snap.Service.dropped
      (Telemetry.Metrics.counter_value tel "triage.service.dropped");
    Service.close svc;
    (outcomes, snap.Service.dropped)
  in
  let oc1, d1 = run Service.Reject_new in
  check_string "reject-new fills the queue then refuses"
    ("qqqq" ^ String.make 36 'd') oc1;
  check_int "reject-new counts every refusal" 36 d1;
  let oc2, d2 = run Service.Drop_oldest in
  check_string "drop-oldest always admits (evicting)" (String.make 40 'q') oc2;
  check_int "drop-oldest counts every eviction" 36 d2;
  let oc3, d3 = run (Service.Sample 0.5) in
  let oc3', d3' = run (Service.Sample 0.5) in
  check_string "seeded sampling is deterministic" oc3 oc3';
  check_int "and so is its drop count" d3 d3';
  check_bool "sampling actually shed something" true (d3 > 0)

let test_ingest_of_file_unreadable () =
  let path = Filename.concat (fresh_dir ()) "r0.report" in
  match Ingest.of_file path with
  | Error { Ingest.path = p; error = Wire.Malformed msg } ->
      check_string "provenance preserved" path p;
      check_bool "marked unreadable" true (find_sub msg "unreadable: " = Some 0);
      check_bool "carries the OS error text" true
        (find_sub msg "No such file" <> None)
  | Error _ -> Alcotest.fail "unreadable file must reject as Malformed"
  | Ok _ -> Alcotest.fail "unreadable file must be rejected"

let test_ingest_scanner_poll () =
  let _, wa, _ = service_fixture () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sc = Ingest.scanner dir in
      (* polls before the directory exists return nothing *)
      (match Ingest.poll sc with
      | [], [] -> ()
      | _ -> Alcotest.fail "missing directory must yield nothing");
      Sys.mkdir dir 0o755;
      write_file (Filename.concat dir "a.report") wa;
      write_file (Filename.concat dir "b.report") "not a report";
      write_file (Filename.concat dir "skipped.txt") wa;
      let is1, rj1 = Ingest.poll sc in
      check_int "one new report ingested" 1 (List.length is1);
      check_string "in sorted order" "a.report"
        (Filename.basename (List.hd is1).Ingest.path);
      check_int "the damaged file is rejected" 1 (List.length rj1);
      (* a damaged file is rejected once, not on every poll *)
      (match Ingest.poll sc with
      | [], [] -> ()
      | _ -> Alcotest.fail "a quiet directory must yield nothing");
      write_file (Filename.concat dir "c.report") wa;
      let is2, rj2 = Ingest.poll sc in
      check_int "only the new arrival is offered" 1 (List.length is2);
      check_string "and it is the new file" "c.report"
        (Filename.basename (List.hd is2).Ingest.path);
      check_int "no fresh rejections" 0 (List.length rj2);
      Alcotest.(check (list string))
        "seen remembers every offered name"
        [ "a.report"; "b.report"; "c.report" ]
        (Ingest.seen sc))

(* A file scanned mid-write is salvaged, then re-offered once the writer
   finishes: the intact version must flow through and supersede the torn
   one (the pre-fix scanner marked the name seen forever on first sight,
   burying the settled file). *)
let test_ingest_scanner_rescans_settled_write () =
  let _, wa, _ = service_fixture () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "r.report" in
      (* the writer has flushed half the report when the scanner polls *)
      write_file path (String.sub wa 0 (payload_hex_start wa + 1));
      let sc = Ingest.scanner dir in
      let is1, rj1 = Ingest.poll sc in
      check_int "torn file ingested" 1 (List.length is1);
      check_int "not rejected" 0 (List.length rj1);
      let torn_item = List.hd is1 in
      check_bool "through the salvage path" true (Ingest.salvaged torn_item);
      (* stat unchanged: the damaged verdict stands without a re-read *)
      (match Ingest.poll sc with
      | [], [] -> ()
      | _ -> Alcotest.fail "an unchanged torn file must not be re-offered");
      (* the writer finishes *)
      write_file path wa;
      let is2, rj2 = Ingest.poll sc in
      check_int "settled file re-offered" 1 (List.length is2);
      check_int "still not rejected" 0 (List.length rj2);
      let intact_item = List.hd is2 in
      check_bool "second ingest is the intact version" false
        (Ingest.salvaged intact_item);
      check_bool "the intact version supersedes the torn head" true
        (Cluster.better intact_item torn_item);
      (* an intact ingest is settled: never offered again *)
      (match Ingest.poll sc with
      | [], [] -> ()
      | _ -> Alcotest.fail "a settled file must not be re-offered"))

(* A rejected (garbage) file is also re-offered once its content moves —
   and a damaged persistent index is an [Error] from the batch wrapper,
   not an assertion failure. *)
let test_run_items_damaged_index_error () =
  let items, _, resolve = service_fixture () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Sys.mkdir dir 0o755;
      write_file (Filename.concat dir "shard-000.idx") "not an index\n";
      match
        Triage.run_items ~policy:service_policy ~index_dir:dir ~resolve items
      with
      | Error (Triage.Index.Malformed _) -> ()
      | Error (Triage.Index.Unknown_version _) ->
          Alcotest.fail "bad magic must be Malformed, not Unknown_version"
      | Ok _ -> Alcotest.fail "a damaged index must not open")

(* Run-bounded rungs (the service default): a policy whose wall-clock
   window has already expired still reproduces every cluster, because
   only run budgets bound the climb; the wall-clock opt-in flips the
   same clusters to timed_out.  This is the borderline-cluster flap the
   wall-clock ladder suffered on a shared core, pinned at its extreme. *)
let test_service_rungs_run_bounded () =
  let items, _, resolve = service_fixture () in
  let starved = { service_policy with Sched.deadline_s = 0.0 } in
  let run wall_rungs =
    let config =
      {
        Service.default_config with
        Service.policy = starved;
        queue_capacity = 8;
        eager = false;
        wall_rungs;
      }
    in
    let svc = open_service ~config resolve in
    List.iter (fun it -> ignore (Service.submit_item svc it)) items;
    let s = Service.drain svc in
    let results = Service.cluster_results svc in
    Service.close svc;
    (s, results)
  in
  let bounded, results = run false in
  check_int "run-bounded rungs reproduce every cluster"
    (List.length bounded.Summary.clusters)
    (bounded.Summary.reproduced + bounded.Summary.salvaged_reproduced);
  check_int "no wall-clock flap" 0 bounded.Summary.timed_out;
  check_int "cluster_results covers every cluster after drain"
    (List.length bounded.Summary.clusters)
    (List.length results);
  let wall, _ = run true in
  check_bool "the wall-clock ladder starves under the same rung" true
    (wall.Summary.timed_out > 0)

(* Under run-bounded rungs the worker count cannot flip a verdict: the
   same stream drained at jobs=1 and jobs=4 renders byte-identical
   timing-stripped summaries, eager climbing included. *)
let test_service_rungs_jobs_invariant () =
  let items, _, resolve = service_fixture () in
  let summarize jobs =
    let policy = { service_policy with Sched.jobs } in
    let config =
      {
        Service.default_config with
        Service.policy = policy;
        queue_capacity = 8;
        burst = 1;
        eager = true;
      }
    in
    let svc = open_service ~config resolve in
    List.iter (fun it -> ignore (Service.submit_item svc it)) items;
    while Service.queue_depth svc > 0 do
      ignore (Service.tick svc)
    done;
    let s = Service.drain svc in
    Service.close svc;
    s
  in
  let s1 = summarize 1 and s4 = summarize 4 in
  check_string "run-bounded service summaries are jobs-invariant"
    (Summary.to_json ~timing:false s1)
    (Summary.to_json ~timing:false s4)

(* ------------------------------------------------------------------ *)
(* Index crash consistency: a kill during an append leaves a torn shard
   tail, which reopen cuts back to the last complete record; damage
   anywhere before the tail still fails closed. *)

let shard_file dir = Filename.concat dir "shard-000.idx"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let open_index dir =
  match Triage.Index.open_ ~shards:1 ~dir () with
  | Ok idx -> idx
  | Error e -> Alcotest.failf "index open: %s" (Triage.Index.error_to_string e)

let index_paths idx =
  List.map (fun (it : Ingest.item) -> it.Ingest.path) (Triage.Index.items idx)

(* intact, intact (another crash) and salvaged: every record flavour *)
let index_items () =
  match service_fixture () with
  | a :: _ :: c :: d :: _, _, resolve -> ([ a; c; d ], resolve)
  | _ -> Alcotest.fail "fixture too small"

(* A single-shard index holding [items], as shard text plus the shard's
   byte length after the header and after each appended record. *)
let record_shard dir items =
  let idx = open_index dir in
  let len () = String.length (read_file (shard_file dir)) in
  let header = len () in
  let ends =
    List.map
      (fun it ->
        Triage.Index.append idx it;
        len ())
      items
  in
  Triage.Index.close idx;
  (read_file (shard_file dir), header, ends)

let test_index_torn_tail_every_offset () =
  let items, resolve = index_items () in
  let names = List.map (fun (it : Ingest.item) -> it.Ingest.path) items in
  let src = fresh_dir () and dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf src;
      rm_rf dir)
    (fun () ->
      let text, header, ends = record_shard src items in
      Sys.mkdir dir 0o755;
      for cut = 0 to String.length text do
        let tag = Printf.sprintf "cut at byte %d" cut in
        write_file (shard_file dir) (String.sub text 0 cut);
        let k = List.length (List.filter (fun e -> e <= cut) ends) in
        (* a torn header is rewritten whole *)
        let kept =
          if cut < header then 0 else if k = 0 then header else List.nth ends (k - 1)
        in
        let idx = open_index dir in
        Alcotest.(check (list string))
          (tag ^ ": the complete records survive")
          (List.filteri (fun i _ -> i < k) names)
          (index_paths idx);
        check_int (tag ^ ": torn bytes counted") (cut - kept)
          (Triage.Index.truncated_bytes idx);
        (* the cut shard takes the next append and round-trips *)
        let next = List.nth items (k mod List.length items) in
        Triage.Index.append idx next;
        Triage.Index.close idx;
        let idx = open_index dir in
        Alcotest.(check (list string))
          (tag ^ ": append after recovery round-trips")
          (List.filteri (fun i _ -> i < k) names @ [ next.Ingest.path ])
          (index_paths idx);
        check_int (tag ^ ": nothing torn after recovery") 0
          (Triage.Index.truncated_bytes idx);
        Triage.Index.close idx
      done;
      (* the service reports the cut through its telemetry *)
      let cut = List.nth ends 1 + 3 in
      write_file (shard_file dir) (String.sub text 0 cut);
      let tel = Telemetry.create () in
      let config =
        { Service.default_config with
          Service.policy = service_policy; index_dir = Some dir;
          index_shards = 1 }
      in
      let svc = open_service ~telemetry:tel ~config resolve in
      check_int "service recovers the complete records" 2
        (Service.snapshot svc).Service.processed;
      check_int "service counts the truncated bytes" 3
        (Telemetry.Metrics.counter_value tel "triage.index.truncated_bytes");
      Service.close svc)

let test_index_middle_damage_fails_closed () =
  let items, _ = index_items () in
  let src = fresh_dir () and dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf src;
      rm_rf dir)
    (fun () ->
      let text, _, ends = record_shard src items in
      Sys.mkdir dir 0o755;
      (* the second record's header line and payload *)
      let start = List.hd ends in
      let hend = String.index_from text start '\n' in
      let plen =
        match String.split_on_char ' ' (String.sub text start (hend - start)) with
        | [ _; _; p; _ ] -> int_of_string p
        | _ -> Alcotest.fail "unexpected record header"
      in
      let raw_start = hend + 1 + plen + 1 in
      let splice pos len by =
        String.sub text 0 pos ^ by
        ^ String.sub text (pos + len) (String.length text - pos - len)
      in
      let damaged name bad =
        write_file (shard_file dir) bad;
        (match Triage.Index.open_ ~shards:1 ~dir () with
        | Error (Triage.Index.Malformed _) -> ()
        | Error (Triage.Index.Unknown_version _) ->
            Alcotest.failf "%s: misread as a version problem" name
        | Ok _ -> Alcotest.failf "%s: a damaged middle record opened" name);
        check_string (name ^ ": the shard is left untouched") bad
          (read_file (shard_file dir))
      in
      damaged "record keyword" (splice start 4 "itex");
      damaged "payload no longer ingests" (splice raw_start 8 "garbage!");
      (* a length running the frame past the end of the file looks like a
         torn tail, but the next record's header gives it away *)
      damaged "length past the end of the file"
        (splice start (hend - start)
           (Printf.sprintf "item 0 %d %d" plen (String.length text))))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "triage"
    [
      ( "salvage",
        [
          Alcotest.test_case "truncation sweep" `Quick test_salvage_truncation_sweep;
          Alcotest.test_case "corrupted hex" `Quick test_salvage_corrupted_hex;
          Alcotest.test_case "unknown version stays closed" `Quick
            test_salvage_unknown_version_fail_closed;
          Alcotest.test_case "strict first" `Quick test_ingest_strict_first;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "fingerprint clustering" `Quick test_fingerprint_dedup;
          Alcotest.test_case "intact representative wins" `Quick
            test_cluster_prefers_intact_representative;
        ] );
      ( "replay",
        [
          Alcotest.test_case "salvaged log replay is sound" `Quick
            test_truncated_log_replay_sound;
          Alcotest.test_case "escalation accounting" `Quick
            test_escalation_accumulates_elapsed;
          Alcotest.test_case "jobs-invariant summary" `Quick
            test_jobs_invariant_summary;
          Alcotest.test_case "mixed wire versions summarize like all-raw"
            `Quick test_mixed_version_batch_matches_all_raw;
        ] );
      ( "service",
        [
          Alcotest.test_case "streaming equals batch" `Quick
            test_service_matches_batch;
          Alcotest.test_case "restart survival" `Quick
            test_service_restart_survival;
          Alcotest.test_case "overload shedding is deterministic" `Quick
            test_service_overload_determinism;
          Alcotest.test_case "damaged index is an error, not an assert"
            `Quick test_run_items_damaged_index_error;
          Alcotest.test_case "rungs are run-bounded by default" `Quick
            test_service_rungs_run_bounded;
          Alcotest.test_case "run-bounded rungs are jobs-invariant" `Quick
            test_service_rungs_jobs_invariant;
        ] );
      ( "index",
        [
          Alcotest.test_case "torn tail at every byte offset" `Quick
            test_index_torn_tail_every_offset;
          Alcotest.test_case "middle damage fails closed" `Quick
            test_index_middle_damage_fails_closed;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "unreadable file carries the OS error" `Quick
            test_ingest_of_file_unreadable;
          Alcotest.test_case "scanner polls incrementally" `Quick
            test_ingest_scanner_poll;
          Alcotest.test_case "scanner re-offers a settled mid-write file"
            `Quick test_ingest_scanner_rescans_settled_write;
        ] );
    ]
