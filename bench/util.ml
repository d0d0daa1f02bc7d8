(* Shared helpers for the benchmark harness: headers, aligned tables,
   ASCII histograms (for the paper's figures), timing. *)

let section ~id ~paper title =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "%s — %s\n%s\n" id paper title;
  Printf.printf "%s\n" (String.make 78 '=')

let hline widths =
  Printf.printf "+";
  List.iter (fun w -> Printf.printf "%s+" (String.make (w + 2) '-')) widths;
  print_newline ()

(* Render an aligned table; first row is the header. *)
let table (rows : string list list) =
  match rows with
  | [] -> ()
  | header :: _ ->
      let ncols = List.length header in
      let widths =
        List.init ncols (fun c ->
            List.fold_left
              (fun w row ->
                match List.nth_opt row c with
                | Some cell -> max w (String.length cell)
                | None -> w)
              0 rows)
      in
      let print_row row =
        Printf.printf "|";
        List.iteri
          (fun c cell ->
            let w = List.nth widths c in
            Printf.printf " %-*s |" w cell)
          row;
        print_newline ()
      in
      hline widths;
      print_row header;
      hline widths;
      List.iter print_row (List.tl rows);
      hline widths

(* Horizontal bar for histograms; [scale] maps a value to a bar length. *)
let bar ?(max_width = 48) ~max_value v =
  if max_value <= 0.0 || v <= 0.0 then ""
  else
    let n = int_of_float (Float.of_int max_width *. v /. max_value) in
    String.make (max n 1) '#'

(* Log-scale bar (for Figure 3's log axis). *)
let log_bar ?(max_width = 48) ~max_value v =
  if v <= 0.0 then ""
  else
    let lv = log10 (v +. 1.0) and lm = log10 (max_value +. 1.0) in
    bar ~max_width ~max_value:lm lv

let time_call f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pct ~baseline v =
  if baseline = 0 then "n/a"
  else Printf.sprintf "%.0f%%" (100.0 *. float_of_int v /. float_of_int baseline)

let seconds s = Printf.sprintf "%.3fs" s

let infinity_symbol = "inf"

(* ------------------------------------------------------------------ *)
(* Common pipeline helpers *)

let replay_budget = ref { Concolic.Engine.max_runs = 20_000; max_time_s = 10.0 }

(* The LC/HC dynamic-analysis budgets: the paper's 1-hour vs 2-hour
   symbolic execution, scaled to exploration runs. *)
let lc_budget = ref { Concolic.Engine.max_runs = 2; max_time_s = 5.0 }
let hc_budget = ref { Concolic.Engine.max_runs = 150; max_time_s = 30.0 }

type verdictish = Done of float | Timeout

let verdict_string = function
  | Done s -> seconds s
  | Timeout -> infinity_symbol

let replay_verdict (result : Replay.Guided.result) =
  match result with
  | Replay.Guided.Reproduced r -> Done r.elapsed_s
  | Replay.Guided.Not_reproduced _ -> Timeout

(* A one-shot triage batch, the way the CLI's triage command runs one: a
   service sized to the batch with the wall-clock ladder, every item
   submitted, one drain. *)
let triage_batch ~policy ~telemetry ~resolve items =
  let config =
    {
      Triage.Service.default_config with
      Triage.Service.policy;
      queue_capacity = max 1 (List.length items);
      wall_rungs = true;
    }
  in
  match Triage.Service.open_ ~config ~telemetry ~resolve () with
  | Error e -> failwith (Triage.Index.error_to_string e)
  | Ok svc ->
      List.iter (fun i -> ignore (Triage.Service.submit_item svc i)) items;
      let s = Triage.Service.drain svc in
      Triage.Service.close svc;
      s

(* ------------------------------------------------------------------ *)
(* Machine-readable summary (--json): experiments record named numeric
   metrics here; the driver dumps everything at exit and re-reads the file
   through Compare.load, so the emitter below must produce strict JSON. *)

let metrics : (string * string * float) list ref = ref []

let record_metric ~experiment key value =
  metrics := (experiment, key, value) :: !metrics

(* ------------------------------------------------------------------ *)
(* Probe-elision curve: raw vs online-encoded vs suppressed (and the
   suppressed log's encoded/compressed forms) for one plan and scenario
   (the EXPERIMENTS.md extension rows of E4/E8 and E12).  The analysis
   output is proof-checked before the refined plan is trusted; per-run
   cost and storage land as suppression/* metrics. *)

let elision_curve ~experiment ~(prog : Minic.Program.t)
    ~(plan : Instrument.Plan.t) (sc : Concolic.Scenario.t) =
  let module Sup = Staticanalysis.Suppression in
  let instrumented = plan.Instrument.Plan.instrumented in
  let sup = Sup.analyze ~instrumented prog in
  (match Sup.verify ~instrumented prog (Sup.to_table sup) with
  | Ok () -> ()
  | Error m -> failwith (experiment ^ ": suppression proof rejected: " ^ m));
  let plan_sup = Instrument.Plan.with_suppression plan sup in
  (* each run yields both the raw bit view and the online-encoded stream
     the wire would ship *)
  let raw = Instrument.Field_run.run ~plan sc in
  let supr = Instrument.Field_run.run ~plan:plan_sup sc in
  let raw_log = raw.Instrument.Field_run.branch_log in
  let sup_log = supr.Instrument.Field_run.branch_log in
  let enc_bytes (r : Instrument.Field_run.result) =
    Instrument.Codec.size_bytes r.Instrument.Field_run.encoded_log
  in
  let comp = Instrument.Compress.compress sup_log in
  let raw_comp = Instrument.Compress.compress raw_log in
  let pct_of_raw v =
    if raw_log.Instrument.Branch_log.nbits = 0 then "n/a"
    else
      Printf.sprintf "%.0f%%"
        (100.0 *. float_of_int v
        /. float_of_int raw_log.Instrument.Branch_log.nbits)
  in
  Printf.printf "probe elision on %s (%d of %d probes elided, verified):\n"
    (Instrument.Methods.to_string plan.Instrument.Plan.meth)
    (Sup.n_elided sup)
    plan.Instrument.Plan.n_instrumented;
  table
    [
      [ "log configuration"; "bits"; "of raw"; "transfer bytes"; "cpu time" ];
      [
        "raw";
        string_of_int raw_log.Instrument.Branch_log.nbits;
        "100%";
        string_of_int (Instrument.Branch_log.size_bytes raw_log);
        pct ~baseline:raw.Instrument.Field_run.cost.instr
          raw.Instrument.Field_run.cost.instr;
      ];
      [
        "online-encoded";
        string_of_int raw_log.Instrument.Branch_log.nbits;
        "100%";
        Printf.sprintf "%d (raw compresses offline to %d)" (enc_bytes raw)
          (Instrument.Compress.size_bytes raw_comp);
        pct ~baseline:raw.Instrument.Field_run.cost.instr
          raw.Instrument.Field_run.cost.instr;
      ];
      [
        "suppressed";
        string_of_int sup_log.Instrument.Branch_log.nbits;
        pct_of_raw sup_log.Instrument.Branch_log.nbits;
        string_of_int (Instrument.Branch_log.size_bytes sup_log);
        pct ~baseline:raw.Instrument.Field_run.cost.instr
          supr.Instrument.Field_run.cost.instr;
      ];
      [
        "suppressed+encoded";
        string_of_int sup_log.Instrument.Branch_log.nbits;
        pct_of_raw sup_log.Instrument.Branch_log.nbits;
        string_of_int (enc_bytes supr);
        pct ~baseline:raw.Instrument.Field_run.cost.instr
          supr.Instrument.Field_run.cost.instr;
      ];
      [
        "suppressed+compressed";
        string_of_int sup_log.Instrument.Branch_log.nbits;
        pct_of_raw sup_log.Instrument.Branch_log.nbits;
        string_of_int (Instrument.Compress.size_bytes comp);
        "-";
      ];
    ];
  let m k v = record_metric ~experiment ("suppression/" ^ k) v in
  m "elided" (float_of_int (Sup.n_elided sup));
  m "raw_bits" (float_of_int raw_log.Instrument.Branch_log.nbits);
  m "suppressed_bits" (float_of_int sup_log.Instrument.Branch_log.nbits);
  m "encoded_bytes" (float_of_int (enc_bytes raw));
  m "sup_encoded_bytes" (float_of_int (enc_bytes supr));
  m "bits_saved_pct"
    (if raw_log.Instrument.Branch_log.nbits = 0 then 0.0
     else
       100.0
       *. float_of_int
            (raw_log.Instrument.Branch_log.nbits
            - sup_log.Instrument.Branch_log.nbits)
       /. float_of_int raw_log.Instrument.Branch_log.nbits);
  m "compressed_bytes" (float_of_int (Instrument.Compress.size_bytes comp));
  m "raw_compressed_bytes"
    (float_of_int (Instrument.Compress.size_bytes raw_comp));
  m "field_cpu_delta_pct"
    (if raw.Instrument.Field_run.cost.instr = 0 then 0.0
     else
       100.0
       *. float_of_int
            (supr.Instrument.Field_run.cost.instr
            - raw.Instrument.Field_run.cost.instr)
       /. float_of_int raw.Instrument.Field_run.cost.instr)

(* Write the whole-run summary: scale/knob metadata, per-experiment wall
   clocks, and every metric recorded via [record_metric]. *)
let write_json_summary ~path ~(meta : (string * string) list)
    ~(experiments : (string * float) list) () =
  let module J = Telemetry.Json in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"meta\": {";
  List.iteri
    (fun i (k, v) ->
      out "%s\"%s\": \"%s\"" (if i = 0 then "" else ", ") (J.escape k)
        (J.escape v))
    meta;
  out "},\n";
  out "  \"experiments\": [";
  List.iteri
    (fun i (id, dt) ->
      out "%s\n    {\"id\": \"%s\", \"seconds\": %s}"
        (if i = 0 then "" else ",")
        (J.escape id) (J.float dt))
    experiments;
  out "\n  ],\n";
  out "  \"metrics\": [";
  List.iteri
    (fun i (experiment, key, value) ->
      out "%s\n    {\"experiment\": \"%s\", \"key\": \"%s\", \"value\": %s}"
        (if i = 0 then "" else ",")
        (J.escape experiment) (J.escape key) (J.float value))
    (List.rev !metrics);
  out "\n  ]\n";
  out "}\n";
  close_out oc
