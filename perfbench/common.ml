(* Shared plumbing for the four workloads: clocks, the run-capped pipeline
   configuration, the program catalog, seeded input generators, metric rows
   and the micro-measurements behind the per-layer ledger. *)

module Config = Bugrepro.Pipeline.Config
module Run = Bugrepro.Pipeline.Run
module Methods = Instrument.Methods

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run-capped budget with no wall-clock cut-off, so every outcome depends
   on run counts alone and is the same on a slow machine. *)
let cap n = { Concolic.Engine.max_runs = n; max_time_s = 1e9 }

(* Worker domains for the parallel workloads: the host's cores, at most 4. *)
let nproc () = max 1 (min 4 (Domain.recommended_domain_count ()))

(* The shipped defaults; only [jobs] and run-capped budgets are set. *)
let config ~jobs =
  Config.(default |> with_jobs jobs |> with_budget ~dynamic:(cap 60) ~replay:(cap 400))

type size = Tiny | Full

(* ------------------------------------------------------------------ *)
(* Metric rows *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What one measured run of a workload hands back to the harness. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** output checks that did not hold *)
  throughput : float;  (** the workload's headline rate, per second *)
  latencies : float array;  (** seconds, one per operation *)
  named : metric list;  (** the workload's own end-to-end rows *)
  layers : unit -> metric list;
      (** per-layer rows, computed after the measured loop; empty unless
          traced *)
}

(* Run [pass] until [seconds] have passed and at least [min_passes]
   passes have run, always completing a pass; the first call gets
   [~first:true].  A pass returns the units of work it did and the seconds
   spent inside the measured operations (the output checks between them
   do not count).  The result is the median over passes of units per
   second, so a pass disturbed by another tenant of the machine moves it
   little.  The floor also gives replay at least three 41-report passes
   however slow the machine: 123 latency samples, 12 or more beyond p90. *)
let min_passes = 3

let median_pass_rate ~seconds pass =
  let rates = ref [] in
  let t0 = now () in
  let rec go first =
    let units, busy = pass ~first in
    rates := Stats.ratio (float_of_int units) busy :: !rates;
    if now () -. t0 < seconds || List.length !rates < min_passes then go false
  in
  go true;
  Stats.median (Array.of_list !rates)

(* Collects failed output checks, keeping the first few messages. *)
type checks = { mutable count : int; mutable msgs : string list }

let checks () = { count = 0; msgs = [] }

let check c ok msg =
  if not ok then begin
    c.count <- c.count + 1;
    if c.count <= 10 then c.msgs <- msg () :: c.msgs
  end

let messages c = List.rev c.msgs

(* ------------------------------------------------------------------ *)
(* Programs *)

type program = {
  key : string;  (** "mkdir", ..., "userver", "diff" *)
  prog : Minic.Program.t;
  cfg : Config.t;
  plans : (Methods.t * Instrument.Plan.t) list;  (** all five methods *)
}

let plan p meth = List.assoc meth p.plans

(* (key, analyze_lib, program, developer test scenario).  The µServer's
   library is treated conservatively, as in the paper's §5.3 setup. *)
let catalog () =
  List.map
    (fun (e : Workloads.Coreutils.entry) ->
      (e.util, true, Lazy.force e.prog, Workloads.Coreutils.analysis_scenario e))
    Workloads.Coreutils.catalog
  @ [
      ( "userver",
        false,
        Lazy.force Workloads.Userver.prog,
        Workloads.Userver.scenario ~name:"userver-test"
          [ Workloads.Http_gen.tiny_get; "GET /index.html HTTP/1.0\r\nHost: x\r\n\r\n" ] );
      ( "diff",
        true,
        Lazy.force Workloads.Diffutil.prog,
        let same = "alpha\nbeta\ngamma\n" in
        Workloads.Diffutil.scenario ~name:"diff-test" ~file_a:same ~file_b:same () );
    ]

(* Pre-deployment analysis and the five plans of every catalog program. *)
let analyze_all ~tel () =
  List.map
    (fun (key, analyze_lib, prog, test) ->
      let cfg = config ~jobs:1 |> Config.with_analyze_lib analyze_lib in
      let a = Run.analyze (Config.with_telemetry tel cfg) ~test_scenario:test prog in
      { key; prog; cfg; plans = List.map (fun m -> (m, Run.plan cfg a m)) Methods.all })
    (catalog ())

let find progs key = List.find (fun p -> p.key = key) progs

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let letters rng n = String.init n (fun _ -> Char.chr (97 + Osmodel.Rng.int rng 26))

(* A µServer request of fixed shape with seeded content: the method mix,
   the HTTP version and the field lengths are constant so the cost of a
   stream hardly depends on the seed, while every byte the server parses
   does. *)
let request rng meth =
  Workloads.Http_gen.render
    {
      Workloads.Http_gen.meth;
      path = "/" ^ letters rng 12;
      version = "1.0";
      cookies = [ (letters rng 6, letters rng 8) ];
      body = (if meth = "POST" then Some (letters rng 16) else None);
    }

let request_stream rng n =
  let meths = [| "GET"; "POST"; "HEAD"; "GET" |] in
  List.init n (fun i -> request rng meths.(i mod Array.length meths))

(* A seeded pair of similar files; [small] keeps replay of the pair cheap. *)
let diff_pair ?(small = false) ~seed () =
  if small then Workloads.Diffutil.file_pair ~seed ~lines:6 ~width:8 ~edits:1 ()
  else Workloads.Diffutil.file_pair ~seed ~lines:10 ~width:10 ~edits:2 ()

(* ------------------------------------------------------------------ *)
(* Micro-measurements *)

let words_overhead =
  lazy
    (let w0 = Gc.minor_words () in
     let w1 = Gc.minor_words () in
     w1 -. w0)

(* Minor-heap words [f ()] allocates on this domain. *)
let minor_words f =
  let overhead = Lazy.force words_overhead in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, Float.max 0.0 (w1 -. w0 -. overhead))

(* Seconds per call of [f], repeating it until 20 ms have passed. *)
let seconds_per_call f =
  let rec go reps elapsed =
    if elapsed >= 0.02 || reps >= 10_000 then elapsed /. float_of_int reps
    else
      let (), dt = time f in
      go (reps + 1) (elapsed +. dt)
  in
  go 0 0.0

let ns_per ~units f =
  if units <= 0 then 0.0 else 1e9 *. seconds_per_call f /. float_of_int units

let words_per ~units f =
  if units <= 0 then 0.0 else snd (minor_words f) /. float_of_int units

(* The codec and wire rows of the ledger, from a workload's own reports:
   encode/decode per branch bit, (de)serialize and salvage per KB of wire,
   each with its minor-heap allocation.  Salvage reads [torn] wires, by
   default the reports' own wires torn the way [Report_gen] tears them. *)
let codec_wire_ledger ?torn (reports : Instrument.Report.t list) =
  let torn =
    match torn with
    | Some ws -> ws
    | None ->
        let rng = Osmodel.Rng.create 1 in
        List.map (fun r -> Workloads.Report_gen.tear rng (Instrument.Wire.serialize r)) reports
  in
  let module R = Instrument.Report in
  let module W = Instrument.Wire in
  let module C = Instrument.Codec in
  let bits =
    List.map (fun r -> Array.of_list (Instrument.Branch_log.to_bits (R.raw_log r))) reports
  in
  let nbits = List.fold_left (fun n b -> n + Array.length b) 0 bits in
  let encode_all () =
    List.iter
      (fun b ->
        let e = C.Encoder.create () in
        Array.iter (C.Encoder.add_bit e) b;
        ignore (C.finish e))
      bits
  in
  (* allocation of the per-probe path alone: encoders are created first *)
  let add_bits_words =
    let encs = List.map (fun b -> (C.Encoder.create (), b)) bits in
    snd
      (minor_words (fun () ->
           List.iter (fun (e, b) -> Array.iter (C.Encoder.add_bit e) b) encs))
  in
  let encoded =
    List.filter_map
      (fun r -> match r.R.branch_log with R.Encoded e -> Some e | R.Raw _ -> None)
      reports
  in
  let enc_bits = List.fold_left (fun n (e : C.encoded) -> n + e.nbits) 0 encoded in
  let wires = List.map W.serialize reports in
  let kb ws = List.fold_left (fun n w -> n + String.length w) 0 ws in
  let per_kb ws f =
    let bytes = kb ws in
    if bytes = 0 then (0.0, 0.0)
    else
      let scale = 1024.0 /. float_of_int bytes in
      ( 1e9 *. seconds_per_call f *. scale,
        snd (minor_words f) *. scale )
  in
  let ser_ns, ser_w = per_kb wires (fun () -> List.iter (fun r -> ignore (W.serialize r)) reports) in
  let de_ns, de_w = per_kb wires (fun () -> List.iter (fun w -> ignore (W.deserialize_v w)) wires) in
  let sal_ns, sal_w =
    per_kb torn (fun () -> List.iter (fun w -> ignore (W.deserialize_salvage w)) torn)
  in
  [
    metric "instrument.codec.encode_ns_per_bit" "ns" (ns_per ~units:nbits encode_all);
    metric "instrument.codec.minor_words_per_bit" "words"
      (Stats.ratio add_bits_words (float_of_int nbits));
    metric "instrument.codec.decode_ns_per_bit" "ns"
      (ns_per ~units:enc_bits (fun () -> List.iter (fun e -> ignore (C.decode e)) encoded));
    metric "instrument.wire.serialize_ns_per_kb" "ns" ser_ns;
    metric "instrument.wire.serialize_minor_words_per_kb" "words" ser_w;
    metric "instrument.wire.deserialize_ns_per_kb" "ns" de_ns;
    metric "instrument.wire.deserialize_minor_words_per_kb" "words" de_w;
    metric "instrument.wire.salvage_ns_per_kb" "ns" sal_ns;
    metric "instrument.wire.salvage_minor_words_per_kb" "words" sal_w;
  ]

(* Nanoseconds per interpreter step: uninstrumented field runs. *)
let interp_ledger (cases : (Concolic.Scenario.t * Instrument.Plan.t) list) =
  let steps = ref 0 in
  let (), dt =
    time (fun () ->
        List.iter
          (fun (sc, none) ->
            let r = Instrument.Field_run.run ~plan:none sc in
            steps := !steps + r.steps)
          cases)
  in
  metric "interp.ns_per_step" "ns" (Stats.ratio (1e9 *. dt) (float_of_int !steps))

(* Solver rows from the engine statistics a workload summed up. *)
let solver_ledger ~(calls : int) ~(incremental : int) ~(core_pruned : int)
    ~(unknown : int) ~(pendings : int) ~(non_run_s : float) ~(hit_rate : float) =
  let f = float_of_int in
  [
    metric "solver.calls" "count" (f calls);
    metric "solver.ns_per_call" "ns" (Stats.ratio (1e9 *. non_run_s) (f calls));
    metric "solver.cache.hit_rate" "share" hit_rate;
    metric "solver.incremental_share" "share" (Stats.ratio (f incremental) (f calls));
    metric "solver.core_pruned_share" "share" (Stats.ratio (f core_pruned) (f pendings));
    metric "solver.unknown_share" "share" (Stats.ratio (f unknown) (f pendings));
  ]
