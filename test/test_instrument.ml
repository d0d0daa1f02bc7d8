(* Tests for instrumentation: plan combination rules (§2.3), the branch-log
   bitvector, the syscall log, field runs and bug reports. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

open Minic.Label

let map_of (l : t list) : map = Array.of_list l

(* ------------------------------------------------------------------ *)
(* Plan combination *)

let dyn = map_of [ Symbolic; Concrete; Unvisited; Unvisited; Symbolic; Concrete ]
let sta = map_of [ Symbolic; Symbolic; Symbolic; Concrete; Symbolic; Concrete ]

let ids plan = Instrument.Plan.instrumented_ids plan

let test_plan_dynamic () =
  let p = Instrument.Plan.make ~nbranches:6 ~dynamic:dyn Instrument.Methods.Dynamic in
  Alcotest.(check (list int)) "only dyn-symbolic" [ 0; 4 ] (ids p)

let test_plan_static () =
  let p = Instrument.Plan.make ~nbranches:6 ~static:sta Instrument.Methods.Static in
  Alcotest.(check (list int)) "static-symbolic" [ 0; 1; 2; 4 ] (ids p)

let test_plan_combined () =
  let p =
    Instrument.Plan.make ~nbranches:6 ~dynamic:dyn ~static:sta
      Instrument.Methods.Dynamic_static
  in
  (* 0: dyn sym -> yes; 1: dyn concrete OVERRIDES static symbolic -> no;
     2: unvisited -> static symbolic -> yes; 3: unvisited -> static concrete
     -> no; 4: both symbolic -> yes; 5: both concrete -> no *)
  Alcotest.(check (list int)) "combination rule" [ 0; 2; 4 ] (ids p)

let test_plan_all_and_none () =
  let all = Instrument.Plan.make ~nbranches:6 Instrument.Methods.All_branches in
  let none = Instrument.Plan.make ~nbranches:6 Instrument.Methods.No_instrumentation in
  check_int "all" 6 all.n_instrumented;
  check_int "none" 0 none.n_instrumented

let test_plan_missing_labels_rejected () =
  match Instrument.Plan.make ~nbranches:6 Instrument.Methods.Dynamic with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Branch log *)

let test_branch_log_roundtrip () =
  let bits = List.init 77 (fun i -> i mod 3 = 0) in
  let log = Instrument.Branch_log.of_bits bits in
  check_int "nbits" 77 log.nbits;
  Alcotest.(check (list bool)) "roundtrip" bits (Instrument.Branch_log.to_bits log)

let test_branch_log_reader_exhaustion () =
  let log = Instrument.Branch_log.of_bits [ true; false ] in
  let r = Instrument.Branch_log.Reader.create log in
  check_bool "bit 0" true (Instrument.Branch_log.Reader.next r = Some true);
  check_bool "bit 1" true (Instrument.Branch_log.Reader.next r = Some false);
  check_bool "exhausted" true (Instrument.Branch_log.Reader.next r = None)

let test_branch_log_flushes () =
  (* tiny 2-byte buffer: 32 bits -> 4 bytes -> 2 full flushes *)
  let w = Instrument.Branch_log.Writer.create ~buffer_bytes:2 () in
  for _ = 1 to 32 do
    Instrument.Branch_log.Writer.add_bit w true
  done;
  let log = Instrument.Branch_log.finish w in
  check_int "flushes" 2 log.flushes;
  check_int "bytes" 4 (Instrument.Branch_log.size_bytes log)

let test_branch_log_size () =
  let log = Instrument.Branch_log.of_bits (List.init 9 (fun _ -> true)) in
  check_int "9 bits -> 2 bytes" 2 (Instrument.Branch_log.size_bytes log)

let prop_branch_log_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bit log write/read identity"
    QCheck.(list bool)
    (fun bits ->
      let log = Instrument.Branch_log.of_bits bits in
      Instrument.Branch_log.to_bits log = bits)

(* ------------------------------------------------------------------ *)
(* Streaming codec (wire v4 payload) *)

module Codec = Instrument.Codec

(* A bit stream with every regime the encoder handles: long runs (P=1
   matches), alternating and period-3 stretches (P>1 matches), and a
   pseudo-random tail (literal path). *)
let mixed_bits n =
  List.init n (fun i ->
      if i < n / 4 then true (* run *)
      else if i < n / 2 then i mod 2 = 0 (* period 2 *)
      else if i < 3 * n / 4 then i mod 3 = 0 (* period 3 *)
      else (i * 2654435761) land 64 <> 0 (* incompressible-ish *))

let encode_bits ?buffer_bytes bits =
  let e = Codec.Encoder.create ?buffer_bytes () in
  List.iter (Codec.Encoder.add_bit e) bits;
  Codec.finish e

let decoded_bits (e : Codec.encoded) =
  match Codec.decode e with
  | Error m -> Alcotest.fail ("decode failed: " ^ m)
  | Ok log -> Instrument.Branch_log.to_bits log

let test_codec_empty () =
  let e = encode_bits [] in
  check_int "no bytes" 0 (Codec.size_bytes e);
  check_int "no bits" 0 e.nbits;
  check_int "no flushes" 0 e.flushes;
  Alcotest.(check (list bool)) "decodes to nothing" [] (decoded_bits e);
  check_bool "empty stream validates" true (Codec.count_bits "" = Ok 0)

(* Satellite: encode/decode identity for EVERY prefix length of the
   generated log (0..n bits). *)
let test_codec_prefix_identity_all_lengths () =
  let n = 160 in
  let bits = mixed_bits n in
  for k = 0 to n do
    let prefix = List.filteri (fun i _ -> i < k) bits in
    let got = decoded_bits (encode_bits prefix) in
    if got <> prefix then Alcotest.failf "identity broke at prefix length %d" k
  done

(* Satellite: a flush at every bit boundary never changes the decoded
   stream, and after each flush the bytes so far decode to the bits so
   far (the torn-log guarantee). *)
let test_codec_flush_every_boundary () =
  let bits = mixed_bits 120 in
  let e = Codec.Encoder.create () in
  List.iteri
    (fun i b ->
      Codec.Encoder.add_bit e b;
      Codec.Encoder.flush e;
      if Codec.Encoder.nbits e <> i + 1 then
        Alcotest.failf "nbits drifted at %d" i)
    bits;
  Alcotest.(check (list bool)) "flush-per-bit identity" bits
    (decoded_bits (Codec.finish e))

let test_codec_flush_at_one_boundary_each () =
  (* one stream per flush position: add k bits, flush, add the rest *)
  let n = 96 in
  let bits = mixed_bits n in
  for k = 0 to n do
    let e = Codec.Encoder.create () in
    List.iteri
      (fun i b ->
        if i = k then Codec.Encoder.flush e;
        Codec.Encoder.add_bit e b)
      bits;
    if decoded_bits (Codec.finish e) <> bits then
      Alcotest.failf "flush at boundary %d changed the stream" k
  done

let test_codec_cut_prefix_total () =
  (* cutting the encoded bytes at ANY position yields a valid prefix that
     decodes to a prefix of the original bits *)
  let bits = mixed_bits 300 in
  let e = encode_bits bits in
  let arr = Array.of_list bits in
  for cut = 0 to String.length e.data do
    let torn = String.sub e.data 0 cut in
    let kept, kbits = Codec.cut_prefix ~max_bits:max_int torn in
    (match Codec.count_bits kept with
    | Ok b when b = kbits -> ()
    | Ok b -> Alcotest.failf "cut %d: count %d <> cut bits %d" cut b kbits
    | Error m -> Alcotest.failf "cut %d: invalid prefix: %s" cut m);
    if kbits > e.nbits then Alcotest.failf "cut %d: bits grew" cut;
    let got =
      decoded_bits { Codec.data = kept; nbits = kbits; flushes = 0 }
    in
    List.iteri
      (fun i b ->
        if b <> arr.(i) then Alcotest.failf "cut %d: bit %d differs" cut i)
      got
  done

let test_codec_cut_respects_max_bits () =
  (* a bit limit cuts an intact stream to a valid prefix of at most that
     many bits, shortening a literal to the limit and dropping a match
     that would pass it *)
  let bits = mixed_bits 300 in
  let e = encode_bits bits in
  let arr = Array.of_list bits in
  for limit = 0 to e.nbits do
    let kept, kbits = Codec.cut_prefix ~max_bits:limit e.data in
    (match Codec.count_bits kept with
    | Ok b when b = kbits -> ()
    | Ok b -> Alcotest.failf "limit %d: count %d <> cut bits %d" limit b kbits
    | Error m -> Alcotest.failf "limit %d: invalid prefix: %s" limit m);
    if kbits > limit then Alcotest.failf "limit %d: kept %d bits" limit kbits;
    List.iteri
      (fun i b ->
        if b <> arr.(i) then Alcotest.failf "limit %d: bit %d differs" limit i)
      (decoded_bits { Codec.data = kept; nbits = kbits; flushes = 0 })
  done;
  check_int "no limit keeps every bit" e.nbits
    (snd (Codec.cut_prefix ~max_bits:e.nbits e.data))

let test_codec_cut_recovers_partial_literal () =
  (* an incompressible log encodes as one literal token; tearing inside
     its payload must still salvage every complete payload byte (8 bits
     each), not drop the whole token *)
  let bits = List.init 36 (fun i -> Hashtbl.hash (i * 7919) land 1 = 1) in
  let e = encode_bits bits in
  check_int "single literal token" (1 + ((36 + 7) / 8)) (Codec.size_bytes e);
  let arr = Array.of_list bits in
  for have = 1 to 4 do
    let kept, kbits =
      Codec.cut_prefix ~max_bits:max_int (String.sub e.data 0 (1 + have))
    in
    check_int (Printf.sprintf "bytes %d salvage bits" have) (8 * have) kbits;
    (match Codec.count_bits kept with
    | Ok b -> check_int "salvaged stream validates" kbits b
    | Error m -> Alcotest.failf "salvaged stream invalid: %s" m);
    List.iteri
      (fun i b ->
        if b <> arr.(i) then Alcotest.failf "have %d: bit %d differs" have i)
      (decoded_bits { Codec.data = kept; nbits = kbits; flushes = 0 })
  done;
  (* header alone carries nothing *)
  check_int "bare header salvages 0" 0
    (snd (Codec.cut_prefix ~max_bits:max_int (String.sub e.data 0 1)))

let test_codec_truncation_fails_closed () =
  let bits = mixed_bits 300 in
  let e = encode_bits bits in
  let len = String.length e.data in
  check_bool "nonempty payload" true (len > 1);
  for cut = 0 to len - 1 do
    match Codec.decode { e with data = String.sub e.data 0 cut } with
    | Ok _ -> Alcotest.failf "decode accepted a %d-byte truncation" cut
    | Error _ -> ()
  done

let test_codec_corruption_fails_closed () =
  (* reserved literal header bit (0xC0) and the empty literal (0x80) are
     both malformed, never silently decoded *)
  List.iter
    (fun byte ->
      match Codec.count_bits (String.make 1 (Char.chr byte)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed header 0x%02x" byte)
    [ 0xc0; 0xc1; 0xff; 0x80 ];
  (* a MATCH token referencing history that does not exist *)
  match Codec.count_bits "\x70" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a match with no history"

let test_codec_reader_streams () =
  let bits = mixed_bits 500 in
  let e = encode_bits bits in
  let r = Codec.Reader.create e in
  List.iteri
    (fun i b ->
      check_int "pos tracks" i (Codec.Reader.pos r);
      match Codec.Reader.next r with
      | Some g when g = b -> ()
      | Some _ -> Alcotest.failf "bit %d differs" i
      | None -> Alcotest.failf "reader exhausted at %d" i)
    bits;
  check_bool "exhausted" true (Codec.Reader.next r = None)

let test_codec_compresses_loops () =
  (* 10k-bit all-true run and a 10k-bit alternating pattern: both collapse
     to a handful of bytes; raw packing needs 1250 *)
  let run = List.init 10_000 (fun _ -> true) in
  let alt = List.init 10_000 (fun i -> i mod 2 = 0) in
  List.iter
    (fun bits ->
      let e = encode_bits bits in
      check_bool "loop-heavy stream collapses" true (Codec.size_bytes e < 16))
    [ run; alt ]

let test_codec_flush_accounting () =
  (* tiny 2-byte buffer over an incompressible stream: encoded output
     exceeds 2 bytes repeatedly, so flushes must be counted like
     Branch_log's writer counts raw-buffer fills *)
  let bits = mixed_bits 512 in
  let e = encode_bits ~buffer_bytes:2 bits in
  check_bool "flushes counted" true (e.flushes > 0);
  check_bool "decode keeps flushes" true
    ((match Codec.decode e with
     | Ok l -> l.Instrument.Branch_log.flushes
     | Error _ -> -1)
    = e.flushes)

let test_codec_offline_matches_online () =
  (* Codec.encode over a finished raw log = the same token stream the
     online encoder emits *)
  let bits = mixed_bits 400 in
  let online = encode_bits bits in
  let offline = Codec.encode (Instrument.Branch_log.of_bits bits) in
  check_bool "same bytes" true (online.data = offline.data);
  check_int "same bits" online.nbits offline.nbits

let prop_codec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"codec encode/decode identity"
    QCheck.(list bool)
    (fun bits ->
      let e = encode_bits bits in
      e.nbits = List.length bits && decoded_bits e = bits)

let prop_codec_flushed_prefix =
  (* random flush positions never perturb the decoded stream *)
  QCheck.Test.make ~count:200 ~name:"codec flush positions are invisible"
    QCheck.(pair (list bool) (small_list small_nat))
    (fun (bits, flush_at) ->
      let e = Codec.Encoder.create () in
      List.iteri
        (fun i b ->
          if List.mem i flush_at then Codec.Encoder.flush e;
          Codec.Encoder.add_bit e b)
        bits;
      decoded_bits (Codec.finish e) = bits)

let prop_codec_cut_prefix =
  QCheck.Test.make ~count:200 ~name:"codec any byte cut decodes to a bit prefix"
    QCheck.(pair (list bool) small_nat)
    (fun (bits, cut) ->
      let e = encode_bits bits in
      let cut = min cut (String.length e.data) in
      let kept, kbits =
        Codec.cut_prefix ~max_bits:max_int (String.sub e.data 0 cut)
      in
      Codec.count_bits kept = Ok kbits
      && kbits <= e.nbits
      && decoded_bits { Codec.data = kept; nbits = kbits; flushes = 0 }
         = List.filteri (fun i _ -> i < kbits) bits)

(* ------------------------------------------------------------------ *)
(* Offline compression (transfer accounting) *)

module Compress = Instrument.Compress

let corpus_logs () =
  let of_bits = Instrument.Branch_log.of_bits in
  let noise n = List.init n (fun i -> Hashtbl.hash (i * 7919) land 1 = 1) in
  (* one aperiodic 128-bit block repeated: byte-level repetition for LZSS,
     runs too short for RLE, clearly smaller than raw *)
  let repeated_block =
    List.concat (List.init 20 (fun _ -> noise 128))
  in
  [
    of_bits [];
    of_bits [ true ];
    of_bits (List.init 4096 (fun _ -> false));
    of_bits (mixed_bits 2048);
    of_bits repeated_block;
    of_bits (noise 777);
  ]

let test_compress_ratio_floor () =
  (* raw is always a candidate encoding, so the chosen one never loses *)
  List.iter
    (fun log ->
      let c = Compress.compress log in
      check_bool "ratio >= 1.0" true (Compress.ratio log c >= 1.0))
    (corpus_logs ())

let test_compress_size_matches_payload () =
  (* size_bytes is the serialized payload length, whatever the encoding *)
  let seen = Hashtbl.create 4 in
  List.iter
    (fun log ->
      let c = Compress.compress log in
      Hashtbl.replace seen c.Compress.encoding ();
      check_int "size_bytes = payload length" (String.length c.Compress.data)
        (Compress.size_bytes c))
    (corpus_logs ());
  (* the corpus above must exercise all three encodings, or the check
     proves less than it claims *)
  check_int "all three encodings exercised" 3 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Syscall log *)

let test_syscall_log_roundtrip () =
  let t = Instrument.Syscall_log.create () in
  Instrument.Syscall_log.record t ~kind:"read" ~value:17;
  Instrument.Syscall_log.record t ~kind:"select" ~value:2;
  let log = Instrument.Syscall_log.finish t in
  let r = Instrument.Syscall_log.Reader.create log in
  check_bool "read" true (Instrument.Syscall_log.Reader.next r ~kind:"read" = Ok (Some 17));
  check_bool "select" true
    (Instrument.Syscall_log.Reader.next r ~kind:"select" = Ok (Some 2));
  check_bool "exhausted" true (Instrument.Syscall_log.Reader.next r ~kind:"read" = Ok None)

let test_syscall_log_kind_mismatch () =
  let t = Instrument.Syscall_log.create () in
  Instrument.Syscall_log.record t ~kind:"read" ~value:1;
  let log = Instrument.Syscall_log.finish t in
  let r = Instrument.Syscall_log.Reader.create log in
  match Instrument.Syscall_log.Reader.next r ~kind:"accept" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected kind mismatch"

(* ------------------------------------------------------------------ *)
(* Field runs *)

let field_run ?(meth = Instrument.Methods.All_branches) ?analysis_sc sc =
  let prog = (sc : Concolic.Scenario.t).prog in
  let config =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget
           ~dynamic:{ Concolic.Engine.max_runs = 40; max_time_s = 5.0 })
  in
  let analysis =
    Bugrepro.Pipeline.Run.analyze config ?test_scenario:analysis_sc prog
  in
  let plan = Bugrepro.Pipeline.Run.plan config analysis meth in
  (plan, Instrument.Field_run.run ~plan sc)

let paste = Workloads.Coreutils.find "paste"

let test_field_run_counts_bits () =
  let sc = Workloads.Coreutils.benign_scenario paste in
  let plan, r = field_run sc in
  (* every executed branch logs exactly one bit under all-branches *)
  check_int "bits = branch executions" r.cost.branches r.branch_log.nbits;
  check_int "plan covers program" (Minic.Program.nbranches sc.prog)
    plan.n_instrumented

let test_field_run_cost_ordering () =
  let sc = Workloads.Coreutils.benign_scenario paste in
  let none =
    Instrument.Field_run.run
      ~plan:
        (Instrument.Plan.make
           ~nbranches:(Minic.Program.nbranches sc.prog)
           Instrument.Methods.No_instrumentation)
      sc
  in
  let _, all = field_run sc in
  check_bool "all branches costs more than none" true
    (all.cost.instr > none.cost.instr);
  check_int "none logs nothing" 0 none.branch_log.nbits

let test_field_run_report_only_on_crash () =
  let benign = Workloads.Coreutils.benign_scenario paste in
  let crash = Workloads.Coreutils.crash_scenario paste in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches benign.prog)
      Instrument.Methods.All_branches
  in
  let _, rep_ok = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan benign in
  let _, rep_crash = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan crash in
  check_bool "no report for clean run" true (rep_ok = None);
  check_bool "report for crash" true (rep_crash <> None)

let test_report_has_no_input_content () =
  (* the report must not contain the argv strings (privacy) *)
  let crash = Workloads.Coreutils.crash_scenario paste in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches crash.prog)
      Instrument.Methods.All_branches
  in
  let _, rep = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan crash in
  match rep with
  | None -> Alcotest.fail "expected a report"
  | Some rep ->
      check_int "shape has arg caps only" (List.length crash.args)
        (List.length rep.shape.arg_caps)

let test_syscall_logging_marginal_overhead () =
  (* §5.3: logging syscall results adds only marginal overhead *)
  let reqs = Workloads.Http_gen.workload 10 in
  let sc = Workloads.Userver.scenario ~name:"u" reqs in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches sc.prog)
      Instrument.Methods.All_branches
  in
  let with_log = Instrument.Field_run.run ~log_syscalls:true ~plan sc in
  let without = Instrument.Field_run.run ~log_syscalls:false ~plan sc in
  let overhead =
    float_of_int (with_log.cost.instr - without.cost.instr)
    /. float_of_int without.cost.instr
  in
  check_bool "syscall results recorded" true (with_log.syscall_log <> None);
  check_bool "marginal (< 5%)" true (overhead < 0.05)

let test_deterministic_field_runs () =
  (* same scenario, same seed: identical logs *)
  let sc = Workloads.Userver.scenario ~name:"u" (Workloads.Http_gen.workload 5) in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches sc.prog)
      Instrument.Methods.All_branches
  in
  let r1 = Instrument.Field_run.run ~plan sc in
  let r2 = Instrument.Field_run.run ~plan sc in
  check_bool "identical bit logs" true (r1.branch_log.bytes = r2.branch_log.bytes);
  check_int "identical bit counts" r1.branch_log.nbits r2.branch_log.nbits

(* ------------------------------------------------------------------ *)
(* Wire format *)

let real_report () =
  let crash = Workloads.Coreutils.crash_scenario paste in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches crash.prog)
      Instrument.Methods.All_branches
  in
  let _, rep = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan crash in
  Option.get rep

(* The full bit sequence a report's payload streams, raw or encoded. *)
let report_bits (r : Instrument.Report.t) =
  let rd = Instrument.Report.reader r in
  let rec go acc =
    match Instrument.Report.read_next rd with
    | None -> List.rev acc
    | Some b -> go (b :: acc)
  in
  go []

(* A report's payload downgraded to the raw encoding (wire v1-v3 shape). *)
let raw_twin (r : Instrument.Report.t) =
  { r with branch_log = Instrument.Report.Raw (Instrument.Report.raw_log r) }

let report_equal (a : Instrument.Report.t) (b : Instrument.Report.t) =
  a.program = b.program
  && a.method_used = b.method_used
  && report_bits a = report_bits b
  && Instrument.Report.nbits a = Instrument.Report.nbits b
  && Interp.Crash.equal_site a.crash b.crash
  && a.shape = b.shape
  && (match a.syscall_log, b.syscall_log with
     | Some x, Some y -> x.entries = y.entries
     | None, None -> true
     | _ -> false)
  &&
  match a.schedule_log, b.schedule_log with
  | Some x, Some y -> x.tids = y.tids
  | None, None -> true
  | Some x, None | None, Some x -> Instrument.Schedule_log.length x = 0

(* The payload hex encoder agrees with [Printf "%02x"] on every byte
   value, alone and concatenated. *)
let test_wire_hex_every_byte () =
  for i = 0 to 255 do
    Alcotest.(check string) (Printf.sprintf "byte %d" i) (Printf.sprintf "%02x" i)
      (Instrument.Wire.hex_of_string (String.make 1 (Char.chr i)))
  done;
  Alcotest.(check string) "all 256 bytes in a row"
    (String.concat "" (List.init 256 (Printf.sprintf "%02x")))
    (Instrument.Wire.hex_of_string (String.init 256 Char.chr))

let test_wire_roundtrip () =
  let rep = real_report () in
  match Instrument.Wire.deserialize_v (Instrument.Wire.serialize rep) with
  | Ok rep' -> check_bool "roundtrip" true (report_equal rep rep')
  | Error e ->
      Alcotest.fail ("deserialize failed: " ^ Instrument.Wire.error_to_string e)

let test_wire_roundtrip_mt () =
  (* a report with a schedule log *)
  let sc = Workloads.Mtrace.scenario ~seed:3 () in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches sc.prog)
      Instrument.Methods.All_branches
  in
  let _, rep = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan sc in
  let rep = Option.get rep in
  match Instrument.Wire.deserialize_v (Instrument.Wire.serialize rep) with
  | Ok rep' ->
      check_bool "schedule preserved" true (report_equal rep rep');
      check_bool "has schedule" true (rep'.schedule_log <> None)
  | Error e ->
      Alcotest.fail ("deserialize failed: " ^ Instrument.Wire.error_to_string e)

let test_wire_rejects_garbage () =
  List.iter
    (fun s ->
      match Instrument.Wire.deserialize_v s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" s)
    [
      "";
      "hello";
      "bugrepro-report/1\nprogram: x";
      (* bad magic *)
      "bugrepro-report/2\nprogram: x";
    ]

let test_wire_rejects_bit_overrun () =
  let rep = real_report () in
  let s = Instrument.Wire.serialize rep in
  (* inflate the claimed bit count beyond the log bytes *)
  let s =
    Str.global_replace
      (Str.regexp "branch-bits: [0-9]+")
      "branch-bits: 999999" s
  in
  match Instrument.Wire.deserialize_v s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted overrun bit count"

let test_wire_version_header () =
  check_int "current version" 4 Instrument.Wire.version;
  let s = Instrument.Wire.serialize (real_report ()) in
  check_bool "header is magic_prefix ^ version" true
    (String.length s > String.length Instrument.Wire.magic
    && String.sub s 0 (String.length Instrument.Wire.magic)
       = Instrument.Wire.magic)

let test_wire_version_roundtrip () =
  (* the v2/v3 fields (branch-flushes, suppression) survive the round trip *)
  let rep = real_report () in
  match Instrument.Wire.deserialize_v (Instrument.Wire.serialize rep) with
  | Ok rep' ->
      check_bool "roundtrip" true (report_equal rep rep');
      check_int "flushes preserved"
        (Instrument.Report.flushes rep)
        (Instrument.Report.flushes rep')
  | Error e -> Alcotest.fail ("deserialize failed: " ^ Instrument.Wire.error_to_string e)

let test_wire_accepts_v1 () =
  (* a v1 report: old header, raw log, no branch-flushes field; reads back
     with flushes = 0 *)
  let s = Instrument.Wire.serialize (raw_twin (real_report ())) in
  let s =
    Str.global_replace (Str.regexp "^bugrepro-report/4$") "bugrepro-report/1" s
    |> Str.global_replace (Str.regexp "branch-flushes: [0-9]+\n") ""
  in
  match Instrument.Wire.deserialize_v s with
  | Ok rep -> check_int "v1 flushes default" 0 (Instrument.Report.flushes rep)
  | Error e ->
      Alcotest.fail ("v1 rejected: " ^ Instrument.Wire.error_to_string e)

let test_wire_unknown_version_distinct () =
  let s = Instrument.Wire.serialize (raw_twin (real_report ())) in
  let bump v =
    Str.global_replace (Str.regexp "^bugrepro-report/4$")
      ("bugrepro-report/" ^ v) s
  in
  (match Instrument.Wire.deserialize_v (bump "99") with
  | Error (Instrument.Wire.Unknown_version 99) -> ()
  | Error e ->
      Alcotest.failf "expected Unknown_version 99, got %s"
        (Instrument.Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted version 99");
  (match Instrument.Wire.deserialize_v (bump "0") with
  | Error (Instrument.Wire.Unknown_version 0) -> ()
  | _ -> Alcotest.fail "expected Unknown_version 0");
  (* a malformed version is corruption, not a version mismatch *)
  (match Instrument.Wire.deserialize_v (bump "x") with
  | Error (Instrument.Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "expected Malformed on non-integer version");
  (* the error text reports the mismatch readably *)
  match Instrument.Wire.deserialize_v (bump "99") with
  | Error e ->
      check_bool "error text mentions version" true
        (Str.string_match (Str.regexp ".*version.*")
           (Instrument.Wire.error_to_string e) 0)
  | Ok _ -> Alcotest.fail "accepted version 99"

let prop_wire_roundtrip_synthetic =
  QCheck.Test.make ~count:100 ~name:"wire roundtrip on synthetic reports"
    QCheck.(
      triple (list bool)
        (list (pair (oneofl [ "read"; "select"; "accept"; "ready_fd" ]) small_nat))
        (list small_nat))
    (fun (bits, syscalls, tids) ->
      let rep =
        {
          Instrument.Report.program = "synthetic";
          method_used = Instrument.Methods.Dynamic_static;
          cohort = None;
          branch_log = Instrument.Report.Raw (Instrument.Branch_log.of_bits bits);
          syscall_log =
            Some
              {
                Instrument.Syscall_log.entries =
                  Array.of_list
                    (List.map
                       (fun (kind, value) -> { Instrument.Syscall_log.kind; value })
                       syscalls);
              };
          schedule_log = Some { Instrument.Schedule_log.tids = Array.of_list tids };
          crash =
            {
              Interp.Crash.kind = Interp.Crash.Out_of_bounds;
              loc = Minic.Loc.make ~file:"x.c" ~line:3 ~col:7;
              in_func = "main";
            };
          shape =
            {
              Concolic.Scenario.arg_caps = [ 4; 9 ];
              n_conns = 2;
              conn_cap = 64;
              file_names = [ "a.txt" ];
              file_cap = 32;
            };
          suppression = [];
        }
      in
      match Instrument.Wire.deserialize_v (Instrument.Wire.serialize rep) with
      | Ok rep' -> report_equal rep rep'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Cross-version matrix: hand-authored fixtures for every wire version.
   The body lines below are the frozen v1-v3 grammar; a reader change
   that breaks any historical version breaks these strings. *)

let fixture_body =
  String.concat "\n"
    [
      "program: fixture";
      "method: all";
      "crash: crash|f.c|3|7|main";
      "shape-args: 4,9";
      "shape-conns: 2,64";
      "shape-files: a.txt";
      "shape-filecap: 32";
      "branch-bits: 12";
      "branch-log: b505";
      "branch-flushes: 0";
      "syscalls: read:17,select:2";
      "schedule: 0,1,0";
      "";
    ]

let fixture_v v = Printf.sprintf "bugrepro-report/%d\n%s" v fixture_body

(* the canonical serialization order differs from the historical field
   order above (the branch payload now serializes last, so a tail tear
   costs bits rather than the syscall log); readers accept both, the
   writer emits only this one *)
let canonical_body ~payload =
  String.concat "\n"
    [
      "program: fixture";
      "method: all";
      "crash: crash|f.c|3|7|main";
      "shape-args: 4,9";
      "shape-conns: 2,64";
      "shape-files: a.txt";
      "shape-filecap: 32";
      "syscalls: read:17,select:2";
      "schedule: 0,1,0";
      "branch-bits: 12";
      "branch-flushes: 0";
      payload;
      "";
    ]

let canonical_v4 =
  "bugrepro-report/4\n" ^ canonical_body ~payload:"branch-log: b505"

(* the same 12 bits as one LITERAL codec token (header 0x80|12, then the
   packed payload bytes) *)
let fixture_v4_encoded =
  "bugrepro-report/4\n"
  ^ Str.global_replace
      (Str.regexp_string "branch-log: b505")
      "branch-enc: 8cb505" fixture_body

let canonical_v4_encoded =
  "bugrepro-report/4\n" ^ canonical_body ~payload:"branch-enc: 8cb505"

let fixture_bits =
  [
    true; false; true; false; true; true; false; true; true; false; true;
    false;
  ]

let test_wire_cross_version_fixtures () =
  (* v1, v2, v3 and v4-raw deserialize to byte-identical reports: each
     re-serializes to exactly the current (v4) fixture string *)
  List.iter
    (fun v ->
      match Instrument.Wire.deserialize_v (fixture_v v) with
      | Error e ->
          Alcotest.failf "v%d fixture rejected: %s" v
            (Instrument.Wire.error_to_string e)
      | Ok rep ->
          Alcotest.(check string)
            (Printf.sprintf "v%d normalizes to the v4 wire form" v)
            canonical_v4
            (Instrument.Wire.serialize rep);
          Alcotest.(check (list bool))
            (Printf.sprintf "v%d fixture bits" v)
            fixture_bits (report_bits rep))
    [ 1; 2; 3; 4 ]

let test_wire_v4_encoded_fixture () =
  match Instrument.Wire.deserialize_v fixture_v4_encoded with
  | Error e ->
      Alcotest.failf "v4 encoded fixture rejected: %s"
        (Instrument.Wire.error_to_string e)
  | Ok rep ->
      Alcotest.(check (list bool)) "encoded fixture bits" fixture_bits
        (report_bits rep);
      check_bool "payload stays encoded" true
        (match rep.branch_log with
        | Instrument.Report.Encoded _ -> true
        | Instrument.Report.Raw _ -> false);
      Alcotest.(check string) "encoded fixture re-serializes canonically"
        canonical_v4_encoded
        (Instrument.Wire.serialize rep);
      (* the raw and encoded fixtures are the same logical report *)
      match Instrument.Wire.deserialize_v (fixture_v 4) with
      | Ok raw -> check_bool "equal to the raw twin" true (report_equal rep raw)
      | Error _ -> Alcotest.fail "raw fixture rejected"

let contains s sub =
  match Str.search_forward (Str.regexp_string sub) s 0 with
  | _ -> true
  | exception Not_found -> false

(* [s] is damaged: the strict reader fails [Malformed] naming [field],
   and salvage keeps the report but diagnoses the same first damage *)
let expect_damage ~field s =
  match Instrument.Wire.deserialize_v s with
  | Ok _ -> Alcotest.failf "strict reader accepted damage to %s" field
  | Error (Instrument.Wire.Unknown_version v) ->
      Alcotest.failf "damage to %s misread as version %d" field v
  | Error (Instrument.Wire.Malformed m) -> (
      if not (contains m field) then
        Alcotest.failf "strict error %S does not name %s" m field;
      match Instrument.Wire.deserialize_salvage s with
      | Error e ->
          Alcotest.failf "salvage rejected: %s"
            (Instrument.Wire.error_to_string e)
      | Ok (_, d) ->
          check_bool "salvage does not call it intact" false
            d.Instrument.Wire.complete;
          Alcotest.(check (option string))
            "salvage names the same damage" (Some m) d.Instrument.Wire.damage)

let replace_in s ~sub ~by = Str.global_replace (Str.regexp_string sub) by s

let test_wire_enc_rejected_below_v4 () =
  List.iter
    (fun v ->
      expect_damage ~field:"branch-enc"
        (replace_in fixture_v4_encoded ~sub:"bugrepro-report/4"
           ~by:(Printf.sprintf "bugrepro-report/%d" v)))
    [ 1; 2; 3 ]

let test_wire_both_payloads_rejected () =
  expect_damage ~field:"branch-enc"
    (replace_in (fixture_v 4) ~sub:"branch-log: b505"
       ~by:"branch-log: b505\nbranch-enc: 8cb505")

let test_wire_enc_bit_count_strict () =
  (* claimed bits must match the decoded stream exactly, both directions *)
  List.iter
    (fun claim ->
      expect_damage ~field:"branch-bits"
        (replace_in fixture_v4_encoded ~sub:"branch-bits: 12"
           ~by:("branch-bits: " ^ claim)))
    [ "11"; "13"; "0" ]

let test_wire_missing_bits_damaged () =
  (* a corrupted key hides the claimed count: no payload bit is trusted *)
  List.iter
    (fun wire ->
      let s = replace_in wire ~sub:"branch-bits" ~by:"0ranch-bits" in
      expect_damage ~field:"branch-bits" s;
      match Instrument.Wire.deserialize_salvage s with
      | Ok (r, _) -> check_int "no bits kept" 0 (Instrument.Report.nbits r)
      | Error _ -> Alcotest.fail "salvage rejected")
    [ fixture_v 4; fixture_v4_encoded ]

let test_wire_odd_nibble_damaged () =
  (* a raw log may carry slack bytes: with 8 bits claimed over two bytes,
     losing the last nibble loses no claimed bit, yet the hex is torn *)
  let slack =
    replace_in (fixture_v 4) ~sub:"branch-bits: 12" ~by:"branch-bits: 8"
  in
  (match Instrument.Wire.deserialize_v slack with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e));
  let s = replace_in slack ~sub:"b505" ~by:"b50" in
  expect_damage ~field:"branch-log" s;
  (match Instrument.Wire.deserialize_salvage s with
  | Ok (_, d) ->
      check_int "no claimed bit lost" 0 d.Instrument.Wire.lost_log_bits
  | Error _ -> Alcotest.fail "salvage rejected");
  expect_damage ~field:"branch-enc"
    (replace_in fixture_v4_encoded ~sub:"8cb505" ~by:"8cb50")

let test_wire_repeated_key_damaged () =
  expect_damage ~field:"shape-filecap"
    (replace_in (fixture_v 4) ~sub:"shape-filecap: 32"
       ~by:"shape-filecap: 32\nshape-filecap: 99")

let test_wire_line_without_colon_damaged () =
  (* a newline substituted into a value splits its line: the head still
     parses (conn_cap 6, a shorter schedule), the tail has no key *)
  expect_damage ~field:"schedule"
    (replace_in (fixture_v 4) ~sub:"schedule: 0,1,0" ~by:"schedule: 0,1\n0");
  (* before the shape is complete the damage costs an identity field, so
     salvage rejects too; the error still names the split field *)
  match
    Instrument.Wire.deserialize_v
      (replace_in (fixture_v 4) ~sub:"shape-conns: 2,64"
         ~by:"shape-conns: 2,6\n4")
  with
  | Error (Instrument.Wire.Malformed m) when contains m "shape-conns" -> ()
  | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted a split shape-conns line"

(* ------------------------------------------------------------------ *)
(* One reader.  The strict view is exactly a clean salvage on the probe
   input set — every prefix and every single-position substitution of
   genuine wires — and neither reader raises. *)

(* one wire per quick fleet base, encoded as shipped and re-serialized
   with its payload downgraded to raw *)
let quick_wires =
  lazy
    (let gen =
       Workloads.Report_gen.make ~quick:true
         ~config:Bugrepro.Pipeline.Config.default ()
     in
     let bases = List.length (Workloads.Report_gen.bases gen) in
     let wires =
       Workloads.Report_gen.stream gen ~seed:1 ~clients:1 ~torn_pct:0.0 60
       |> List.map (fun (r : Workloads.Report_gen.report) -> r.wire)
       |> List.sort_uniq String.compare
     in
     check_int "every base recorded" bases (List.length wires);
     let raw_wire wire =
       match Instrument.Wire.deserialize_v wire with
       | Ok r -> Instrument.Wire.serialize (raw_twin r)
       | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e)
     in
     wires @ List.map raw_wire wires)

(* a crash report from a plan that elides probes, so it carries a
   suppression table *)
let suppressed_report () =
  let prog =
    Minic.Program.of_sources
      ~app:
        "int main() {\n\
        \  int buf[8];\n\
        \  int x;\n\
        \  arg(0, buf, 8);\n\
        \  x = buf[0];\n\
        \  if (x > 0) { print_int(1); }\n\
        \  if (x > 0) { print_int(2); }\n\
        \  crash();\n\
        \  return 0;\n\
         }"
      ~libs:[] ()
  in
  let instrumented = Array.make (Minic.Program.nbranches prog) true in
  let plan =
    Instrument.Plan.with_suppression
      (Instrument.Plan.make
         ~nbranches:(Minic.Program.nbranches prog)
         Instrument.Methods.All_branches)
      (Staticanalysis.Suppression.analyze ~instrumented prog)
  in
  let sc =
    Concolic.Scenario.make ~name:"wire-sup" ~args:[ "q" ]
      ~world:Osmodel.World.default_config prog
  in
  match Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan sc with
  | _, Some r when r.Instrument.Report.suppression <> [] -> r
  | _ -> Alcotest.fail "no crash report with a suppression table"

let iter_probe_inputs wire f =
  let n = String.length wire in
  for k = 0 to n do
    f (String.sub wire 0 k)
  done;
  for pos = 0 to n - 1 do
    List.iter
      (fun c ->
        if wire.[pos] <> c then (
          let b = Bytes.of_string wire in
          Bytes.set b pos c;
          f (Bytes.to_string b)))
      [ '0'; 'z'; '\n'; ':'; ','; ' ' ]
  done

let test_wire_one_reader () =
  let sup = suppressed_report () in
  let v3 =
    replace_in
      (Instrument.Wire.serialize (raw_twin sup))
      ~sub:"bugrepro-report/4" ~by:"bugrepro-report/3"
  in
  let wires =
    Lazy.force quick_wires
    @ List.map fixture_v [ 1; 2; 3; 4 ]
    @ [ fixture_v4_encoded; Instrument.Wire.serialize sup; v3 ]
  in
  let total = ref 0 and disagree = ref 0 and raised = ref 0 in
  let first = ref None in
  List.iter
    (fun wire ->
      iter_probe_inputs wire (fun s ->
          incr total;
          let bad counter =
            incr counter;
            if !first = None then first := Some s
          in
          match Fuzz.Oracle.reader_disagreement s with
          | None -> ()
          | Some _ -> bad disagree
          | exception _ -> bad raised))
    wires;
  if !disagree + !raised > 0 then
    Alcotest.failf "%d of %d inputs disagree, %d raise; first: %S" !disagree
      !total !raised (Option.get !first);
  check_bool "the probe set is the full sweep" true (!total > 10_000)

let test_wire_salvage_bounded_by_claim () =
  (* one corrupted byte turns a MATCH length into ~2^50 bits; salvage must
     neither decode nor allocate past the claimed branch-bits *)
  let wire =
    List.find
      (fun w ->
        contains w "program: userver-exp1" && contains w "branch-enc: ")
      (Lazy.force quick_wires)
  in
  let start =
    Str.search_forward (Str.regexp_string "branch-enc: ") wire 0
    + String.length "branch-enc: "
  in
  let byte24 = start + (2 * 24) in
  Alcotest.(check string) "payload byte 24" "bf" (String.sub wire byte24 2);
  let bad =
    String.sub wire 0 byte24 ^ "0f"
    ^ String.sub wire (byte24 + 2) (String.length wire - byte24 - 2)
  in
  let claimed =
    match Instrument.Wire.deserialize_v wire with
    | Ok r -> Instrument.Report.nbits r
    | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e)
  in
  expect_damage ~field:"branch-enc" bad;
  match Instrument.Wire.deserialize_salvage bad with
  | Ok (r, d) ->
      check_bool "no bit past the claim" true
        (Instrument.Report.nbits r <= claimed);
      check_int "loss accounted" claimed
        (Instrument.Report.nbits r + d.Instrument.Wire.lost_log_bits)
  | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e)

let replay_config =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget
         ~replay:{ Concolic.Engine.max_runs = 2000; max_time_s = 15.0 })

let test_wire_v4_encoded_equals_raw_run () =
  (* the shipped encoded report and its raw twin stream identical bits and
     both reproduce the crash from their wire forms *)
  let crash = Workloads.Coreutils.crash_scenario paste in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches crash.prog)
      Instrument.Methods.All_branches
  in
  let enc =
    Option.get
      (Instrument.Report.of_field_run ~sc:crash ~plan
         (Instrument.Field_run.run ~plan crash))
  in
  let raw = raw_twin enc in
  check_bool "encoded report ships an encoded payload" true
    (match enc.branch_log with Instrument.Report.Encoded _ -> true | _ -> false);
  check_bool "raw report ships a raw payload" true
    (match raw.branch_log with Instrument.Report.Raw _ -> true | _ -> false);
  Alcotest.(check (list bool))
    "bit-for-bit equal logs" (report_bits raw) (report_bits enc);
  List.iter
    (fun rep ->
      match Instrument.Wire.deserialize_v (Instrument.Wire.serialize rep) with
      | Error e ->
          Alcotest.fail
            ("wire roundtrip failed: " ^ Instrument.Wire.error_to_string e)
      | Ok rep' ->
          let result, _ =
            Bugrepro.Pipeline.Run.reproduce replay_config ~prog:crash.prog
              ~plan rep'
          in
          check_bool "reproduced" true (Replay.Guided.reproduced result))
    [ enc; raw ]

let test_wire_replay_from_deserialized () =
  (* the full loop: serialize at the user site, parse at the developer
     site, reproduce *)
  let crash = Workloads.Coreutils.crash_scenario paste in
  let prog = crash.prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let _, rep = Bugrepro.Pipeline.(Run.field_run_report Config.default) ~plan crash in
  let wire = Instrument.Wire.serialize (Option.get rep) in
  match Instrument.Wire.deserialize_v wire with
  | Error e -> Alcotest.fail (Instrument.Wire.error_to_string e)
  | Ok rep ->
      let result, _ =
        Bugrepro.Pipeline.Run.reproduce replay_config ~prog ~plan rep
      in
      check_bool "reproduced from wire form" true (Replay.Guided.reproduced result)

(* The probe path allocates nothing per logged branch: what an
   all-branches run allocates beyond an uninstrumented one is per-run
   setup and the run-end decode (one byte per eight bits). *)
let test_probe_allocation () =
  let sc = Workloads.Microbench.counter_loop ~iterations:20_000 () in
  let plan meth = Instrument.Plan.make ~nbranches:(Minic.Program.nbranches sc.prog) meth in
  let words meth =
    let before = Gc.minor_words () in
    let r = Instrument.Field_run.run ~plan:(plan meth) sc in
    (Gc.minor_words () -. before, r.cost.logged_branches)
  in
  let none, _ = words Instrument.Methods.No_instrumentation in
  let all, logged = words Instrument.Methods.All_branches in
  let per_branch = (all -. none) /. float_of_int logged in
  check_bool
    (Printf.sprintf "%.3f minor words per logged branch < 0.1" per_branch)
    true (per_branch < 0.1)

let () =
  Alcotest.run "instrument"
    [
      ( "plan",
        [
          Alcotest.test_case "dynamic" `Quick test_plan_dynamic;
          Alcotest.test_case "static" `Quick test_plan_static;
          Alcotest.test_case "dynamic+static combination" `Quick test_plan_combined;
          Alcotest.test_case "all/none" `Quick test_plan_all_and_none;
          Alcotest.test_case "missing labels rejected" `Quick
            test_plan_missing_labels_rejected;
        ] );
      ( "branch_log",
        [
          Alcotest.test_case "roundtrip" `Quick test_branch_log_roundtrip;
          Alcotest.test_case "reader exhaustion" `Quick
            test_branch_log_reader_exhaustion;
          Alcotest.test_case "flushes" `Quick test_branch_log_flushes;
          Alcotest.test_case "size" `Quick test_branch_log_size;
          QCheck_alcotest.to_alcotest prop_branch_log_roundtrip;
        ] );
      ( "codec",
        [
          Alcotest.test_case "empty log" `Quick test_codec_empty;
          Alcotest.test_case "identity at every prefix length" `Quick
            test_codec_prefix_identity_all_lengths;
          Alcotest.test_case "flush at every bit" `Quick
            test_codec_flush_every_boundary;
          Alcotest.test_case "flush at each boundary once" `Quick
            test_codec_flush_at_one_boundary_each;
          Alcotest.test_case "cut_prefix is total" `Quick
            test_codec_cut_prefix_total;
          Alcotest.test_case "cut_prefix respects max_bits" `Quick
            test_codec_cut_respects_max_bits;
          Alcotest.test_case "cut_prefix recovers partial literal" `Quick
            test_codec_cut_recovers_partial_literal;
          Alcotest.test_case "truncation fails closed" `Quick
            test_codec_truncation_fails_closed;
          Alcotest.test_case "corruption fails closed" `Quick
            test_codec_corruption_fails_closed;
          Alcotest.test_case "reader streams" `Quick test_codec_reader_streams;
          Alcotest.test_case "loop-heavy streams collapse" `Quick
            test_codec_compresses_loops;
          Alcotest.test_case "flush accounting" `Quick
            test_codec_flush_accounting;
          Alcotest.test_case "offline = online" `Quick
            test_codec_offline_matches_online;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_flushed_prefix;
          QCheck_alcotest.to_alcotest prop_codec_cut_prefix;
        ] );
      ( "compress",
        [
          Alcotest.test_case "ratio floor" `Quick test_compress_ratio_floor;
          Alcotest.test_case "size matches payload" `Quick
            test_compress_size_matches_payload;
        ] );
      ( "syscall_log",
        [
          Alcotest.test_case "roundtrip" `Quick test_syscall_log_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_syscall_log_kind_mismatch;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "hex of every byte" `Quick test_wire_hex_every_byte;
          Alcotest.test_case "roundtrip with schedule" `Quick test_wire_roundtrip_mt;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "rejects bit overrun" `Quick test_wire_rejects_bit_overrun;
          Alcotest.test_case "version header" `Quick test_wire_version_header;
          Alcotest.test_case "version roundtrip" `Quick test_wire_version_roundtrip;
          Alcotest.test_case "accepts v1" `Quick test_wire_accepts_v1;
          Alcotest.test_case "unknown version distinct" `Quick
            test_wire_unknown_version_distinct;
          Alcotest.test_case "cross-version fixtures" `Quick
            test_wire_cross_version_fixtures;
          Alcotest.test_case "v4 encoded fixture" `Quick
            test_wire_v4_encoded_fixture;
          Alcotest.test_case "branch-enc rejected below v4" `Quick
            test_wire_enc_rejected_below_v4;
          Alcotest.test_case "both payloads rejected" `Quick
            test_wire_both_payloads_rejected;
          Alcotest.test_case "encoded bit count strict" `Quick
            test_wire_enc_bit_count_strict;
          Alcotest.test_case "missing branch-bits is damage" `Quick
            test_wire_missing_bits_damaged;
          Alcotest.test_case "odd hex nibble is damage" `Quick
            test_wire_odd_nibble_damaged;
          Alcotest.test_case "repeated key is damage" `Quick
            test_wire_repeated_key_damaged;
          Alcotest.test_case "line without colon is damage" `Quick
            test_wire_line_without_colon_damaged;
          Alcotest.test_case "strict is a clean salvage" `Quick
            test_wire_one_reader;
          Alcotest.test_case "salvage bounded by the claim" `Quick
            test_wire_salvage_bounded_by_claim;
          Alcotest.test_case "encoded run equals raw run" `Quick
            test_wire_v4_encoded_equals_raw_run;
          Alcotest.test_case "replay from wire form" `Quick
            test_wire_replay_from_deserialized;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip_synthetic;
        ] );
      ( "field_run",
        [
          Alcotest.test_case "bit accounting" `Quick test_field_run_counts_bits;
          Alcotest.test_case "cost ordering" `Quick test_field_run_cost_ordering;
          Alcotest.test_case "probe allocation" `Quick test_probe_allocation;
          Alcotest.test_case "report only on crash" `Quick
            test_field_run_report_only_on_crash;
          Alcotest.test_case "report carries shape, not content" `Quick
            test_report_has_no_input_content;
          Alcotest.test_case "syscall logging marginal" `Slow
            test_syscall_logging_marginal_overhead;
          Alcotest.test_case "deterministic runs" `Quick
            test_deterministic_field_runs;
        ] );
    ]
