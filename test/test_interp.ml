(* Tests for the evaluator and the simulated OS: semantics, crashes,
   builtins, I/O, cost accounting, hooks. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let compile ?(libs = []) src = Minic.Program.of_sources ~app:src ~libs ()

let run ?(args = []) ?(world = Osmodel.World.default_config) ?(max_steps = 1_000_000)
    ?(hooks = Interp.Eval.no_hooks) src =
  let prog = compile src in
  let _w, handle = Osmodel.World.kernel world in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings args;
      kernel = Interp.Kernel.of_world handle;
      hooks;
      max_steps;
      scheduler = None;
    }
  in
  Interp.Eval.run prog cfg

let exit_code (r : Interp.Eval.result) =
  match r.outcome with
  | Interp.Crash.Exit n -> n
  | o -> Alcotest.failf "expected exit, got %s" (Interp.Crash.outcome_to_string o)

let crash_kind (r : Interp.Eval.result) =
  match r.outcome with
  | Interp.Crash.Crash c -> c.kind
  | o -> Alcotest.failf "expected crash, got %s" (Interp.Crash.outcome_to_string o)

(* ------------------------------------------------------------------ *)
(* Basic semantics *)

let test_arith () =
  check_int "17 % 5 + 3 * 4" 14 (exit_code (run "int main() { return 17 % 5 + 3 * 4; }"))

let test_division_truncates_toward_zero () =
  check_int "-7/2" (-3) (exit_code (run "int main() { return -7 / 2; }"));
  check_int "-7%2" (-1) (exit_code (run "int main() { return -7 % 2; }"))

let test_logical_strictness_result () =
  check_int "0 && x -> 0" 0 (exit_code (run "int main() { return 0 && 9; }"));
  check_int "nonzero coerced" 1 (exit_code (run "int main() { return 5 && 9; }"));
  check_int "or" 1 (exit_code (run "int main() { return 0 || 3; }"))

let test_while_loop () =
  check_int "sum 1..10" 55
    (exit_code
       (run
          "int main() { int s = 0; int i = 1; while (i <= 10) { s = s + i; i = i + 1; } return s; }"))

let test_break_continue () =
  check_int "break" 5
    (exit_code
       (run
          "int main() { int i = 0; while (1) { if (i == 5) break; i = i + 1; } return i; }"));
  check_int "continue skips" 25
    (exit_code
       (run
          "int main() { int i = 0; int s = 0; while (i < 10) { i = i + 1; if (i % 2 == 0) continue; s = s + i; } return s; }"))

let test_recursion () =
  check_int "fib 10" 89
    (exit_code
       (run
          "int fib(int n) { if (n <= 1) return 1; return fib(n - 1) + fib(n - 2); }\n\
           int main() { return fib(10); }"))

let test_arrays_and_pointers () =
  check_int "ptr writes" 42
    (exit_code
       (run
          "int main() { int a[5]; int *p; p = &a[2]; *p = 40; p[1] = 2; return a[2] + a[3]; }"));
  check_int "pointer arith" 7
    (exit_code
       (run
          "int main() { int a[3]; int *p = a; *(p + 1) = 7; return a[1]; }"))

let test_globals () =
  check_int "global init and update" 11
    (exit_code (run "int g = 4; int main() { g = g + 7; return g; }"))

let test_string_literal () =
  let r = run "int main() { print_str(\"hi there\"); return 0; }" in
  check_str "output" "hi there" r.output

let test_string_literal_bytes () =
  check_int "literal byte" 105
    (exit_code (run "int main() { int *s = \"hi\"; return s[1]; }"))

let test_by_reference_param () =
  check_int "out param" 9
    (exit_code
       (run
          "void set(int *out, int v) { *out = v; }\n\
           int main() { int x = 0; set(&x, 9); return x; }"))

let test_array_param () =
  check_int "array passed as pointer" 6
    (exit_code
       (run
          "int sum(int a[], int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) s = s + a[i]; return s; }\n\
           int main() { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; return sum(a, 3); }"))

(* ------------------------------------------------------------------ *)
(* Crashes *)

let test_crash_oob () =
  check_bool "oob" true
    (crash_kind (run "int main() { int a[3]; return a[3]; }") = Interp.Crash.Out_of_bounds)

let test_crash_null () =
  check_bool "null" true
    (crash_kind (run "int main() { int *p; return *p; }") = Interp.Crash.Null_deref)

let test_crash_div0 () =
  check_bool "div0" true
    (crash_kind (run "int main() { int z = 0; return 1 / z; }") = Interp.Crash.Div_by_zero)

let test_crash_explicit () =
  check_bool "crash()" true
    (crash_kind (run "int main() { crash(); return 0; }") = Interp.Crash.Explicit_crash)

let test_crash_assert () =
  check_bool "assert" true
    (crash_kind (run "int main() { assert(1 == 2); return 0; }")
    = Interp.Crash.Assert_failure)

let test_crash_use_after_free () =
  let src =
    "int *leak() { int x = 3; return &x; }\n\
     int main() { int *p = leak(); return *p; }"
  in
  check_bool "uaf" true (crash_kind (run src) = Interp.Crash.Use_after_free)

let test_crash_stack_overflow () =
  let src = "int f(int n) { return f(n + 1); }\nint main() { return f(0); }" in
  check_bool "stack overflow" true
    (crash_kind (run src) = Interp.Crash.Stack_overflow)

let test_crash_site_location () =
  let r = run "int main() {\n  int a[2];\n  return a[9];\n}" in
  match r.outcome with
  | Interp.Crash.Crash c ->
      check_int "crash line" 3 c.loc.line;
      check_str "crash func" "main" c.in_func
  | _ -> Alcotest.fail "expected crash"

let test_budget_exhaustion () =
  let r = run ~max_steps:1000 "int main() { while (1) { } return 0; }" in
  check_bool "budget" true (r.outcome = Interp.Crash.Budget_exhausted)

(* ------------------------------------------------------------------ *)
(* Builtins and I/O *)

let test_exit_builtin () =
  check_int "exit(3)" 3 (exit_code (run "int main() { exit(3); return 0; }"))

let test_args () =
  let src =
    "int main() { int buf[32]; int n = arg(0, buf, 32); if (buf[0] == 'x') return n; return 99; }"
  in
  check_int "arg copied" 3 (exit_code (run ~args:[ "xyz" ] src))

let test_argc () =
  check_int "argc" 2 (exit_code (run ~args:[ "a"; "b" ] "int main() { return argc(); }"))

let test_read_file () =
  let world =
    { Osmodel.World.default_config with files = [ ("data.txt", "hello") ] }
  in
  let src =
    "int main() { int buf[16]; int fd = open(\"data.txt\", 0); if (fd < 0) return 1; \
     int n = read(fd, buf, 16); close(fd); if (buf[0] != 'h') return 2; return n; }"
  in
  check_int "read 5 bytes" 5 (exit_code (run ~world src))

let test_open_missing_file () =
  let src = "int main() { return open(\"nope\", 0); }" in
  check_int "missing file" (-1) (exit_code (run src))

let test_write_stdout () =
  let world = Osmodel.World.default_config in
  let prog =
    compile
      "int main() { int b[3]; b[0] = 'o'; b[1] = 'k'; b[2] = '\\n'; write(1, b, 3); return 0; }"
  in
  let w, handle = Osmodel.World.kernel world in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings [];
      kernel = Interp.Kernel.of_world handle;
      hooks = Interp.Eval.no_hooks;
      max_steps = 100000;
      scheduler = None;
    }
  in
  let r = Interp.Eval.run prog cfg in
  check_int "exit" 0 (exit_code r);
  check_str "stdout" "ok\n" (Osmodel.World.stdout_string w)

let test_server_accept_read () =
  (* one connection sending "PING"; server accepts after select and echoes *)
  let world =
    {
      Osmodel.World.default_config with
      conns = [ "PING" ];
      arrivals_per_select = 2;
      max_chunk = 64;
    }
  in
  let src =
    "int main() {\n\
     int buf[64]; int got = 0; int fd = -1; int tries = 0;\n\
     listen(80);\n\
     while (got < 4 && tries < 100) {\n\
     tries = tries + 1;\n\
     int nready = select();\n\
     if (fd < 0) { fd = accept(); }\n\
     if (fd >= 0) { int n = read(fd, buf, 64); if (n > 0) got = got + n; }\n\
     }\n\
     return got;\n\
     }"
  in
  check_int "received 4 bytes" 4 (exit_code (run ~world src))

let test_world_partial_reads () =
  (* with max_chunk 2, a 6-byte payload takes >= 3 reads *)
  let world =
    { Osmodel.World.default_config with conns = [ "abcdef" ]; max_chunk = 2 }
  in
  let src =
    "int main() {\n\
     int buf[8]; int reads = 0; int got = 0; int fd = -1; int tries = 0;\n\
     listen(80);\n\
     while (got < 6 && tries < 200) {\n\
     tries = tries + 1;\n\
     select();\n\
     if (fd < 0) fd = accept();\n\
     if (fd >= 0) { int n = read(fd, buf, 8); if (n > 0) { got = got + n; reads = reads + 1; } }\n\
     }\n\
     return reads;\n\
     }"
  in
  check_bool "at least 3 reads" true (exit_code (run ~world src) >= 3)

(* ------------------------------------------------------------------ *)
(* Hooks and cost *)

let test_branch_hook_fires_per_execution () =
  let count = ref 0 in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch = (fun ~bid:_ ~iter:_ ~taken ~cond:_ -> incr count; taken);
    }
  in
  let _ =
    run ~hooks
      "int main() { int i; for (i = 0; i < 10; i = i + 1) { if (i > 100) { } } return 0; }"
  in
  (* while executes 11 times (10 taken + 1 exit), if 10 times *)
  check_int "branch executions" 21 !count

let test_branch_hook_taken_direction () =
  let dirs = ref [] in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch = (fun ~bid:_ ~iter:_ ~taken ~cond:_ -> dirs := taken :: !dirs; taken);
    }
  in
  let _ = run ~hooks "int main() { if (1) { } if (0) { } return 0; }" in
  Alcotest.(check (list bool)) "directions" [ false; true ] !dirs

let test_cost_monotone_in_work () =
  let r1 = run "int main() { int i; for (i = 0; i < 10; i = i + 1) { } return 0; }" in
  let r2 = run "int main() { int i; for (i = 0; i < 1000; i = i + 1) { } return 0; }" in
  check_bool "more iterations cost more" true (r2.cost.instr > r1.cost.instr)

let test_abort_hook () =
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid:_ ~iter:_ ~taken:_ ~cond:_ -> raise (Interp.Eval.Abort_run "test"));
    }
  in
  let r = run ~hooks "int main() { if (1) { } return 0; }" in
  check_bool "aborted" true
    (match r.outcome with Interp.Crash.Aborted _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Golden table: every workload scenario, concrete and symbolic *)

(* One line per run pinning everything observable about it: outcome (crash
   kind, location, function), steps, the five cost counters, a digest of the
   output, and digests of the branch, concretization and checkpoint hook
   sequences.  Pointer values carry block ids, so the digests also pin the
   allocation order.  Recorded once; any semantic drift of the evaluator
   changes a line.  [run] picks the evaluator; [live] also asks for the
   run's live state and adds the count and newest of its unpinned uses to
   each branch entry. *)
let golden_line ?(run = Interp.Eval.run) ?(live = false) ~mode (sc : Concolic.Scenario.t) =
  let br = Buffer.create 4096 and cz = Buffer.create 256 and ck = Buffer.create 64 in
  let sym_str = function
    | None -> ""
    | Some e -> Solver.Expr.to_string e
  in
  let access = ref None in
  let hooks =
    {
      Interp.Eval.on_branch =
        (fun ~bid ~iter ~taken ~(cond : Interp.Value.t) ->
          Printf.bprintf br "%d,%d,%b,%s;" bid iter taken (sym_str cond.sym);
          Option.iter
            (fun (a : Interp.Eval.live_access) ->
              match a.unpinned () with
              | [] -> ()
              | (e, n) :: _ as l ->
                  Printf.bprintf br "%d:%s=%d;" (List.length l) (Solver.Expr.to_string e) n)
            !access;
          taken);
      on_concretize =
        (fun e n -> Printf.bprintf cz "%s=%d;" (Solver.Expr.to_string e) n);
      on_checkpoint =
        (fun access ->
          List.iter
            (fun (g, size) ->
              Printf.bprintf ck "%s:%d:" g size;
              for off = 0 to size - 1 do
                match access.read_global g off with
                | Some v -> Printf.bprintf ck "%s," (Interp.Value.to_string v)
                | None -> Buffer.add_string ck "?,"
              done)
            (access.list_globals ()));
      on_start = (if live then Some (fun a -> access := Some a) else None);
    }
  in
  let world, handle = Osmodel.World.kernel sc.world in
  let inputs, kernel =
    match mode with
    | `Concrete ->
        (Interp.Inputs.of_strings sc.args, Interp.Kernel.of_world handle)
    | `Symbolic ->
        let vars = Solver.Symvars.create () in
        let model = Solver.Model.empty in
        let sk =
          Concolic.Sym_kernel.create ~vars ~model ~world ~handle ~sym_results:true ()
        in
        ( Concolic.Sym_kernel.symbolic_args ~vars ~model sc
            ~caps:(Concolic.Scenario.shape_of sc).arg_caps,
          Concolic.Sym_kernel.kernel sk )
  in
  let picks = ref 0 in
  let scheduler tids =
    incr picks;
    List.nth tids (!picks mod List.length tids)
  in
  let r =
    run sc.prog
      { inputs; kernel; hooks; max_steps = sc.max_steps; scheduler = Some scheduler }
  in
  let d b = String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12 in
  Printf.sprintf "%s %s | %s | %d | %d %d %d %d %d | %s %s %s %s"
    sc.name
    (match mode with `Concrete -> "conc" | `Symbolic -> "sym")
    (Interp.Crash.outcome_to_string r.outcome)
    r.steps r.cost.instr r.cost.branches r.cost.logged_branches r.cost.syscalls
    r.cost.logged_syscalls
    (String.sub (Digest.to_hex (Digest.string r.output)) 0 12)
    (d br) (d cz) (d ck)

let golden_runs () =
  let module W = Workloads in
  let coreutils =
    List.concat_map
      (fun (e : W.Coreutils.entry) ->
        let named tag (sc : Concolic.Scenario.t) =
          { sc with name = Printf.sprintf "%s-%s" e.util tag }
        in
        [
          (`Concrete, named "benign" (W.Coreutils.benign_scenario e));
          (`Concrete, named "crash" (W.Coreutils.crash_scenario e));
          (`Concrete, named "analysis" (W.Coreutils.analysis_scenario e));
          (`Symbolic, named "analysis" (W.Coreutils.analysis_scenario e));
        ])
      W.Coreutils.catalog
  in
  let ckpt =
    W.Userver.checkpointed_scenario
      (W.Http_gen.workload ~seed:3 12 @ (W.Userver.experiment 1).requests)
  in
  let userver =
    List.map
      (fun (x : W.Userver.experiment) -> (`Concrete, W.Userver.experiment_scenario x))
      W.Userver.experiments
    @ [
        (`Symbolic, W.Userver.experiment_scenario (W.Userver.experiment 1));
        (`Concrete, ckpt);
        (`Symbolic, ckpt);
      ]
  in
  let named name (sc : Concolic.Scenario.t) = { sc with name } in
  let diff =
    [
      (`Concrete, named "diff-1" (W.Diffutil.experiment_1 ()));
      (`Concrete, named "diff-2" (W.Diffutil.experiment_2 ()));
      (`Symbolic, named "diff-1" (W.Diffutil.experiment_1 ()));
    ]
  in
  let micro =
    [
      (`Concrete, named "counter" (W.Microbench.counter_loop ~iterations:2000 ()));
      (`Symbolic, named "counter" (W.Microbench.counter_loop ~iterations:2000 ()));
      (`Concrete, named "fib-a" (W.Microbench.fibonacci ~option:"a" ()));
      (`Concrete, named "fib-b" (W.Microbench.fibonacci ~option:"b" ()));
      (`Symbolic, named "fib-a" (W.Microbench.fibonacci ~option:"a" ()));
      (`Concrete, named "mtrace" (W.Mtrace.scenario ()));
      (`Concrete, named "mtrace-benign" (W.Mtrace.benign_scenario ()));
      (`Symbolic, named "mtrace" (W.Mtrace.scenario ()));
    ]
  in
  (* MiniC cannot print a pointer, but the checkpoint hook reads globals
     holding pointers to locals, parameters and literals, so this line
     pins block allocation order: slots per call, frames killed on
     return, literals interned on first evaluation *)
  let alloc_order =
    Concolic.Scenario.make ~name:"alloc-order"
      (compile
         "int *gp; int *ga; int *gq; int *gs; int *gl = \"global\";\n\
          int leaf(int a, int b) { int t[3]; int u; gp = &u; ga = t; gq = &b;\n\
          gs = \"leaf\"; checkpoint(); return a + b; }\n\
          int mid(int n) { int k; int r; r = leaf(n, 2); gs = \"mid\"; return r; }\n\
          int main() { int i; int s = 0; i = 0;\n\
          while (i < 2) { s = s + mid(i); i = i + 1; }\n\
          gs = \"leaf\"; checkpoint(); return s; }")
  in
  coreutils @ userver @ diff @ micro
  @ [ (`Concrete, alloc_order); (`Symbolic, alloc_order) ]

let golden_expected =
  [
    "mkdir-benign conc | exit(0) | 93 | 514 35 0 0 0 | a14adcbf7768 35c10e9cd702 d41d8cd98f00 d41d8cd98f00";
    "mkdir-crash conc | CRASH: out-of-bounds at mkdir.c:8:5 (in apply_mode) | 99 | 570 36 0 0 0 | d41d8cd98f00 042aa11e7e4d d41d8cd98f00 d41d8cd98f00";
    "mkdir-analysis conc | exit(0) | 221 | 1210 78 0 0 0 | cc5556588578 beaaf68f51b8 d41d8cd98f00 d41d8cd98f00";
    "mkdir-analysis sym | exit(0) | 221 | 1210 78 0 0 0 | cc5556588578 7b17c4cdbf74 d41d8cd98f00 d41d8cd98f00";
    "mknod-benign conc | exit(0) | 19 | 104 5 0 0 0 | e4748b725e23 97c1d8754e36 d41d8cd98f00 d41d8cd98f00";
    "mknod-crash conc | CRASH: out-of-bounds at mknod.c:10:3 (in register_dev) | 107 | 527 48 0 0 0 | d41d8cd98f00 0fc6c91d8256 d41d8cd98f00 d41d8cd98f00";
    "mknod-analysis conc | exit(1) | 28 | 157 11 0 0 0 | 180c02c8073e 3b2d3fe74711 d41d8cd98f00 d41d8cd98f00";
    "mknod-analysis sym | exit(1) | 28 | 157 11 0 0 0 | 180c02c8073e 62445b1a638e d41d8cd98f00 d41d8cd98f00";
    "mkfifo-benign conc | exit(0) | 86 | 486 32 0 0 0 | d0fbf4235f92 a92df1a06048 d41d8cd98f00 d41d8cd98f00";
    "mkfifo-crash conc | CRASH: out-of-bounds at mkfifo.c:11:7 (in split_components) | 148 | 812 68 0 0 0 | d41d8cd98f00 77d151ea5d07 d41d8cd98f00 d41d8cd98f00";
    "mkfifo-analysis conc | exit(0) | 208 | 1144 86 0 0 0 | 98d84c912505 c7460dd72066 d41d8cd98f00 d41d8cd98f00";
    "mkfifo-analysis sym | exit(0) | 208 | 1144 86 0 0 0 | 98d84c912505 5541752ce6ce d41d8cd98f00 d41d8cd98f00";
    "paste-benign conc | exit(0) | 231 | 1108 78 0 0 0 | dc7f1fa90f85 5bfb1052dc8f d41d8cd98f00 d41d8cd98f00";
    "paste-crash conc | CRASH: out-of-bounds at paste.c:19:5 (in decode_delim) | 151 | 704 48 0 0 0 | d41d8cd98f00 beeaf02b4a90 d41d8cd98f00 d41d8cd98f00";
    "paste-analysis conc | exit(0) | 348 | 1682 124 0 0 0 | f948d5599006 45988ab68f0f d41d8cd98f00 d41d8cd98f00";
    "paste-analysis sym | exit(0) | 348 | 1682 124 0 0 0 | f948d5599006 c5789f5e9830 d41d8cd98f00 d41d8cd98f00";
    "userver-exp1 conc | CRASH: out-of-bounds at userver.c:157:5 (in handle_request) | 3007 | 16054 1239 0 10 0 | d41d8cd98f00 35dcca183ee9 d41d8cd98f00 d41d8cd98f00";
    "userver-exp2 conc | CRASH: div-by-zero at userver.c:210:9 (in handle_request) | 5678 | 30537 2371 0 29 0 | d41d8cd98f00 aa6a549525ad d41d8cd98f00 d41d8cd98f00";
    "userver-exp3 conc | CRASH: out-of-bounds at userver.c:103:7 (in parse_cookie) | 19404 | 106659 9485 0 16 0 | d41d8cd98f00 edfc1ea233fb d41d8cd98f00 d41d8cd98f00";
    "userver-exp4 conc | CRASH: out-of-bounds at userver.c:144:3 (in handle_request) | 2483 | 13420 980 0 25 0 | d41d8cd98f00 613de1def48b d41d8cd98f00 d41d8cd98f00";
    "userver-exp5 conc | CRASH: out-of-bounds at userver.c:178:5 (in handle_request) | 4543 | 23551 1755 0 29 0 | d41d8cd98f00 f46abc0b2744 d41d8cd98f00 d41d8cd98f00";
    "userver-exp1 sym | CRASH: out-of-bounds at userver.c:157:5 (in handle_request) | 3007 | 16054 1239 0 10 0 | d41d8cd98f00 8d4d8d6a3b9d 4fc885c2948f d41d8cd98f00";
    "userver-ckpt conc | CRASH: out-of-bounds at userver-ckpt.c:158:5 (in handle_request) | 57585 | 320682 25818 0 205 0 | a73da5175a1c 49a904dfbbde d41d8cd98f00 6ce73f92f808";
    "userver-ckpt sym | CRASH: out-of-bounds at userver-ckpt.c:158:5 (in handle_request) | 57585 | 320682 25818 0 205 0 | a73da5175a1c 71a3f82c3680 c7ea22d08b51 2ced06a353e8";
    "diff-1 conc | CRASH: crash at diff.c:190:24 (in main) | 3519 | 21050 1711 0 8 0 | c24b18456b25 fc4b92f38e52 d41d8cd98f00 d41d8cd98f00";
    "diff-2 conc | CRASH: crash at diff.c:190:24 (in main) | 9465 | 57532 4681 0 10 0 | feb28b3e8e86 934ad5cf959d d41d8cd98f00 d41d8cd98f00";
    "diff-1 sym | CRASH: crash at diff.c:190:24 (in main) | 3519 | 21050 1711 0 8 0 | c24b18456b25 a2d69a2175cb 6fbba8b610b5 d41d8cd98f00";
    "counter conc | exit(0) | 6006 | 28025 2001 0 0 0 | 08f90c1a4171 8ff3615bd70d d41d8cd98f00 d41d8cd98f00";
    "counter sym | exit(0) | 6006 | 28025 2001 0 0 0 | 08f90c1a4171 8ff3615bd70d d41d8cd98f00 d41d8cd98f00";
    "fib-a conc | exit(0) | 10013 | 36056 2002 0 0 0 | c931adfd5a85 8b286df847d6 d41d8cd98f00 d41d8cd98f00";
    "fib-b conc | exit(0) | 20014 | 72062 4003 0 0 0 | 77daf99c5517 321d9ea676a6 d41d8cd98f00 d41d8cd98f00";
    "fib-a sym | exit(0) | 10013 | 36056 2002 0 0 0 | c931adfd5a85 a0ee0c32dd8b d41d8cd98f00 d41d8cd98f00";
    "mtrace conc | CRASH: out-of-bounds at mtrace.c:18:9 (in worker) | 1114 | 5602 462 0 0 0 | d41d8cd98f00 383a14d281c8 d41d8cd98f00 d41d8cd98f00";
    "mtrace-benign conc | exit(0) | 235 | 1174 84 0 0 0 | 58189dc253ae 8c4e4bdb3e09 d41d8cd98f00 d41d8cd98f00";
    "mtrace sym | CRASH: out-of-bounds at mtrace.c:18:9 (in worker) | 1114 | 5602 462 0 0 0 | d41d8cd98f00 ea9d0cfda803 d41d8cd98f00 d41d8cd98f00";
    "alloc-order conc | exit(5) | 33 | 128 3 0 0 0 | d41d8cd98f00 1501be8a8198 d41d8cd98f00 dc549dedb599";
    "alloc-order sym | exit(5) | 33 | 128 3 0 0 0 | d41d8cd98f00 1501be8a8198 d41d8cd98f00 dc549dedb599";
  ]

let test_golden_table () =
  let actual = List.map (fun (mode, sc) -> golden_line ~mode sc) (golden_runs ()) in
  Alcotest.(check (list string)) "golden table" golden_expected actual

(* Minor words per step of a concrete µServer run (userver-exp3, 19 404
   steps; the program is compiled by a first run outside the count).  An
   unshadowed integer, a slot load, an lvalue and a loop pass allocate
   nothing; what is left is frames, pointers and integers above 255.
   Measured at 2.31; the reference walker allocates 9.66 on this run. *)
let test_step_allocation () =
  let sc = Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 3) in
  let words_per_step () =
    let _w, handle = Osmodel.World.kernel sc.world in
    let cfg =
      {
        Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
        kernel = Interp.Kernel.of_world handle;
        hooks = Interp.Eval.no_hooks;
        max_steps = sc.max_steps;
        scheduler = None;
      }
    in
    let before = Gc.minor_words () in
    let r = Interp.Eval.run sc.prog cfg in
    (Gc.minor_words () -. before) /. float_of_int r.steps
  in
  ignore (words_per_step ());
  let per_step = words_per_step () in
  check_bool (Printf.sprintf "%.3f minor words per step < 3.0" per_step) true (per_step < 3.0)

(* ------------------------------------------------------------------ *)
(* Compiled evaluator against the reference walker *)

(* One observation line per evaluator: everything [golden_line] pins,
   and in symbolic mode the run's unpinned uses too. *)
let differs ~mode (sc : Concolic.Scenario.t) =
  let live = mode = `Symbolic in
  let line run = golden_line ~run ~live ~mode sc in
  let compiled = line Interp.Eval.run and reference = line Ref_eval.run in
  if compiled = reference then None else Some (compiled, reference)

let small_programs =
  [
    "int main() { return 0; }";
    "int main() { { int x; x = 1; } return 2; }";
    "int g[4]; int *p;\n\
     int f(int a, int b) { return a * b - (a / (b | 1)) % 7; }\n\
     int main() { int i = 0; p = g; while (i < 4) { if (i == 2) { i = i + 1; continue; }\n\
     p[i] = f(i, i + 1); i = i + 1; } return g[3] + g[1] + (p == g) + !p + ~i; }";
    "int main() { int a[3]; int *q = a; q = q + 3; return *q; }";
    "int main() { int x = 0; return 5 / x; }";
    "int main() { int x = 70; return 1 << x; }";
    "int main() { int *p = 0; return *p; }";
    "int f(int n) { return f(n + 1); }\nint main() { return f(0); }";
    "int main() { print_str(\"hi\"); print_int(-300); while (1) { } return 0; }";
  ]

let test_differential_small () =
  List.iter
    (fun src ->
      let sc = Concolic.Scenario.make ~name:"small" ~max_steps:5000 (compile src) in
      match differs ~mode:`Concrete sc with
      | None -> ()
      | Some (c, r) -> Alcotest.failf "%s\ncompiled:  %s\nreference: %s" src c r)
    small_programs

(* Generated programs, adversarial shapes included (unguarded division,
   raw indices, asserts), each run concretely and symbolically. *)
let prop_differential =
  QCheck.Test.make ~count:300 ~name:"compiled = reference on generated programs"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = Fuzz.Gen.generate ~seed () in
      match Fuzz.Gen.elaborate g with
      | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed (Fuzz.Gen.error_to_string e)
      | Ok case ->
          let sc = Fuzz.Gen.scenario case in
          List.for_all
            (fun mode ->
              match differs ~mode sc with
              | None -> true
              | Some (c, r) ->
                  QCheck.Test.fail_reportf "seed %d:\n%s\ncompiled:  %s\nreference: %s" seed
                    g.src c r)
            [ `Concrete; `Symbolic ])

(* ------------------------------------------------------------------ *)
(* Resolution at link *)

(* One linked program is shared read-only by every run: two domains
   running it at once see exactly what a sequential run sees. *)
let test_resolution_domain_safe () =
  let prog = Workloads.Runtime_lib.link ~name:"userver" Workloads.Userver.source in
  let scs =
    List.map
      (fun id ->
        { (Workloads.Userver.experiment_scenario (Workloads.Userver.experiment id)) with
          prog })
      [ 2; 3 ]
  in
  let runs () =
    List.concat_map
      (fun sc -> [ golden_line ~mode:`Concrete sc; golden_line ~mode:`Symbolic sc ])
      scs
  in
  let d1 = Domain.spawn runs and d2 = Domain.spawn runs in
  let a = Domain.join d1 and b = Domain.join d2 in
  let seq = runs () in
  Alcotest.(check (list string)) "domain 1 = sequential" seq a;
  Alcotest.(check (list string)) "domain 2 = sequential" seq b

(* Every run-time guard of the evaluator is rejected (or normalised away)
   at link, so resolved code never reaches it. *)
let test_link_rejects_runtime_guards () =
  let rejects what src =
    match compile src with
    | _ -> Alcotest.failf "link accepted %s" what
    | exception Minic.Typecheck.Error _ -> ()
  in
  rejects "an unbound variable" "int main() { return y; }";
  rejects "an unknown callee" "int main() { nosuch(1); return 0; }";
  rejects "a function arity mismatch"
    "int f(int a) { return a; }\nint main() { f(1, 2); return 0; }";
  rejects "a builtin arity mismatch" "int main() { print_int(1, 2); return 0; }";
  check_int "call in expression position is hoisted" 6
    (exit_code (run "int f(int a) { return a + 1; }\nint main() { return f(1) * 3; }"));
  let module R = Minic.Resolved in
  let rec expr : R.expr -> bool = function
    | Cint _ | Cstr _ -> true
    | Load lv | Addr lv -> lval lv
    | Unop (_, a) -> expr a
    | Binop (_, a, b) -> expr a && expr b
    | Ecall _ -> false
  and lval : R.lval -> bool = function
    | Var (Unbound _) -> false
    | Var _ -> true
    | Elem (b, i) | Ptr_elem (b, i) -> lval b && expr i
    | Star e -> expr e
  in
  let rec stmt (s : R.stmt) =
    match s.desc with
    | Assign (l, e) -> lval l && expr e
    | Call (_, Unknown _, _) -> false
    | Call (lo, _, args) -> Option.fold ~none:true ~some:lval lo && List.for_all expr args
    | If (_, c, t, e) -> expr c && List.for_all stmt t && List.for_all stmt e
    | While (_, c, b) -> expr c && List.for_all stmt b
    | Return e -> Option.fold ~none:true ~some:expr e
    | Break | Continue -> true
    | Block b -> List.for_all stmt b
  in
  List.iter
    (fun (prog : Minic.Program.t) ->
      Array.iter
        (fun (f : R.func) ->
          check_bool (prog.name ^ "." ^ f.name ^ " fully resolved") true
            (List.for_all stmt f.body))
        prog.code.funcs)
    [
      Lazy.force Workloads.Userver.prog;
      Lazy.force Workloads.Userver.checkpointed_prog;
      Lazy.force Workloads.Diffutil.prog;
      Lazy.force Workloads.Mtrace.prog;
      Lazy.force (Workloads.Coreutils.find "paste").prog;
    ]

let test_memory_faults () =
  let m = Interp.Memory.create () in
  let fault f = try f (); None with Interp.Memory.Fault k -> Some k in
  let b = Interp.Memory.alloc m ~size:2 in
  (* grow past the initial table *)
  for _ = 1 to 1000 do
    Interp.Memory.kill m (Interp.Memory.alloc m ~size:1)
  done;
  Interp.Memory.store m ~base:b ~off:1 Interp.Value.one;
  check_bool "live cell survives growth" true
    (Interp.Memory.load m ~base:b ~off:1 = Interp.Value.one);
  check_bool "oob" true
    (fault (fun () -> ignore (Interp.Memory.load m ~base:b ~off:2)) = Some Oob);
  Interp.Memory.kill m b;
  check_bool "dead" true
    (fault (fun () -> ignore (Interp.Memory.load m ~base:b ~off:0)) = Some Dead_block);
  check_bool "unknown" true
    (fault (fun () -> Interp.Memory.store m ~base:5000 ~off:0 Interp.Value.zero)
    = Some Unknown_block);
  check_bool "dead block has no size" true (Interp.Memory.size m b = None)

(* The shadow index (Memory.iter_shadowed) against the full scan it
   replaces: random allocations, stores with and without shadows, kills,
   walks and clean marks.  Every walk must visit exactly the shadowed cells
   of live blocks, once each, and report a cell dirty exactly when it was
   stored since the last clean mark. *)
type mem_op =
  | Alloc of int
  | Grow  (** enough blocks to outgrow the block table *)
  | Store of int * int * int option  (** block choice, offset, shadow *)
  | Kill of int
  | Walk
  | Clean

let mem_op_to_string = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Grow -> "grow"
  | Store (b, o, s) ->
      Printf.sprintf "store #%d[%d] %s" b o
        (match s with Some x -> Printf.sprintf "x%d" x | None -> "plain")
  | Kill b -> Printf.sprintf "kill #%d" b
  | Walk -> "walk"
  | Clean -> "clean"

let gen_mem_ops =
  let open QCheck.Gen in
  list_size (int_range 0 200)
    (frequency
       [
         (3, map (fun n -> Alloc n) (int_range 0 4));
         (1, return Grow);
         ( 10,
           map3
             (fun b o s -> Store (b, o, s))
             (int_bound 40) (int_range (-1) 4) (opt (int_bound 3)) );
         (2, map (fun b -> Kill b) (int_bound 40));
         (3, return Walk);
         (2, return Clean);
       ])

(* the full scan: every cell of every live block, shadowed ones kept *)
let full_scan m bids =
  List.concat_map
    (fun base ->
      match Interp.Memory.size m base with
      | None -> []
      | Some n ->
          List.filter_map
            (fun off ->
              match Interp.Memory.load m ~base ~off with
              | { Interp.Value.sym = Some _; _ } -> Some (base, off)
              | _ -> None)
            (List.init n Fun.id))
    bids
  |> List.sort compare

let prop_shadow_index_is_full_scan =
  QCheck.Test.make ~count:500 ~name:"shadow index walk = full scan"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map mem_op_to_string ops))
       gen_mem_ops)
    (fun ops ->
      let m = Interp.Memory.create ~index_shadows:true () in
      let bids = ref [] in
      (* cells stored since the last clean mark (all stores before the
         first) *)
      let stored = Hashtbl.create 16 in
      let pick b = match !bids with [] -> 0 | l -> List.nth l (b mod List.length l) in
      let walk () =
        let seen = ref [] in
        Interp.Memory.iter_shadowed m (fun ~base ~off ~dirty _ ->
            seen := (base, off) :: !seen;
            if dirty <> Hashtbl.mem stored (base, off) then
              QCheck.Test.fail_reportf "cell #%d[%d] reported dirty=%b" base off
                dirty);
        let seen = List.sort compare !seen in
        seen = full_scan m (List.rev !bids)
        || QCheck.Test.fail_report "walk differs from the full scan"
      in
      List.for_all
        (function
          | Alloc n ->
              bids := Interp.Memory.alloc m ~size:n :: !bids;
              true
          | Grow ->
              for _ = 1 to 300 do
                bids := Interp.Memory.alloc m ~size:1 :: !bids
              done;
              true
          | Store (b, off, sym) -> (
              let base = pick b in
              let v =
                Interp.Value.with_sym (Interp.Value.int_ off)
                  (Option.map (fun x -> Solver.Expr.Var x) sym)
              in
              match Interp.Memory.store m ~base ~off v with
              | () ->
                  Hashtbl.replace stored (base, off) ();
                  true
              | exception Interp.Memory.Fault _ -> true)
          | Kill b ->
              Interp.Memory.kill m (pick b);
              true
          | Walk -> walk ()
          | Clean ->
              Interp.Memory.mark_clean m;
              Hashtbl.reset stored;
              true)
        ops
      && walk ())

let test_shadow_index_basics () =
  let m = Interp.Memory.create ~index_shadows:true () in
  let b = Interp.Memory.alloc m ~size:3 in
  let x = Interp.Value.with_sym (Interp.Value.int_ 7) (Some (Solver.Expr.Var 0)) in
  let walk () =
    let seen = ref [] in
    Interp.Memory.iter_shadowed m (fun ~base:_ ~off ~dirty _ ->
        seen := (off, dirty) :: !seen);
    List.sort compare !seen
  in
  Interp.Memory.store m ~base:b ~off:1 x;
  check_bool "a shadowed store is listed dirty" true (walk () = [ (1, true) ]);
  Interp.Memory.mark_clean m;
  check_bool "clean after the mark" true (walk () = [ (1, false) ]);
  Interp.Memory.store m ~base:b ~off:1 x;
  check_bool "a store after the mark dirties it again" true
    (walk () = [ (1, true) ]);
  Interp.Memory.store m ~base:b ~off:1 Interp.Value.one;
  check_bool "an unshadowed cell leaves the index" true (walk () = []);
  Interp.Memory.store m ~base:b ~off:2 x;
  Interp.Memory.kill m b;
  check_bool "a dead block leaves the index" true (walk () = []);
  check_bool "an unindexed memory refuses the walk" true
    (match Interp.Memory.iter_shadowed (Interp.Memory.create ()) (fun ~base:_ ~off:_ ~dirty:_ _ -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "interp"
    [
      ( "semantics",
        [
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "C division" `Quick test_division_truncates_toward_zero;
          Alcotest.test_case "logical ops" `Quick test_logical_strictness_result;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "break/continue" `Quick test_break_continue;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "arrays and pointers" `Quick test_arrays_and_pointers;
          Alcotest.test_case "globals" `Quick test_globals;
          Alcotest.test_case "string literal output" `Quick test_string_literal;
          Alcotest.test_case "string literal bytes" `Quick test_string_literal_bytes;
          Alcotest.test_case "by-reference param" `Quick test_by_reference_param;
          Alcotest.test_case "array param" `Quick test_array_param;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "out of bounds" `Quick test_crash_oob;
          Alcotest.test_case "null deref" `Quick test_crash_null;
          Alcotest.test_case "div by zero" `Quick test_crash_div0;
          Alcotest.test_case "explicit crash" `Quick test_crash_explicit;
          Alcotest.test_case "assert failure" `Quick test_crash_assert;
          Alcotest.test_case "use after free" `Quick test_crash_use_after_free;
          Alcotest.test_case "stack overflow" `Quick test_crash_stack_overflow;
          Alcotest.test_case "crash site location" `Quick test_crash_site_location;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
        ] );
      ( "io",
        [
          Alcotest.test_case "exit" `Quick test_exit_builtin;
          Alcotest.test_case "arg" `Quick test_args;
          Alcotest.test_case "argc" `Quick test_argc;
          Alcotest.test_case "read file" `Quick test_read_file;
          Alcotest.test_case "open missing" `Quick test_open_missing_file;
          Alcotest.test_case "write stdout" `Quick test_write_stdout;
          Alcotest.test_case "server accept/read" `Quick test_server_accept_read;
          Alcotest.test_case "partial reads" `Quick test_world_partial_reads;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "branch hook count" `Quick
            test_branch_hook_fires_per_execution;
          Alcotest.test_case "branch directions" `Quick
            test_branch_hook_taken_direction;
          Alcotest.test_case "cost monotone" `Quick test_cost_monotone_in_work;
          Alcotest.test_case "abort hook" `Quick test_abort_hook;
          Alcotest.test_case "step allocation" `Quick test_step_allocation;
        ] );
      ("golden", [ Alcotest.test_case "workload table" `Quick test_golden_table ]);
      ( "differential",
        [
          Alcotest.test_case "small programs" `Quick test_differential_small;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |]) prop_differential;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "domain-safe" `Quick test_resolution_domain_safe;
          Alcotest.test_case "link rejects run-time guards" `Quick
            test_link_rejects_runtime_guards;
          Alcotest.test_case "memory faults" `Quick test_memory_faults;
          Alcotest.test_case "shadow index basics" `Quick test_shadow_index_basics;
          QCheck_alcotest.to_alcotest prop_shadow_index_is_full_scan;
        ] );
    ]
