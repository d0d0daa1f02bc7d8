(* Privacy audit: what leaves the user's machine?

   Run with:  dune exec examples/privacy_audit.exe

   The paper's motivation is that neither raw inputs (BBR) nor memory dumps
   (WER) should be shipped.  This example crashes a program on a "secret"
   input and then exhaustively checks that the secret's bytes appear nowhere
   in the shipped report — while replay still reproduces the crash. *)

let secret = "swordfish-1234"

let source =
  {|
int main() {
  int buf[32];
  int n;
  arg(0, buf, 32);
  n = strlen(buf);
  // the bug: any secret longer than 8 bytes overruns an internal table
  if (n > 8) {
    int tab[8];
    tab[n] = 1;
  }
  print_str("accepted\n");
  return 0;
}
|}

let contains_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n > 0 && go 0

let () =
  let prog = Workloads.Runtime_lib.link ~name:"vault" source in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let sc = Concolic.Scenario.make ~name:"vault" ~args:[ secret ] prog in
  let config =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget
           ~replay:{ Concolic.Engine.max_runs = 3000; max_time_s = 15.0 })
  in
  let _, report = Bugrepro.Pipeline.Run.field_run_report config ~plan sc in
  let report = Option.get report in

  Printf.printf "user input (never shipped): %S\n" secret;
  Printf.printf "shipped report: %s\n" (Instrument.Report.describe report);

  (* audit every byte sequence in the report *)
  let log_bytes = Instrument.Report.payload_data report in
  Printf.printf "branch log bytes: %d; secret appears in log: %b\n"
    (String.length log_bytes)
    (contains_substring ~needle:secret log_bytes);
  assert (not (contains_substring ~needle:secret log_bytes));
  (match report.syscall_log with
  | Some l ->
      Printf.printf "syscall log entries: %d (numeric results only)\n"
        (Instrument.Syscall_log.length l)
  | None -> ());
  Printf.printf "shape disclosed: %d argument(s) of capacity %s bytes\n"
    (List.length report.shape.arg_caps)
    (String.concat ", " (List.map string_of_int report.shape.arg_caps));

  (* the developer can still reproduce the crash *)
  let result, stats = Bugrepro.Pipeline.Run.reproduce config ~prog ~plan report in
  match result with
  | Replay.Guided.Reproduced r ->
      let synth = Buffer.create 16 in
      (try
         for pos = 0 to 31 do
           match
             Solver.Symvars.find_by_name stats.vars
               (Concolic.Names.arg_byte ~arg:0 ~pos)
           with
           | Some id -> (
               match Solver.Model.find_opt id r.model with
               | Some 0 -> raise Exit
               | Some b when b >= 32 && b < 127 ->
                   Buffer.add_char synth (Char.chr b)
               | Some _ -> Buffer.add_char synth '.'
               | None -> raise Exit)
           | None -> raise Exit
         done
       with Exit -> ());
      Printf.printf
        "reproduced at %s with synthesised input %S — same length class,\n\
         different bytes: the developer learns the path, not the secret.\n"
        (Interp.Crash.to_string r.crash)
        (Buffer.contents synth)
  | Replay.Guided.Not_reproduced _ -> print_endline "not reproduced (unexpected)"
