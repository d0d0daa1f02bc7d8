(* Checkpointing a long-running server (§6).

   Run with:  dune exec examples/longrunning_checkpoint.exe

   A server that has been up for a while would ship an enormous branch log.
   The checkpointed build discards the log at every checkpoint and snapshots
   only the *structure* of its global state; a crash ships the final epoch.
   Replay starts from the checkpoint with fully symbolic state. *)

let () =
  let reqs =
    Workloads.Http_gen.workload ~seed:3 12
    @ (Workloads.Userver.experiment 1).requests
  in
  let sc = Workloads.Userver.checkpointed_scenario reqs in
  let prog = Lazy.force Workloads.Userver.checkpointed_prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in

  Printf.printf "serving %d requests on the checkpointed µServer...\n"
    (List.length reqs);
  let r = Instrument.Field_run.run ~plan sc in
  Printf.printf "outcome: %s\n" (Interp.Crash.outcome_to_string r.outcome);
  Printf.printf
    "checkpoints: %d; bits discarded at checkpoints: %d; final epoch: %d bits\n"
    r.epochs r.discarded_bits r.branch_log.nbits;
  Printf.printf "=> %.0f%% of the log never left the user site\n"
    (100.0 *. float_of_int r.discarded_bits
    /. float_of_int (max r.cost.logged_branches 1));

  match (Instrument.Report.of_field_run ~sc ~plan r, r.snapshot) with
  | Some report, Some snapshot -> (
      Printf.printf "snapshot: %d globals, %d bytes (structure only)\n"
        (List.length snapshot.globals)
        (Instrument.Snapshot.size_bytes snapshot);
      print_endline "\n-- replay from the checkpoint --";
      let result, stats =
        Replay.Guided.reproduce
          ~budget:{ Concolic.Engine.max_runs = 50_000; max_time_s = 60.0 }
          ~snapshot ~prog ~plan report
      in
      match result with
      | Replay.Guided.Reproduced rr ->
          Printf.printf
            "reproduced in %.1fs after %d runs — the engine synthesised both\n\
             the post-checkpoint requests and a consistent pre-checkpoint\n\
             server state (%d log-pinned decisions, %d forced corrections).\n"
            rr.elapsed_s rr.runs stats.cases.case2a stats.cases.case2b
      | Replay.Guided.Not_reproduced rr ->
          Printf.printf "not reproduced (%d runs; raise the budget)\n" rr.runs)
  | _ -> print_endline "no crash or no checkpoint taken (tune the request count)"
