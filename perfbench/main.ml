(* Command-line entry of the benchmark:

     main.exe --workload field|replay|fleet|explore --seed N --seconds S
              --trace 0|1

   Prints one human-readable row per metric, then the result line: one
   JSON object with [correct], [attempted], [failed] and [metrics].  Exits
   1 when an output check failed, 2 on a usage error. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload field|replay|fleet|explore --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match Harness.find !workload with
  | None -> usage ()
  | Some w ->
      let r = w.measure ~size:Common.Full ~seed:!seed ~seconds:!seconds ~trace:!trace in
      List.iter
        (fun (m : Common.metric) -> Printf.printf "%-48s %16.6g %s\n" m.name m.value m.unit_)
        r.rows;
      List.iter (fun e -> Printf.printf "check failed: %s\n" e) r.errors;
      let ok = r.correct && Harness.finite r in
      print_endline (Harness.to_json { r with correct = ok });
      exit (if ok then 0 else 1)
