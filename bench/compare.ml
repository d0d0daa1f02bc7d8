(* Perf-regression gate (--compare BASELINE): read a previously recorded
   --json summary through Telemetry.Json (the repository's one strict
   reader; the bench also re-reads its own --json output through [load])
   and diff the current run against it.

   Direction rules:
   - time-like entries (experiment wall clocks, metric keys ending in
     "seconds") are lower-is-better; a regression is a current value more
     than 25% above the baseline, with the baseline floored at 1.0 s so
     millisecond-scale rows cannot trip the gate on scheduler noise;
   - counter-derived ratios (keys containing "rate": cache hit rates,
     salvage rates — deterministic counts, no timing in them) are
     higher-is-better; a regression is a current value more than 25%
     below the baseline (baselines at 0 are skipped — nothing to lose);
   - timing-derived ratios ("speedup", "runs_per_s") are shown but never
     gate: both their numerator and denominator are wall-clock samples,
     and on millisecond-scale explorations the ratio swings far past any
     honest threshold while the floored "seconds" rows stay quiet;
   - everything else (counts, verdict booleans, byte sizes) is
     informational and never gates.

   The exit decision prints as an aligned table so the CI job can archive
   it as the comparison artifact.  Refresh baselines with
   bin/refresh-baselines.sh after an intentional perf change. *)

let threshold = 0.25
let time_floor_s = 1.0

(* ------------------------------------------------------------------ *)
(* Baseline extraction: experiment wall clocks land under the pseudo-key
   "<id>/seconds" alongside the recorded metrics, so the diff below is one
   uniform key space. *)

type baseline = { entries : (string * float) list }

let load (path : string) : (baseline, string) result =
  let module J = Telemetry.Json in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match J.parse text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok j ->
          let rows k =
            match J.member k j with Some (J.Arr rows) -> rows | _ -> []
          in
          let experiment row =
            match J.member "id" row, J.member "seconds" row with
            | Some (J.Str id), Some (J.Num s) -> Some (id ^ "/seconds", s)
            | _ -> None
          in
          let metric row =
            match
              (J.member "experiment" row, J.member "key" row,
               J.member "value" row)
            with
            | Some (J.Str e), Some (J.Str k), Some (J.Num v) ->
                Some (e ^ "/" ^ k, v)
            | _ -> None
          in
          Ok
            {
              entries =
                List.filter_map experiment (rows "experiments")
                @ List.filter_map metric (rows "metrics");
            })

(* ------------------------------------------------------------------ *)
(* Direction classification and the diff itself *)

type direction = Lower_better | Higher_better | Informational

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let ends_with s suffix =
  let sl = String.length s and xl = String.length suffix in
  sl >= xl && String.sub s (sl - xl) xl = suffix

(* timing-derived ratios: displayed in the artifact, never gate *)
let shown_not_gated key =
  contains key "speedup" || contains key "runs_per_s"

let direction_of key =
  if ends_with key "/seconds" || ends_with key "seconds" then Lower_better
  else if contains key "runs_per_s" then Informational
  else if contains key "rate" then Higher_better
  else Informational

type verdict = Ok_v | Regressed | Improved | Skipped

let judge dir ~base ~cur =
  match dir with
  | Informational -> Skipped
  | Lower_better ->
      let floor = Float.max base time_floor_s in
      if cur > floor *. (1.0 +. threshold) then Regressed
      else if base > time_floor_s && cur < base *. (1.0 -. threshold) then
        Improved
      else Ok_v
  | Higher_better ->
      if base <= 0.0 then Skipped
      else if cur < base *. (1.0 -. threshold) then Regressed
      else if cur > base *. (1.0 +. threshold) then Improved
      else Ok_v

let verdict_string = function
  | Ok_v -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Skipped -> "-"

(* Diff the current run against [baseline]; returns the number of gating
   regressions.  [experiments] are (id, wall clock) pairs,
   [metrics] the (experiment, key, value) triples from Util. *)
let check ~(baseline : baseline) ~(experiments : (string * float) list)
    ~(metrics : (string * string * float) list) : int =
  let current =
    List.map (fun (id, s) -> (id ^ "/seconds", s)) experiments
    @ List.map (fun (e, k, v) -> (e ^ "/" ^ k, v)) metrics
  in
  let regressions = ref 0 in
  let missing = ref 0 in
  let rows = ref [] in
  List.iter
    (fun (key, base) ->
      match List.assoc_opt key current with
      | None -> incr missing
      | Some cur ->
          let dir = direction_of key in
          let v = judge dir ~base ~cur in
          if v = Regressed then incr regressions;
          (* keep the artifact readable: gate-relevant rows, plus the
             timing-derived ratios as display-only context *)
          if dir <> Informational || shown_not_gated key then
            rows :=
              [
                key;
                Printf.sprintf "%.3f" base;
                Printf.sprintf "%.3f" cur;
                (if base > 0.0 then
                   Printf.sprintf "%+.0f%%" (100.0 *. (cur -. base) /. base)
                 else "n/a");
                verdict_string v;
              ]
              :: !rows)
    baseline.entries;
  Util.table
    ([ "metric"; "baseline"; "current"; "delta"; "verdict" ]
    :: List.rev !rows);
  if !missing > 0 then
    Printf.printf
      "%d baseline entr%s not present in this run (different --only \
       selection?)\n"
      !missing
      (if !missing = 1 then "y" else "ies");
  Printf.printf "perf gate: %d regression%s (threshold %.0f%%, %.1fs floor)\n"
    !regressions
    (if !regressions = 1 then "" else "s")
    (100.0 *. threshold) time_floor_s;
  !regressions
