(* Perf-regression gate (--compare BASELINE): parse a previously recorded
   --json summary and diff the current run against it.

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
(* Minimal JSON reader for the strict subset Util.write_json_summary
   emits: objects, arrays, strings (with the escapes json_escape
   produces), numbers and null.  No dependency on a JSON package. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Null

exception Parse of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  (* the four hex digits of a \u escape starting at [i] *)
  let hex4 i =
    if i + 4 >= n then fail "short \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let rec go k acc =
      if k = 4 then acc else go (k + 1) ((acc * 16) + digit s.[i + k])
    in
    go 0 0
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               (* decoded to UTF-8, so a key a JSON writer escaped (Python's
                  json.dump writes "µ" as \u00b5) equals the raw UTF-8 key
                  the bench records; a surrogate pair is one code point *)
               let code = hex4 (!pos + 1) in
               pos := !pos + 4;
               let code =
                 if code >= 0xD800 && code <= 0xDBFF then begin
                   if !pos + 6 >= n || s.[!pos + 1] <> '\\' || s.[!pos + 2] <> 'u'
                   then fail "unpaired surrogate in \\u escape";
                   let low = hex4 (!pos + 3) in
                   if low < 0xDC00 || low > 0xDFFF then
                     fail "unpaired surrogate in \\u escape";
                   pos := !pos + 6;
                   0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                 end
                 else if code >= 0xDC00 && code <= 0xDFFF then
                   fail "unpaired surrogate in \\u escape"
                 else code
               in
               Buffer.add_utf_8_uchar b (Uchar.of_int code)
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Null
        end
        else fail "bad literal"
    | Some 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Num 1.0
        end
        else fail "bad literal"
    | Some 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Num 0.0
        end
        else fail "bad literal"
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Baseline extraction: experiment wall clocks land under the pseudo-key
   "<id>/seconds" alongside the recorded metrics, so the diff below is one
   uniform key space. *)

type baseline = { entries : (string * float) list }

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let load (path : string) : (baseline, string) result =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | text -> (
      match parse_json text with
      | exception Parse e -> Error (path ^ ": " ^ e)
      | j ->
          let entries = ref [] in
          (match member "experiments" j with
          | Some (Arr rows) ->
              List.iter
                (fun row ->
                  match member "id" row, member "seconds" row with
                  | Some (Str id), Some (Num s) ->
                      entries := (id ^ "/seconds", s) :: !entries
                  | _ -> ())
                rows
          | _ -> ());
          (match member "metrics" j with
          | Some (Arr rows) ->
              List.iter
                (fun row ->
                  match
                    (member "experiment" row, member "key" row,
                     member "value" row)
                  with
                  | Some (Str e), Some (Str k), Some (Num v) ->
                      entries := (e ^ "/" ^ k, v) :: !entries
                  | _ -> ())
                rows
          | _ -> ());
          Ok { entries = List.rev !entries })

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
