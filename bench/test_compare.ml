(* Tests for the perf gate's baseline reader (compare.ml): \u escapes
   decode to UTF-8, so a baseline written by a JSON library that escapes
   non-ASCII keys matches the raw UTF-8 keys a bench run records, and
   malformed escapes are still rejected. *)

let parse s = Compare.parse_json s

let str = function
  | Compare.Str s -> s
  | _ -> Alcotest.fail "expected a JSON string"

let rejects what s =
  match parse s with
  | exception Compare.Parse _ -> ()
  | _ -> Alcotest.failf "%s accepted: %s" what s

let test_escapes_decode_to_utf8 () =
  Alcotest.(check string) "BMP code point" "\xc2\xb5Server"
    (str (parse {|"\u00b5Server"|}));
  Alcotest.(check string) "upper-case hex" "\xc2\xb5"
    (str (parse {|"\u00B5"|}));
  Alcotest.(check string) "ASCII escape" "A/b" (str (parse {|"A\/b"|}));
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (str (parse {|"\ud83d\ude00"|}))

let test_malformed_escapes_rejected () =
  rejects "non-hex digit" {|"\u00zz"|};
  rejects "sign inside the digits" {|"\u+0b5"|};
  rejects "underscore inside the digits" {|"\u0_b5"|};
  rejects "short escape" {|"\u00b"|};
  rejects "unpaired high surrogate" {|"\ud83d"|};
  rejects "high surrogate before a non-surrogate" {|"\ud83dA"|};
  rejects "unpaired low surrogate" {|"\ude00"|}

(* the E18 baseline rows keyed "µServer--..." must meet the run's
   "µServer--..." keys *)
let test_escaped_baseline_key_matches_run_key () =
  let path = Filename.temp_file "baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            {|{"meta": {}, "experiments": [], "metrics": [
  {"experiment": "E18", "key": "\u00b5Server--static-workload/raw_bytes",
   "value": 42}]}|});
      match Compare.load path with
      | Error e -> Alcotest.fail e
      | Ok b ->
          Alcotest.(check (list (pair string (float 0.0))))
            "baseline entry under the run's UTF-8 key"
            [ ("E18/\xc2\xb5Server--static-workload/raw_bytes", 42.0) ]
            b.Compare.entries)

let () =
  Alcotest.run "compare"
    [
      ( "json",
        [
          Alcotest.test_case "escapes decode to UTF-8" `Quick
            test_escapes_decode_to_utf8;
          Alcotest.test_case "malformed escapes rejected" `Quick
            test_malformed_escapes_rejected;
          Alcotest.test_case "escaped baseline key matches run key" `Quick
            test_escaped_baseline_key_matches_run_key;
        ] );
    ]
