(* The repository's one JSON codec: a strict RFC 8259 reader and the two
   leaf printers every hand-rendered JSON layout shares.  No dependency on
   a JSON package. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Reader *)

exception Parse_error of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
  in
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
    if i + 4 > n then fail "short \\u escape";
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
                  json.dump writes "µ" as \u00b5) equals the raw UTF-8 key;
                  a surrogate pair is one code point *)
               let code = hex4 (!pos + 1) in
               pos := !pos + 4;
               let code =
                 if code >= 0xD800 && code <= 0xDBFF then begin
                   if !pos + 2 >= n || s.[!pos + 1] <> '\\' || s.[!pos + 2] <> 'u'
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
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let is_digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (is_digit ()) then fail "bad number";
      while is_digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then advance () else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
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
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* ------------------------------------------------------------------ *)
(* Writers *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let quote s = "\"" ^ escape s ^ "\""

let float v =
  if Float.is_nan v || Float.abs v = Float.infinity then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    (* shortest decimal that parses back to the same float, so a value
       round-trips exactly through [parse] *)
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
