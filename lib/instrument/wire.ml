(** Wire format for bug reports.

    The report is the only artifact that crosses the user/developer
    boundary, so it gets a proper serialisation: a line-oriented text
    format with hex-encoded log bytes.  Everything in it is shippable by
    design — branch bits, numeric syscall results, schedule decisions, the
    crash site and the input shape; no input content exists to leak. *)

(* The header line is [magic_prefix ^ version]: the version integer is the
   format's version byte.  Writers always emit the current [version];
   readers accept every version in [1 .. version] and reject anything newer
   or older with [Unknown_version] (distinct from [Malformed], so callers
   can tell "upgrade your tool" apart from corruption).  v1 -> v2: added
   the [branch-flushes] field (v1 readers tolerate trailing unknown
   fields; v1 reports read back with [flushes = 0]).  v2 -> v3: added the
   optional [suppression] probe-elision table.  The table is serialized
   *before* the branch log so a prefix tear that loses the table also
   loses the log (a suppressed log read without its table would replay
   garbage), carries its own entry count so a tear on an entry boundary is
   still detected, and is strictly fail-closed: any damage to it makes
   even salvage reject the whole report.  v3 -> v4: the branch payload
   may arrive online-encoded in a [branch-enc] line (hex of the {!Codec}
   token stream) instead of [branch-log]; exactly one of the two must be
   present, [branch-enc] is damage below v4, and the token stream must
   decode to exactly the claimed bit count.  A v4 report with a raw
   payload is line-identical to v3 modulo the header digit. *)
let magic_prefix = "bugrepro-report/"
let version = 4
let magic = magic_prefix ^ string_of_int version

type error = Unknown_version of int | Malformed of string

let error_to_string = function
  | Unknown_version v ->
      Printf.sprintf "unknown report format version %d (supported: 1-%d)" v
        version
  | Malformed msg -> msg

let hex_digits = "0123456789abcdef"

let hex_of_string s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) hex_digits.[c lsr 4];
    Bytes.set b ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

let method_code = function
  | Methods.No_instrumentation -> "none"
  | Methods.Dynamic -> "dynamic"
  | Methods.Static -> "static"
  | Methods.Dynamic_static -> "dynamic+static"
  | Methods.All_branches -> "all"

let method_of_code = function
  | "none" -> Ok Methods.No_instrumentation
  | "dynamic" -> Ok Methods.Dynamic
  | "static" -> Ok Methods.Static
  | "dynamic+static" -> Ok Methods.Dynamic_static
  | "all" -> Ok Methods.All_branches
  | s -> Error ("unknown method " ^ s)

let crash_kind_code (k : Interp.Crash.kind) = Interp.Crash.kind_to_string k

let crash_kind_of_code s : (Interp.Crash.kind, string) result =
  let all : Interp.Crash.kind list =
    [
      Out_of_bounds; Null_deref; Use_after_free; Div_by_zero; Assert_failure;
      Explicit_crash; Stack_overflow; Invalid_pointer;
    ]
  in
  match List.find_opt (fun k -> Interp.Crash.kind_to_string k = s) all with
  | Some k -> Ok k
  | None -> Error ("unknown crash kind " ^ s)

(* [<count>;<bid>=<code>,...]: the leading entry count makes the table
   self-delimiting, so losing trailing entries to a tear is detectable
   even when the surviving prefix parses *)
let suppression_to_string tbl =
  Printf.sprintf "%d;%s" (List.length tbl)
    (Staticanalysis.Suppression.table_to_string tbl)

let suppression_of_string v :
    ((int * Staticanalysis.Suppression.rule) list, string) result =
  match String.index_opt v ';' with
  | None -> Error "bad suppression table (missing count)"
  | Some i -> (
      match int_of_string_opt (String.sub v 0 i) with
      | None -> Error "bad suppression table count"
      | Some n -> (
          match
            Staticanalysis.Suppression.table_of_string
              (String.sub v (i + 1) (String.length v - i - 1))
          with
          | Error e -> Error e
          | Ok tbl when List.length tbl <> n ->
              Error "suppression table count mismatch"
          | Ok tbl -> Ok tbl))

let ints_to_string l = String.concat "," (List.map string_of_int l)

(** Serialize a report to its wire form. *)
let serialize (t : Report.t) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "program: %s" t.program;
  (* optional within v4: readers of every supported version tolerate
     unknown trailing fields, and an absent line reads back as [None] *)
  (match t.cohort with Some c -> line "cohort: %s" c | None -> ());
  line "method: %s" (method_code t.method_used);
  line "crash: %s|%s|%d|%d|%s"
    (crash_kind_code t.crash.kind)
    t.crash.loc.file t.crash.loc.line t.crash.loc.col t.crash.in_func;
  line "shape-args: %s" (ints_to_string t.shape.arg_caps);
  line "shape-conns: %d,%d" t.shape.n_conns t.shape.conn_cap;
  line "shape-files: %s" (String.concat "," t.shape.file_names);
  line "shape-filecap: %d" t.shape.file_cap;
  (* before the branch log: a prefix tear must not keep a suppressed log
     while losing the table needed to interpret it *)
  if t.suppression <> [] then
    line "suppression: %s" (suppression_to_string t.suppression);
  (* the branch payload serializes LAST: it is the buffer the crashing
     process tears mid-write, so a tail tear must cost branch bits — not
     the syscall and schedule logs the salvage reader needs to keep
     replay guided.  Readers of every version parse by key, so the order
     change is invisible to them. *)
  (match t.syscall_log with
  | Some l ->
      line "syscalls: %s"
        (String.concat ","
           (Array.to_list
              (Array.map
                 (fun (e : Syscall_log.entry) -> Printf.sprintf "%s:%d" e.kind e.value)
                 l.entries)))
  | None -> ());
  (match t.schedule_log with
  | Some l when Schedule_log.length l > 0 ->
      line "schedule: %s" (ints_to_string (Array.to_list l.tids))
  | _ -> ());
  (match t.branch_log with
  | Report.Raw l ->
      line "branch-bits: %d" l.Branch_log.nbits;
      line "branch-flushes: %d" l.Branch_log.flushes;
      line "branch-log: %s" (hex_of_string l.Branch_log.bytes)
  | Report.Encoded e ->
      line "branch-bits: %d" e.Codec.nbits;
      line "branch-flushes: %d" e.Codec.flushes;
      line "branch-enc: %s" (hex_of_string e.Codec.data));
  Buffer.contents b

(* The payload hex's byte range: after the first "branch-enc: " when the
   wire has one, else after the first "branch-log: ", to the line end. *)
let payload_span wire =
  let n = String.length wire in
  let after key =
    let m = String.length key in
    let rec at i k = k = m || (wire.[i + k] = key.[k] && at i (k + 1)) in
    let rec go i =
      if i + m > n then None
      else if at i 0 then Some (i + m)
      else go (i + 1)
    in
    go 0
  in
  let start =
    match after "branch-enc: " with
    | Some _ as s -> s
    | None -> after "branch-log: "
  in
  Option.map
    (fun start ->
      match String.index_from_opt wire start '\n' with
      | Some stop -> (start, stop)
      | None -> (start, n))
    start

(* ------------------------------------------------------------------ *)
(* Reading.  One field walk serves both readers.

   A crash that tears its own log is the most common field artifact: the
   process dies with a partly-written 4 KB buffer, so the wire form stops
   mid-line (or a relay corrupts a byte).  [deserialize_salvage] recovers
   the longest valid prefix — a well-formed header plus as many complete
   fields and complete hex log bytes as still parse — so replay can degrade
   into [log_exhausted] forking (§3.1 case 1) instead of rejecting the
   report outright.  Every departure from a clean report is recorded as
   damage, the first one by name; [deserialize_v] is the fail-closed view
   of the same walk: it accepts exactly the inputs salvage found no damage
   in. *)

type salvage = {
  complete : bool;
  damage : string option;
  dropped_lines : int;
  lost_log_bits : int;
  dropped_syscalls : int;
  dropped_schedule : bool;
}

(* Bytes of the longest prefix of [h] made of complete hex pairs, and
   whether anything of [h] was left over. *)
let hex_prefix h =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1
  in
  let n = String.length h in
  let b = Buffer.create (n / 2) in
  let rec go i =
    if i + 1 >= n then i
    else
      let hi = digit h.[i] and lo = digit h.[i + 1] in
      if hi < 0 || lo < 0 then i
      else (
        Buffer.add_char b (Char.chr ((hi * 16) + lo));
        go (i + 2))
  in
  let stop = go 0 in
  (Buffer.contents b, stop < n)

(* Longest prefix of complete [kind:value] syscall entries. *)
let syscall_prefix v =
  let parts = if v = "" then [] else String.split_on_char ',' v in
  let rec take acc dropped = function
    | [] -> (List.rev acc, dropped)
    | kv :: rest -> (
        match String.rindex_opt kv ':' with
        | Some i -> (
            match
              int_of_string_opt
                (String.sub kv (i + 1) (String.length kv - i - 1))
            with
            | Some value when i > 0 ->
                take ({ Syscall_log.kind = String.sub kv 0 i; value } :: acc)
                  dropped rest
            | _ -> (List.rev acc, dropped + 1 + List.length rest))
        | None -> (List.rev acc, dropped + 1 + List.length rest))
  in
  take [] 0 parts

(* Longest prefix of complete integers of a comma-separated list. *)
let ints_prefix v =
  let parts = if String.trim v = "" then [] else String.split_on_char ',' v in
  let rec take acc dropped = function
    | [] -> (List.rev acc, dropped)
    | p :: rest -> (
        match int_of_string_opt p with
        | Some n -> take (n :: acc) dropped rest
        | None -> (List.rev acc, dropped + 1 + List.length rest))
  in
  take [] 0 parts

let parse_crash crash_s : Interp.Crash.t option =
  match String.split_on_char '|' crash_s with
  | [ kind; file; line; col; in_func ] -> (
      match crash_kind_of_code kind with
      | Error _ -> None
      | Ok kind -> (
          match int_of_string_opt line, int_of_string_opt col with
          | Some line, Some col ->
              Some
                { Interp.Crash.kind;
                  loc = Minic.Loc.make ~file ~line ~col;
                  in_func }
          | _ -> None))
  | _ -> None

let parse_conns v =
  match String.split_on_char ',' v with
  | [ a; b ] -> (
      match int_of_string_opt a, int_of_string_opt b with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
  | _ -> None

(** Salvage a torn or byte-corrupted wire form.  The header must be intact
    (and name a supported version — an unknown version is an upgrade
    problem, not a tear); field lines are then consumed in order until the
    first one that no longer parses, with the branch payload hex, the
    syscall list and the schedule list each salvaged down to their longest
    complete prefix.  Succeeds when the identity fields (program, method,
    crash site, input shape) survived; the branch log may come back
    shorter than recorded — or empty — with the loss accounted in the
    {!salvage} diagnosis.  Never raises. *)
let deserialize_salvage (s : string) : (Report.t * salvage, error) result =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  match lines with
  | m :: rest
    when String.length m >= String.length magic_prefix
         && String.sub m 0 (String.length magic_prefix) = magic_prefix -> (
      let v_s =
        String.sub m (String.length magic_prefix)
          (String.length m - String.length magic_prefix)
      in
      match int_of_string_opt v_s with
      | None -> Error (Malformed "bad version in report header")
      | Some v when v < 1 || v > version -> Error (Unknown_version v)
      | Some ver ->
          let program = ref None and cohort = ref None in
          let meth = ref None and crash = ref None in
          let arg_caps = ref None and conns = ref None in
          let files = ref None and file_cap = ref None in
          let nbits = ref None and flushes = ref None in
          let payload = ref None in
          let syscalls = ref None and sys_dropped = ref 0 in
          let schedule = ref None and sched_dropped = ref false in
          let suppression = ref None and sup_bad = ref None in
          let seen = ref [] in
          (* the first damage wins: it names what the strict view rejects *)
          let damage = ref None in
          let damaged d = if !damage = None then damage := Some d in
          (* [set k r v] stores a parsed value of field [k]; [None] is
             damage to it *)
          let set k r = function
            | Some v ->
                r := Some v;
                `Ok
            | None -> `Lost ("bad " ^ k)
          in
          (* Consume one field line: [`Ok], or the damage that stops the
             walk — [`Lost] drops the line, [`Cut] keeps its salvageable
             head (prefix semantics: everything after the damage is
             untrusted). *)
          let consume l =
            match String.index_opt l ':' with
            | None ->
                `Lost
                  (Printf.sprintf "line %S after field %s has no ':'"
                     (String.sub l 0 (min 24 (String.length l)))
                     (match !seen with k :: _ -> k | [] -> "header"))
            | Some i -> (
                let k = String.sub l 0 i in
                let v =
                  String.trim (String.sub l (i + 1) (String.length l - i - 1))
                in
                if List.mem k !seen then `Lost ("repeated field " ^ k)
                else (
                  seen := k :: !seen;
                  match k with
                  | "program" -> set k program (Some v)
                  | "cohort" ->
                      if v <> "" then cohort := Some v;
                      `Ok
                  | "method" -> (
                      match method_of_code v with
                      | Ok m -> set k meth (Some m)
                      | Error e -> `Lost e)
                  | "crash" -> set k crash (parse_crash v)
                  | "shape-args" -> (
                      match ints_prefix v with
                      | caps, 0 -> set k arg_caps (Some caps)
                      | _ -> `Lost ("bad " ^ k))
                  | "shape-conns" -> set k conns (parse_conns v)
                  | "shape-files" ->
                      set k files
                        (Some
                           (if v = "" then [] else String.split_on_char ',' v))
                  | "shape-filecap" -> set k file_cap (int_of_string_opt v)
                  | "branch-bits" ->
                      set k nbits
                        (Option.bind (int_of_string_opt v) (fun n ->
                             if n >= 0 then Some n else None))
                  | "branch-flushes" -> set k flushes (int_of_string_opt v)
                  | ("branch-log" | "branch-enc") when !payload <> None ->
                      `Lost "both branch-log and branch-enc present"
                  | "branch-enc" when ver < 4 ->
                      `Lost "branch-enc requires format version 4"
                  | "branch-log" | "branch-enc" ->
                      let bytes, torn = hex_prefix v in
                      payload := Some (k, bytes);
                      if torn then `Cut ("bad hex in " ^ k) else `Ok
                  | "syscalls" ->
                      let entries, dropped = syscall_prefix v in
                      syscalls := Some entries;
                      sys_dropped := dropped;
                      if dropped = 0 then `Ok else `Cut "bad syscalls"
                  | "suppression" -> (
                      (* fail-closed: no partial salvage of the elision
                         table — an unknown rule code or torn entry poisons
                         the whole report *)
                      match suppression_of_string v with
                      | Ok tbl -> set k suppression (Some tbl)
                      | Error e ->
                          sup_bad := Some e;
                          `Lost e)
                  | "schedule" -> (
                      match ints_prefix v with
                      | tids, 0 -> set k schedule (Some tids)
                      | _ ->
                          sched_dropped := true;
                          `Lost "bad schedule")
                  | _ -> `Ok (* unknown field: forward compatibility *)))
          in
          let rec walk = function
            | [] -> 0
            | l :: ls -> (
                match consume l with
                | `Ok -> walk ls
                | `Lost d ->
                    damaged d;
                    1 + List.length ls
                | `Cut d ->
                    damaged d;
                    List.length ls)
          in
          let dropped_lines = walk rest in
          let ( let* ) = Result.bind in
          let* () =
            match !sup_bad with
            | Some e ->
                Error
                  (Malformed ("suppression table damaged (fail-closed): " ^ e))
            | None -> Ok ()
          in
          (* minimum viable report: identity + shape *)
          let req k r =
            match !r, !damage with
            | Some v, _ -> Ok v
            | None, None -> Error (Malformed ("missing field " ^ k))
            | None, Some d ->
                Error (Malformed (Printf.sprintf "missing field %s (%s)" k d))
          in
          let* program = req "program" program in
          let* method_used = req "method" meth in
          let* crash = req "crash" crash in
          let* arg_caps = req "shape-args" arg_caps in
          let* n_conns, conn_cap = req "shape-conns" conns in
          let* file_names = req "shape-files" files in
          let* file_cap = req "shape-filecap" file_cap in
          if !nbits = None then damaged "missing field branch-bits";
          (* without a claimed count no payload bit is trusted: raw padding
             bits and encoded run lengths are both unbounded by the bytes *)
          let claimed = Option.value !nbits ~default:0 in
          let flushes = Option.value !flushes ~default:0 in
          let branch_log =
            match !payload with
            | None ->
                damaged "missing field branch-log";
                Report.Raw { Branch_log.bytes = ""; nbits = 0; flushes }
            | Some ("branch-log", bytes) ->
                let n = min claimed (8 * String.length bytes) in
                if n < claimed then damaged "bit count exceeds log bytes";
                Report.Raw { Branch_log.bytes; nbits = n; flushes }
            | Some (_, data) ->
                (* cut at the last complete token and never past the claim:
                   a corrupted MATCH length may count ~2^50 bits *)
                let cut, n = Codec.cut_prefix ~max_bits:claimed data in
                if n <> claimed || not (String.equal cut data) then
                  damaged
                    (match Codec.count_bits data with
                    | Error e -> "bad branch-enc: " ^ e
                    | Ok total ->
                        Printf.sprintf
                          "branch-enc decodes to %d bit(s) but branch-bits \
                           claims %d"
                          total claimed);
                Report.Encoded { Codec.data = cut; nbits = n; flushes }
          in
          let report =
            {
              Report.program;
              method_used;
              cohort = !cohort;
              branch_log;
              syscall_log =
                Option.map
                  (fun e -> { Syscall_log.entries = Array.of_list e })
                  !syscalls;
              schedule_log =
                Option.map
                  (fun t -> { Schedule_log.tids = Array.of_list t })
                  !schedule;
              crash;
              shape =
                { Concolic.Scenario.arg_caps; n_conns; conn_cap; file_names;
                  file_cap };
              suppression = Option.value !suppression ~default:[];
            }
          in
          Ok
            ( report,
              {
                complete = !damage = None;
                damage = !damage;
                dropped_lines;
                lost_log_bits = claimed - Report.nbits report;
                dropped_syscalls = !sys_dropped;
                dropped_schedule = !sched_dropped;
              } ))
  | _ -> Error (Malformed "not a bugrepro report (bad magic)")

(** The fail-closed reader: a report salvage found no damage in.
    Tolerates unknown trailing fields within a known version (forward
    compatibility inside a version); a well-formed header naming a version
    outside [1 .. {!version}] is [Unknown_version]; anything else is
    [Malformed], naming the first damage. *)
let deserialize_v (s : string) : (Report.t, error) result =
  match deserialize_salvage s with
  | Ok (r, { damage = None; _ }) -> Ok r
  | Ok (_, { damage = Some d; _ }) -> Error (Malformed d)
  | Error e -> Error e
