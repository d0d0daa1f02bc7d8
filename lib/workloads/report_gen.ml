(** Seeded crash-report load generator (see report_gen.mli). *)

module Methods = Instrument.Methods

type base = {
  entry : Catalog.entry;
  experiment : Catalog.experiment;
  meth : Methods.t;
}

let base name id meth =
  match Catalog.find name with
  | Ok entry ->
      let experiment =
        List.find (fun (x : Catalog.experiment) -> x.id = id) entry.experiments
      in
      { entry; experiment; meth }
  | Error e -> invalid_arg e

(* µServer crashes arrive from simulated clients: each experiment's
   request stream is one client's crash, named "userver-expN" on the
   wire *)
let quick_bases () =
  [
    base "mkdir" 1 Methods.All_branches;
    base "paste" 1 Methods.Static;
    base "userver" 1 Methods.Static;
  ]

let full_bases () =
  [
    base "mkdir" 1 Methods.All_branches;
    base "mknod" 1 Methods.Static;
    base "mkfifo" 1 Methods.All_branches;
    base "paste" 1 Methods.Static;
    base "userver" 1 Methods.Static;
    base "userver" 3 Methods.Static;
  ]

type t = {
  memo : Catalog.memo;
  bases : base list;
  mutable wires : string array option;  (** one recorded wire per base *)
}

let make ?(quick = false) ~config () =
  {
    memo = Catalog.memo config;
    bases = (if quick then quick_bases () else full_bases ());
    wires = None;
  }

let bases t = List.map (fun b -> (b.experiment.program, b.meth)) t.bases

let plan_for t ~program ~meth =
  Result.map (fun e -> Catalog.plan t.memo e meth) (Catalog.find program)

let crash_base t ~program ~meth =
  Result.map
    (fun (e : Catalog.entry) ->
      (* the experiment whose crash carries this name, else the first *)
      let x =
        match
          List.find_opt
            (fun (x : Catalog.experiment) -> String.equal x.program program)
            e.experiments
        with
        | Some x -> x
        | None -> List.hd e.experiments
      in
      let prog, plan = Catalog.plan t.memo e meth in
      (prog, plan, e.crash x.id))
    (Catalog.find program)

let record_wires t =
  match t.wires with
  | Some w -> w
  | None ->
      let w =
        t.bases
        |> List.map (fun b ->
               match Catalog.record t.memo b.entry b.experiment b.meth with
               | Ok wire -> wire
               | Error e -> failwith e)
        |> Array.of_list
      in
      t.wires <- Some w;
      w

(* ------------------------------------------------------------------ *)

type report = { client : int; path : string; wire : string; torn : bool }

(* cut into the tail of the branch payload hex (wire-v4 [branch-enc]
   token stream, or [branch-log] on raw wires): strictly malformed,
   salvageable — the shape a crashing process tearing the tail of its
   own log buffer leaves behind.  Cuts land at one of three quantized
   depths (97..99% of the payload) so the torn variants stay few, cluster
   tightly, and replay cheaply — the missing tail is short enough that
   guided replay reliably reconstructs it whatever the worker count. *)
let tear ?cut_pct ?lost_hex rng wire =
  match Instrument.Wire.payload_span wire with
  | None -> wire
  | Some (start, hex_end) ->
      let hex_len = hex_end - start in
      if hex_len <= 2 then String.sub wire 0 start
      else
        let cut =
          match lost_hex with
          | Some k ->
              (* absolute tail loss: the unflushed buffer tail a crashing
                 process drops is a fixed byte count, whatever the
                 instrumentation density — so denser plans lose a shorter
                 execution suffix *)
              max 1 (min (hex_len - 1) (hex_len - max 1 k))
          | None ->
              let pct =
                match cut_pct with
                | Some p -> max 1 (min 99 p)
                | None -> [| 97; 98; 99 |].(Osmodel.Rng.range rng 0 2)
              in
              max 1 (min (hex_len - 1) (hex_len * pct / 100))
        in
        String.sub wire 0 (start + cut)

let stream t ~seed ~clients ~torn_pct n : report list =
  if clients < 1 then invalid_arg "Report_gen.stream: clients must be >= 1";
  if n < 0 then invalid_arg "Report_gen.stream: n must be >= 0";
  let wires = record_wires t in
  let n_bases = Array.length wires in
  let rng = Osmodel.Rng.create seed in
  let torn_permille = int_of_float (torn_pct *. 1000.0) in
  List.init n (fun i ->
      (* duplicates dominate, as in a real fleet: a client's crash is a
         seeded pick over the recorded bases, biased towards the first
         (hot) bug by drawing twice and keeping the smaller index *)
      let a = Osmodel.Rng.int rng n_bases in
      let b = Osmodel.Rng.int rng n_bases in
      let base = min a b in
      let client = Osmodel.Rng.int rng clients in
      let torn = Osmodel.Rng.int rng 1000 < torn_permille in
      let wire = if torn then tear rng wires.(base) else wires.(base) in
      {
        client;
        path = Printf.sprintf "client-%04d/r%05d.report" client i;
        wire;
        torn;
      })
