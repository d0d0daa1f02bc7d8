(* Machine-speed calibration.

   The speed of a shared host drifts over minutes (other tenants,
   frequency scaling): on the reference host the same 42-report replay
   pass took between 5.5 s and 9.0 s, a quartile spread of 0.29 of the
   median, with CPU time tracking wall time.  So each workload runs a
   fixed slice of plain OCaml work between its operations, sharing no
   code with the programs under test.  The time the slices take tracks
   the machine's speed while the operations run; normalized by it, the
   ten-seed quartile spreads in WORKLOADS.md shrink by up to half.
   Reported timings are scaled to the speed at which one slice takes
   [nominal_s]. *)

let nominal_s = 5e-4

let spent = ref 0.0
let slices = ref 0

(* Wall time inside slices, warm-up laps included, since start-up. *)
let paused = ref 0.0

let reset () =
  spent := 0.0;
  slices := 0

(* A fixed pointer chase through one 16 K-entry cycle (128 KB, cache
   resident): no allocation, so no slice ever runs a collection of the
   workload's garbage. *)
let ring =
  lazy
    (let n = 16384 in
     let next = Array.init n (fun i -> i) in
     let seed = ref 12345 in
     (* Sattolo's shuffle: one cycle through every entry *)
     for i = n - 1 downto 1 do
       seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
       let j = !seed mod i in
       let t = next.(i) in
       next.(i) <- next.(j);
       next.(j) <- t
     done;
     next)

let chase next steps =
  let j = ref 0 in
  for _ = 1 to steps do
    j := Array.unsafe_get next !j
  done;
  ignore (Sys.opaque_identity !j)

(* One untimed lap over the whole ring comes first: it reloads whatever
   the preceding operation evicted from the cache, so the timed steps
   measure the machine's speed and not the operation's memory footprint. *)
let slice () =
  let next = Lazy.force ring in
  let t0 = Unix.gettimeofday () in
  chase next (Array.length next);
  let t1 = Unix.gettimeofday () in
  chase next 100_000;
  let t2 = Unix.gettimeofday () in
  spent := !spent +. (t2 -. t1);
  paused := !paused +. (t2 -. t0);
  incr slices

(* Wall clock that stands still while a slice runs: intervals read from
   it leave out the calibration work done inside them. *)
let clock () = Unix.gettimeofday () -. !paused

(* Factor that turns a duration measured since the last [reset] into its
   nominal-speed value (1.0 when no slice ran). *)
let scale () =
  if !slices = 0 || !spent <= 0.0 then 1.0
  else nominal_s *. float_of_int !slices /. !spent
