(* Order statistics over timing samples.

   A timing is reported as its median and the highest standard percentile
   that still has at least ten samples beyond it, together with the sample
   count, so a tail figure is never read off a handful of points. *)

(* Nearest-rank percentile of an ascending array, [p] in [0, 1]. *)
let percentile_sorted (a : float array) p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile samples p = percentile_sorted (sorted samples) p
let median samples = percentile samples 0.5

(* Samples strictly above the nearest-rank [p] position. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let min_beyond = 10

(* The highest of p99/p95/p90/p75/p50 with at least [min_beyond] samples
   above it; [None] when even the median has fewer. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= min_beyond) [ 0.99; 0.95; 0.9; 0.75; 0.5 ]

type summary = {
  n : int;
  p50 : float;
  p90 : float;
  tail_p : float option;  (** see {!tail_percentile} *)
  tail : float;  (** value at [tail_p], or [nan] *)
}

let summarize samples =
  let a = sorted samples in
  let n = Array.length a in
  let tail_p = tail_percentile n in
  {
    n;
    p50 = percentile_sorted a 0.5;
    p90 = percentile_sorted a 0.9;
    tail_p;
    tail = (match tail_p with Some p -> percentile_sorted a p | None -> nan);
  }

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ratio with a zero denominator read as "nothing measured" *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
