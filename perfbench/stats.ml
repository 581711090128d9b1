(* Order statistics used by the run and compare commands. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

(* The highest nearest-rank percentile, capped at [p], that leaves at
   least [beyond] samples above it.  With 100 or more samples this is
   the true 90th percentile for [p = 0.9]; with fewer it falls back so
   the reported tail is never one or two outliers. *)
let tail_percentile ?(beyond = 10) p xs =
  let n = List.length xs in
  let q = Float.min p (float_of_int (n - beyond) /. float_of_int (max 1 n)) in
  percentile (Float.max q (1.0 /. float_of_int (max 1 n))) xs

(* Python's statistics.quantiles(xs, n=4) with the default
   'exclusive' method: the first, second and third quartile.  Spreads
   computed from result files with Python then agree with the compare
   command digit for digit. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Inter-quartile distance as a share of the median (0 when the median
   is 0 and all samples agree). *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if q3 = q1 then 0.0 else (q3 -. q1) /. Float.abs m

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    if List.exists (fun x -> x <= 0.0) xs then
      invalid_arg "Stats.geomean: non-positive sample";
    Float.exp
      (List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs
      /. float_of_int (List.length xs))
