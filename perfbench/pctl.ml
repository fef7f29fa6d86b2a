let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pctl.median: empty sample";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank: the smallest sample with at least [p] percent of the
   samples at or below it. *)
let rank ~n p =
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n k)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pctl.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Pctl.percentile: p outside [0,100]";
  (sorted xs).(rank ~n p - 1)

let tail_rank n =
  let rec down p =
    if p < 1 then None
    else if n - rank ~n (float_of_int p) >= 10 then Some p
    else down (p - 1)
  in
  down 99

type summary = { calls : int; median : float; tail : (int * float) option }

let summarize xs =
  let n = Array.length xs in
  {
    calls = n;
    median = median xs;
    tail =
      Option.map (fun p -> (p, percentile xs (float_of_int p))) (tail_rank n);
  }
