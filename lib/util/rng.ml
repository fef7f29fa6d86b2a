type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = next t in
  { state = mix s }

let bits t n =
  if n < 0 || n > 62 then invalid_arg "Rng.bits";
  if n = 0 then 0
  else
    Int64.to_int (Int64.shift_right_logical (next t) (64 - n))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling over 62 usable bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let bernoulli t p = float t 1.0 < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric";
  if p = 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle t arr;
  arr

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose";
  arr.(int t (Array.length arr))

let sample_weighted t arr =
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 arr in
  if total <= 0.0 then invalid_arg "Rng.sample_weighted";
  let target = float t total in
  let rec go i acc =
    if i >= Array.length arr - 1 then snd arr.(Array.length arr - 1)
    else
      let w, v = arr.(i) in
      let acc = acc +. w in
      if target < acc then v else go (i + 1) acc
  in
  go 0 0.0
