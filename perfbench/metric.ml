let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

type t = { name : string; value : float; unit_ : string }

let make name ~unit_ value =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metric.make: bad metric name %S" name);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Metric.make: %s is not finite" name);
  { name; value; unit_ }

(* %.17g round-trips every double, so the printed value keeps all the
   digits that were measured. *)
let number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
