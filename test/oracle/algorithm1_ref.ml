(* The seed's naive Algorithm 1 engine: one [Bytes] truth-table load and
   one branch per occupied key, every candidate scored in full. *)

type tables = {
  keys : int array;  (* occupied keys, ascending *)
  taken : int array;  (* dense per-key counts, indexed by key *)
  not_taken : int array;
}

let tables_of_counts ~taken ~not_taken =
  let n = Array.length taken in
  if n <> Array.length not_taken then invalid_arg "Algorithm1.tables_of_counts";
  {
    keys =
      List.init n Fun.id
      |> List.filter (fun k -> taken.(k) > 0 || not_taken.(k) > 0)
      |> Array.of_list;
    taken = Array.copy taken;
    not_taken = Array.copy not_taken;
  }

let distinct_keys t = Array.length t.keys

let mispredictions t ~truth =
  let m = ref 0 in
  for i = 0 to Array.length t.keys - 1 do
    let k = t.keys.(i) in
    if Whisper_formula.Tree.eval_tt truth k then
      (* formula predicts taken: not-taken samples mispredict *)
      m := !m + t.not_taken.(k)
    else m := !m + t.taken.(k)
  done;
  !m

let find t ~candidates ~truth_of =
  if Array.length candidates = 0 then invalid_arg "Algorithm1.find";
  let best_f = ref candidates.(0) in
  let best_m = ref max_int in
  Array.iter
    (fun f ->
      let m = mispredictions t ~truth:(truth_of f) in
      if m < !best_m then begin
        best_m := m;
        best_f := f
      end)
    candidates;
  (!best_f, !best_m)
