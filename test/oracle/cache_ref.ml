(* The original array-of-arrays set-associative LRU cache, the
   differential oracle for the flat [Whisper_pipeline.Cache] kernel.  It
   validates its geometry on its own, so the fuzz suite also checks that
   both reject the same shapes with the same message. *)

let geometry ?bytes ?entries ~assoc ~line_bytes () =
  let entries =
    match (bytes, entries) with
    | Some b, None -> b / line_bytes
    | None, Some e -> e
    | _ -> invalid_arg "Cache.create: give exactly one of ~bytes/~entries"
  in
  if entries < assoc || assoc < 1 then invalid_arg "Cache.create";
  let n_sets = entries / assoc in
  if not (Whisper_util.Bitops.is_power_of_two n_sets) then
    invalid_arg "Cache.create: sets must be a power of two";
  if not (Whisper_util.Bitops.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  (n_sets, Whisper_util.Bitops.log2_ceil line_bytes)

type t = {
  sets : int array array;  (* [set].[way] = line tag, way 0 = MRU *)
  set_mask : int;
  line_shift : int;
  assoc : int;
  mutable n_hit : int;
  mutable n_miss : int;
}

let create ?bytes ?entries ~assoc ~line_bytes () =
  let n_sets, line_shift = geometry ?bytes ?entries ~assoc ~line_bytes () in
  {
    sets = Array.make_matrix n_sets assoc (-1);
    set_mask = n_sets - 1;
    line_shift;
    assoc;
    n_hit = 0;
    n_miss = 0;
  }

let find_way set assoc tag =
  let rec go i =
    if i >= assoc then -1 else if set.(i) = tag then i else go (i + 1)
  in
  go 0

let access t addr =
  let line = addr lsr t.line_shift in
  let set = t.sets.(line land t.set_mask) in
  let tag = line lsr 0 in
  let way = find_way set t.assoc tag in
  let hit = way >= 0 in
  let from = if hit then way else t.assoc - 1 in
  for i = from downto 1 do
    set.(i) <- set.(i - 1)
  done;
  set.(0) <- tag;
  if hit then t.n_hit <- t.n_hit + 1 else t.n_miss <- t.n_miss + 1;
  hit

let probe t addr =
  let line = addr lsr t.line_shift in
  let set = t.sets.(line land t.set_mask) in
  find_way set t.assoc line >= 0

let hits t = t.n_hit
let misses t = t.n_miss
