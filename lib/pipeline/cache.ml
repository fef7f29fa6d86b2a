(* Flat set-associative LRU kernel.  One preallocated [int array] holds
   every way of every set contiguously (set-major, way 0 = MRU at the
   lowest index), so probe/fill touch a single cache-friendly block and
   allocate nothing.  The original array-of-arrays implementation is
   the differential oracle in the test-only [whisper_oracle] library. *)

type t = {
  data : int array;  (* [set * assoc + way] = line tag, way 0 = MRU *)
  set_mask : int;
  line_shift : int;
  assoc : int;
  mutable n_hit : int;
  mutable n_miss : int;
}

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

let create ?bytes ?entries ~assoc ~line_bytes () =
  let n_sets, line_shift = geometry ?bytes ?entries ~assoc ~line_bytes () in
  {
    data = Array.make (n_sets * assoc) (-1);
    set_mask = n_sets - 1;
    line_shift;
    assoc;
    n_hit = 0;
    n_miss = 0;
  }

let entries t = (t.set_mask + 1) * t.assoc

let reset t =
  Array.fill t.data 0 (Array.length t.data) (-1);
  t.n_hit <- 0;
  t.n_miss <- 0

(* All indices below stay inside [data] by construction: [base] is a
   masked set index times [assoc], and every offset is < assoc. *)

let access t addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc in
  let data = t.data in
  if Array.unsafe_get data base = line then begin
    (* MRU hit: nothing moves *)
    t.n_hit <- t.n_hit + 1;
    true
  end
  else begin
    let assoc = t.assoc in
    let rec find i =
      if i >= assoc then -1
      else if Array.unsafe_get data (base + i) = line then i
      else find (i + 1)
    in
    let way = find 1 in
    let hit = way >= 0 in
    let from = if hit then way else assoc - 1 in
    for i = from downto 1 do
      Array.unsafe_set data (base + i) (Array.unsafe_get data (base + i - 1))
    done;
    Array.unsafe_set data base line;
    if hit then t.n_hit <- t.n_hit + 1 else t.n_miss <- t.n_miss + 1;
    hit
  end

let probe t addr =
  let line = addr lsr t.line_shift in
  let base = (line land t.set_mask) * t.assoc in
  let data = t.data in
  let assoc = t.assoc in
  let rec find i =
    if i >= assoc then false
    else if Array.unsafe_get data (base + i) = line then true
    else find (i + 1)
  in
  find 0

let hits t = t.n_hit
let misses t = t.n_miss
