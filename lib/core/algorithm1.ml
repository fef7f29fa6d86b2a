type tables = {
  n_keys : int;
      (* number of distinct occupied keys; the arrays may be longer when
         the tables are a view into a scratch (see
         [tables_of_cells_below]) *)
  n_scored : int;
      (* prefix of [keys]/[delta] the scorers must visit: keys with
         delta = 0 contribute nothing to
         [m = t_total - sum over satisfied keys of delta] and are sorted
         (or compacted) past this point *)
  keys : int array;  (* distinct keys; first [n_scored] entries valid *)
  delta : int array;  (* taken - not_taken, parallel to keys *)
  gain_bound : int array;
      (* gain_bound.(i) = sum over j >= i of max 0 delta.(j); indices
         [0 .. n_scored] valid so index n_scored reads 0 *)
  t_total : int;
  nt_total : int;
  floor : int;
      (* irreducible mispredictions [sum_k min(t_k, nt_k)]: a hard lower
         bound on every formula's score, so a search that reaches it can
         stop — no later candidate can beat it, and ties resolve to the
         earlier candidate anyway *)
}

(* ------------------------------------------------------------------ *)
(* Table building                                                     *)
(* ------------------------------------------------------------------ *)

(* Workspace of the view tables [tables_of_cells_below] returns, sized
   for the 8-bit hash space.  Not safe to share across domains — give
   each worker its own. *)
type scratch = {
  b_keys : int array;
  b_delta : int array;  (* parallel to b_keys *)
  b_gain : int array;  (* gain bound, one longer than b_keys *)
}

let scratch () =
  {
    b_keys = Array.make 256 0;
    b_delta = Array.make 256 0;
    b_gain = Array.make 257 0;
  }

let fill_gain_bound gain ~delta ~n =
  Array.unsafe_set gain n 0;
  for i = n - 1 downto 0 do
    let d = Array.unsafe_get delta i in
    Array.unsafe_set gain i
      (Array.unsafe_get gain (i + 1) + if d > 0 then d else 0)
  done

(* Key order never affects scores (integer sums are exact and the bounded
   scorer is exact below its cutoff) — ordering by decreasing |delta| only
   sharpens pruning.  Buckets of min(|delta|, 255), stable so equal
   buckets keep ascending key order; bucket 0 holds exactly the
   zero-delta keys and sorts last, so the scored prefix is everything
   before it. *)
let tables_of_counts ~taken ~not_taken =
  let n = Array.length taken in
  if n <> Array.length not_taken then invalid_arg "Algorithm1.tables_of_counts";
  let bucket k = min (abs (taken.(k) - not_taken.(k))) 255 in
  let keys =
    List.init n Fun.id
    |> List.filter (fun k -> taken.(k) > 0 || not_taken.(k) > 0)
    |> List.stable_sort (fun a b -> Int.compare (bucket b) (bucket a))
    |> Array.of_list
  in
  let n_keys = Array.length keys in
  let delta = Array.map (fun k -> taken.(k) - not_taken.(k)) keys in
  let n_scored =
    Array.fold_left (fun acc d -> if d <> 0 then acc + 1 else acc) 0 delta
  in
  let gain_bound = Array.make (n_keys + 1) 0 in
  fill_gain_bound gain_bound ~delta ~n:n_scored;
  let sum f = Array.fold_left (fun acc k -> acc + f k) 0 keys in
  {
    n_keys;
    n_scored;
    keys;
    delta;
    gain_bound;
    t_total = sum (Array.get taken);
    nt_total = sum (Array.get not_taken);
    floor = sum (fun k -> min taken.(k) not_taken.(k));
  }

(* Hot-path extraction for the single-pass profile tabulation: cell
   [cells.(off + k)] packs key [k]'s taken count in bits 0..30 and its
   not-taken count in bits 31..61.  One fused pass compacts the occupied
   keys and accumulates the irreducible misprediction floor
   [sum_k min(t_k, nt_k)] — no formula can score below it, so when the
   floor already meets [cutoff] the whole extraction is skipped without
   affecting any result.

   Unlike [tables_of_counts], the returned tables are a zero-allocation
   view into the scratch, left in ascending-key order: key order only
   sharpens the bounded scorer's pruning, never its results, and on the
   decide hot path skipping the sort and the per-length array
   allocations outweighs the weaker per-candidate bound.  The view is
   valid until the next build from the same scratch. *)
let tables_of_cells_below s ~cells ~off ~cutoff =
  let b_keys = s.b_keys and b_delta = s.b_delta in
  let occ = ref 0
  and n = ref 0
  and t_total = ref 0
  and nt_total = ref 0
  and floor = ref 0 in
  (* the floor only grows: once a 64-cell block pushes it past [cutoff]
     the length is dead and the rest of the scan can be skipped *)
  let k0 = ref 0 in
  while !k0 < 256 && !floor < cutoff do
    for k = !k0 to !k0 + 63 do
      let v = Array.unsafe_get cells (off + k) in
      if v <> 0 then begin
        let t = v land 0x7FFF_FFFF in
        let nt = v lsr 31 in
        let d = t - nt in
        incr occ;
        t_total := !t_total + t;
        nt_total := !nt_total + nt;
        (* zero-delta keys count toward the totals and the floor but are
           invisible to the delta identity, so they are not stored *)
        if d <> 0 then begin
          let i = !n in
          Array.unsafe_set b_keys i k;
          Array.unsafe_set b_delta i d;
          n := i + 1
        end;
        (* branchless min t nt = nt + (d < 0 ? d : 0); Stdlib.min would
           be a generic-compare call on this hottest of loops *)
        floor := !floor + nt + (d land (d asr 62))
      end
    done;
    k0 := !k0 + 64
  done;
  let n = !n in
  if !occ = 0 || !floor >= cutoff then None
  else begin
    fill_gain_bound s.b_gain ~delta:b_delta ~n;
    Some
      {
        n_keys = !occ;
        n_scored = n;
        keys = b_keys;
        delta = b_delta;
        gain_bound = s.b_gain;
        t_total = !t_total;
        nt_total = !nt_total;
        floor = !floor;
      }
  end

let tables_total t = (t.t_total, t.nt_total)
let distinct_keys t = t.n_keys

(* ------------------------------------------------------------------ *)
(* Scoring                                                            *)
(* ------------------------------------------------------------------ *)

(* Bit-parallel scorer.  A formula mispredicts
     m = sum_{truth(k)} nt_k + sum_{not truth(k)} t_k
       = t_total - sum_{truth(k)} (t_k - nt_k)
   so scoring is one branchless pass over the compact delta array with a
   bitset test per key. *)
let mispredictions_packed t ~ptruth =
  let acc = ref 0 in
  let keys = t.keys and delta = t.delta in
  for i = 0 to t.n_scored - 1 do
    let k = Array.unsafe_get keys i in
    let bit = (Array.unsafe_get ptruth (k lsr 5) lsr (k land 31)) land 1 in
    acc := !acc + (Array.unsafe_get delta i land -bit)
  done;
  t.t_total - !acc

let always_mispredictions t = t.nt_total
let never_mispredictions t = t.t_total

(* Bounded scorer: returns the exact misprediction count when it is below
   [cutoff], or -1 as soon as the count provably cannot drop below it.
   Since keys are sorted by decreasing |delta|, the optimistic remainder
   [gain_bound] collapses fast and losing candidates abort after a few
   keys.  Exactness for winners is what keeps [find_packed] identical to
   an exhaustive scan: a pruned candidate satisfies m >= cutoff = best so
   far, and ties already resolve to the earlier candidate. *)
let score_below t ~ptruth ~cutoff =
  let keys = t.keys and delta = t.delta and bound = t.gain_bound in
  let n = t.n_scored in
  let t_total = t.t_total in
  (* geometric block growth: losing candidates die on the first big-delta
     keys, so check the bound after only 4 of them, then back off the
     check frequency for the (rare) candidates that keep surviving *)
  let rec scan i acc blk =
    if t_total - acc - Array.unsafe_get bound i >= cutoff then -1
    else if i = n then t_total - acc
    else begin
      let stop = if i + blk < n then i + blk else n in
      let a = ref acc in
      for j = i to stop - 1 do
        let k = Array.unsafe_get keys j in
        let bit = (Array.unsafe_get ptruth (k lsr 5) lsr (k land 31)) land 1 in
        a := !a + (Array.unsafe_get delta j land -bit)
      done;
      scan stop !a (if blk < 32 then blk + blk else blk)
    end
  in
  scan 0 0 4

(* Search telemetry: tallied in locals during the scan and flushed once
   per call, so the per-candidate loop pays nothing beyond the counting
   increments it already needs for the result. *)
let m_searches = Whisper_util.Telemetry.counter "algorithm1.searches"
let m_scored = Whisper_util.Telemetry.counter "algorithm1.candidates_scored"
let m_pruned = Whisper_util.Telemetry.counter "algorithm1.suffix_pruned"
let m_floor_exits = Whisper_util.Telemetry.counter "algorithm1.floor_exits"

let find_packed_below t ~candidates ~packed ~cutoff =
  let nc = Array.length candidates in
  if nc = 0 then invalid_arg "Algorithm1.find_packed";
  if Array.length packed < nc then
    invalid_arg "Algorithm1.find_packed: packed tables shorter than candidates";
  let telemetry = Whisper_util.Telemetry.enabled () in
  if t.floor >= cutoff then begin
    if telemetry then begin
      Whisper_util.Telemetry.incr m_searches;
      Whisper_util.Telemetry.incr m_floor_exits
    end;
    None
  end
  else begin
    let best_i = ref (-1) and best_m = ref cutoff in
    let scored = ref 0 and pruned = ref 0 and floor_exit = ref false in
    let ci = ref 0 in
    while !ci < nc do
      let m =
        score_below t ~ptruth:(Array.unsafe_get packed !ci) ~cutoff:!best_m
      in
      incr scored;
      if m < 0 then incr pruned
      else if m < !best_m then begin
        best_m := m;
        best_i := !ci;
        (* the floor is a hard lower bound on every candidate, so the
           first candidate to reach it is the final answer — skip the
           rest of the scan (ties already resolve to the earlier one) *)
        if m <= t.floor then begin
          floor_exit := true;
          ci := nc
        end
      end;
      incr ci
    done;
    if telemetry then begin
      Whisper_util.Telemetry.incr m_searches;
      Whisper_util.Telemetry.add m_scored !scored;
      Whisper_util.Telemetry.add m_pruned !pruned;
      if !floor_exit then Whisper_util.Telemetry.incr m_floor_exits
    end;
    if !best_i < 0 then None
    else Some (!best_i, candidates.(!best_i), !best_m)
  end

let find_packed t ~candidates ~packed =
  match find_packed_below t ~candidates ~packed ~cutoff:max_int with
  | Some r -> r
  | None ->
      (* cutoff = max_int admits any finite count, and scores are finite *)
      assert false
