(* Bounded int-key / int-payload map with insertion-ordered eviction,
   laid out entirely in int arrays so the hot probe/insert path never
   allocates.

   Structure: a fixed pool of [cap] nodes (parallel [keys]/[vals]
   arrays), a power-of-two bucket table of chained node indices for the
   key lookup, and intrusive recency links ([qprev]/[qnext]) threading
   the live nodes from most- to least-recently inserted.  Nodes are
   handed out monotonically until the pool is full; after that every
   insert of a new key reuses the evicted tail's node, so no freelist is
   needed.  Every operation is O(1) expected (chains carry a <= 0.5 load
   factor) and allocation-free. *)

type t = {
  cap : int;
  bmask : int;
  buckets : int array; (* bucket -> first node index, or -1 *)
  keys : int array; (* node -> key *)
  vals : int array; (* node -> payload *)
  hnext : int array; (* node -> next node in its bucket chain, or -1 *)
  qprev : int array; (* node -> more recently inserted node, or -1 *)
  qnext : int array; (* node -> less recently inserted node, or -1 *)
  mutable head : int; (* most recently inserted node, or -1 *)
  mutable tail : int; (* least recently inserted node, or -1 *)
  mutable len : int;
}

let miss = -1

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Intlru.create";
  let nbuckets = pow2_at_least (2 * capacity) 8 in
  {
    cap = capacity;
    bmask = nbuckets - 1;
    buckets = Array.make nbuckets (-1);
    keys = Array.make capacity 0;
    vals = Array.make capacity 0;
    hnext = Array.make capacity (-1);
    qprev = Array.make capacity (-1);
    qnext = Array.make capacity (-1);
    head = -1;
    tail = -1;
    len = 0;
  }

let capacity t = t.cap
let length t = t.len

(* Multiplicative mix: keys are typically 4-byte-aligned PCs, so the raw
   low bits carry no entropy; fold the product's high bits back in. *)
let bucket t k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land t.bmask

let find_node t ~bucket:b k =
  let keys = t.keys and hnext = t.hnext in
  let rec go i =
    if i < 0 then -1
    else if Array.unsafe_get keys i = k then i
    else go (Array.unsafe_get hnext i)
  in
  go (Array.unsafe_get t.buckets b)

let probe t k =
  let i = find_node t ~bucket:(bucket t k) k in
  if i < 0 then miss else Array.unsafe_get t.vals i

let unlink_recency t i =
  let p = t.qprev.(i) and n = t.qnext.(i) in
  if p >= 0 then t.qnext.(p) <- n else t.head <- n;
  if n >= 0 then t.qprev.(n) <- p else t.tail <- p

let push_front t i =
  t.qprev.(i) <- -1;
  t.qnext.(i) <- t.head;
  if t.head >= 0 then t.qprev.(t.head) <- i else t.tail <- i;
  t.head <- i

let remove_from_chain t ~bucket:b i =
  let first = t.buckets.(b) in
  if first = i then t.buckets.(b) <- t.hnext.(i)
  else begin
    let rec go j =
      let n = t.hnext.(j) in
      if n = i then t.hnext.(j) <- t.hnext.(i) else go n
    in
    go first
  end

let insert t k v =
  if v < 0 then invalid_arg "Intlru.insert: negative payload";
  let b = bucket t k in
  let i = find_node t ~bucket:b k in
  if i >= 0 then begin
    (* re-insertion: update the payload and refresh recency *)
    t.vals.(i) <- v;
    unlink_recency t i;
    push_front t i
  end
  else begin
    let i =
      if t.len < t.cap then begin
        let i = t.len in
        t.len <- t.len + 1;
        i
      end
      else begin
        (* evict the least-recently-inserted key; reuse its node *)
        let i = t.tail in
        remove_from_chain t ~bucket:(bucket t t.keys.(i)) i;
        unlink_recency t i;
        i
      end
    in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.hnext.(i) <- t.buckets.(b);
    t.buckets.(b) <- i;
    push_front t i
  end
