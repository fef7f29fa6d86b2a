open Whisper_util

type t = {
  perm : int array;  (* extended-encoding formula ids, shuffled once *)
  cands : int array;  (* shared [perm] prefix — callers must not mutate *)
  packed : int array array;
      (* packed truth table per candidate, parallel to [cands]; built
         eagerly at [create] so parallel searches can share them
         read-only across domains without synchronization *)
  truths : (int, Bytes.t) Hashtbl.t;
  truths_lock : Mutex.t;
      (* parallel search reads only [packed]; [truth_of] serves hint
         rescoring, which may run on any domain holding a shared [t],
         so the lazy memo is mutex-protected *)
  leaves : int;
}

let create (cfg : Config.t) =
  let leaves = Config.formula_leaves cfg in
  let ids =
    match cfg.ops with
    | `Extended ->
        Array.init (Whisper_formula.Tree.space_size ~leaves) Fun.id
    | `Classic ->
        (* classic trees, embedded as extended ids so that the encoded
           hint decodes uniformly at run time (inversion additionally
           doubles the family: classic ROMBF also admits the negated
           output via swapping taken/not-taken, which we keep out to
           match the original and/or-only design) *)
        Array.init (Whisper_formula.Tree.classic_space_size ~leaves) (fun c ->
            Whisper_formula.Tree.to_id
              (Whisper_formula.Tree.of_classic_id ~leaves c))
  in
  let rng = Rng.create cfg.seed in
  Rng.shuffle rng ids;
  let frac =
    int_of_float (Float.round (cfg.explore_frac *. float_of_int (Array.length ids)))
  in
  let n_candidates = min (Array.length ids) (max cfg.min_explore frac) in
  let cands = Array.sub ids 0 n_candidates in
  let packed =
    Array.map
      (fun id ->
        Whisper_formula.Tree.packed_truth_table
          (Whisper_formula.Tree.of_id ~leaves id))
      cands
  in
  {
    perm = ids;
    cands;
    packed;
    truths = Hashtbl.create 256;
    truths_lock = Mutex.create ();
    leaves;
  }

let space t = Array.length t.perm
let candidates t = t.cands
let packed_candidates t = t.packed

let tree_of t id = Whisper_formula.Tree.of_id ~leaves:t.leaves id

let truth_of t id =
  Mutex.protect t.truths_lock (fun () ->
      match Hashtbl.find_opt t.truths id with
      | Some b -> b
      | None ->
          let b = Whisper_formula.Tree.truth_table (tree_of t id) in
          Hashtbl.add t.truths id b;
          b)
