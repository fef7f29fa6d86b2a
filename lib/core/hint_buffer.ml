open Whisper_util

type t = {
  store : Intlru.t;
  mutable n_insert : int;
  mutable n_hit : int;
  mutable n_miss : int;
}

let miss = Intlru.miss

let create ~size =
  { store = Intlru.create ~capacity:size; n_insert = 0; n_hit = 0; n_miss = 0 }

let size t = Intlru.capacity t.store
let length t = Intlru.length t.store

let insert t ~branch_pc payload =
  t.n_insert <- t.n_insert + 1;
  Intlru.insert t.store branch_pc payload

let probe t ~branch_pc =
  let p = Intlru.probe t.store branch_pc in
  if p >= 0 then t.n_hit <- t.n_hit + 1 else t.n_miss <- t.n_miss + 1;
  p

let insert_hint t ~branch_pc hint = insert t ~branch_pc (Brhint.encode hint)

let probe_hint t ~branch_pc =
  let p = probe t ~branch_pc in
  if p < 0 then None else Some (Brhint.decode p)

let insertions t = t.n_insert
let hits t = t.n_hit
let misses t = t.n_miss
