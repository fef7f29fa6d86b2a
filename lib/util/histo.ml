type t = (int, int) Hashtbl.t

let create ?(size_hint = 64) () : t = Hashtbl.create size_hint

let add t k n =
  match Hashtbl.find_opt t k with
  | Some c -> Hashtbl.replace t k (c + n)
  | None -> Hashtbl.add t k n

let incr t k = add t k 1

let count t k = Option.value ~default:0 (Hashtbl.find_opt t k)

let total t = Hashtbl.fold (fun _ c acc -> acc + c) t 0

let cardinal t = Hashtbl.length t

let to_sorted_list t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let by_count_desc t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t []
  |> List.sort (fun (k1, c1) (k2, c2) ->
         match compare c2 c1 with 0 -> compare k1 k2 | n -> n)

let merge_into ~dst ~src = Hashtbl.iter (fun k c -> add dst k c) src

let copy t = Hashtbl.copy t
