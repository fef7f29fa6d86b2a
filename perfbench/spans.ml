type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  work : int;
}

type t = {
  mutable closed : span list;  (* newest first *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
  counts : (string, float) Hashtbl.t;
}

let create () =
  { closed = []; stack = []; next_id = 0; counts = Hashtbl.create 16 }

let now = Unix.gettimeofday

let with_span t ?(work = 0) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let close () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.closed <- { id; parent; name; t0; t1; work } :: t.closed
  in
  Fun.protect ~finally:close f

let count t name v =
  Hashtbl.replace t.counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

let counted t name = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)

let spans t =
  List.sort (fun a b -> compare a.id b.id) t.closed |> Array.of_list

let duration s = s.t1 -. s.t0

let self_times spans =
  let index = Hashtbl.create (Array.length spans) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let self = Array.map duration spans in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> self.(p) <- self.(p) -. duration s
      | None -> ())
    spans;
  self

let leaves spans =
  let parents = Hashtbl.create (Array.length spans) in
  Array.iter (fun s -> Hashtbl.replace parents s.parent ()) spans;
  Array.to_list spans |> List.filter (fun s -> not (Hashtbl.mem parents s.id))

let leaf_seconds spans =
  List.fold_left (fun acc s -> acc +. duration s) 0.0 (leaves spans)

let unattributed_pct ~wall spans =
  if wall <= 0.0 then 0.0
  else 100.0 *. Float.max 0.0 (wall -. leaf_seconds spans) /. wall

let named spans name =
  Array.to_list spans |> List.filter (fun s -> s.name = name)
