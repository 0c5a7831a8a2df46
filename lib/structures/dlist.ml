let nil = -1

type t = {
  next : int array; (* towards tail *)
  prev : int array; (* towards head *)
  owner : int array; (* node -> list id, or nil *)
  heads : int array;
  tails : int array;
  sizes : int array;
}

let create ~nodes ~lists =
  if nodes < 0 || lists < 0 then invalid_arg "Dlist.create";
  {
    next = Array.make (max nodes 1) nil;
    prev = Array.make (max nodes 1) nil;
    owner = Array.make (max nodes 1) nil;
    heads = Array.make (max lists 1) nil;
    tails = Array.make (max lists 1) nil;
    sizes = Array.make (max lists 1) 0;
  }

let nodes t = Array.length t.next

let lists t = Array.length t.heads

let list_of t node = if t.owner.(node) = nil then None else Some t.owner.(node)

let size t l = t.sizes.(l)

let is_empty t l = t.sizes.(l) = 0

let attached t node = t.owner.(node) <> nil

let push_head t ~list ~node =
  if attached t node then invalid_arg "Dlist.push_head: node already on a list";
  let h = t.heads.(list) in
  t.prev.(node) <- nil;
  t.next.(node) <- h;
  if h <> nil then t.prev.(h) <- node else t.tails.(list) <- node;
  t.heads.(list) <- node;
  t.owner.(node) <- list;
  t.sizes.(list) <- t.sizes.(list) + 1

let push_tail t ~list ~node =
  if attached t node then invalid_arg "Dlist.push_tail: node already on a list";
  let tl = t.tails.(list) in
  t.next.(node) <- nil;
  t.prev.(node) <- tl;
  if tl <> nil then t.next.(tl) <- node else t.heads.(list) <- node;
  t.tails.(list) <- node;
  t.owner.(node) <- list;
  t.sizes.(list) <- t.sizes.(list) + 1

let remove t ~node =
  let l = t.owner.(node) in
  if l <> nil then begin
    let p = t.prev.(node) and n = t.next.(node) in
    if p <> nil then t.next.(p) <- n else t.heads.(l) <- n;
    if n <> nil then t.prev.(n) <- p else t.tails.(l) <- p;
    t.prev.(node) <- nil;
    t.next.(node) <- nil;
    t.owner.(node) <- nil;
    t.sizes.(l) <- t.sizes.(l) - 1
  end

let move_head t ~list ~node =
  remove t ~node;
  push_head t ~list ~node

let move_tail t ~list ~node =
  remove t ~node;
  push_tail t ~list ~node

let opt x = if x = nil then None else Some x

let head t l = opt t.heads.(l)

let tail t l = opt t.tails.(l)

(* Unboxed accessors for policy scan loops: [nil] (-1) instead of None,
   so a per-page candidate probe allocates nothing. *)
let tail_node t l = t.tails.(l)

let pop_tail_node t l =
  let node = t.tails.(l) in
  if node <> nil then remove t ~node;
  node

let pop_tail t l =
  match tail t l with
  | None -> None
  | Some node ->
    remove t ~node;
    Some node

let next_towards_head t node = opt t.prev.(node)

let iter_from_tail t ~list f =
  let rec loop node =
    if node <> nil then begin
      let p = t.prev.(node) in
      f node;
      loop p
    end
  in
  loop t.tails.(list)

let splice_all t ~src ~dst =
  if src <> dst then begin
    let rec loop () =
      match pop_tail t src with
      | None -> ()
      | Some node ->
        push_tail t ~list:dst ~node;
        loop ()
    in
    loop ()
  end

let check_invariants t =
  let seen = Array.make (nodes t) false in
  for l = 0 to lists t - 1 do
    let count = ref 0 in
    let rec walk node prev_node =
      if node <> nil then begin
        if seen.(node) then failwith "Dlist: node on two lists";
        seen.(node) <- true;
        if t.owner.(node) <> l then failwith "Dlist: owner mismatch";
        if t.prev.(node) <> prev_node then failwith "Dlist: prev link broken";
        incr count;
        walk t.next.(node) node
      end
      else if t.tails.(l) <> prev_node then failwith "Dlist: tail mismatch"
    in
    walk t.heads.(l) nil;
    if !count <> t.sizes.(l) then failwith "Dlist: size mismatch"
  done;
  Array.iteri
    (fun node s ->
      if (not s) && t.owner.(node) <> nil then failwith "Dlist: phantom owner")
    seen
