let nil = -1

(* One node is four consecutive words of [node]: the link towards the
   tail, the link towards the head, the list holding it ([nil] when
   detached) and the policy's tag.  Moving a page between lists then
   touches one cache line per node instead of one per field array. *)
let stride = 4

let f_next = 0 (* towards tail *)
let f_prev = 1 (* towards head *)
let f_list = 2
let f_tag = 3

type t = {
  node : int array;
  heads : int array;
  tails : int array;
  sizes : int array;
}

let create ~nodes ~lists =
  if nodes < 0 || lists < 0 then invalid_arg "Dlist.create";
  let node = Array.make (stride * max nodes 1) nil in
  for n = 0 to max nodes 1 - 1 do
    node.((stride * n) + f_tag) <- 0
  done;
  {
    node;
    heads = Array.make (max lists 1) nil;
    tails = Array.make (max lists 1) nil;
    sizes = Array.make (max lists 1) 0;
  }

let nodes t = Array.length t.node / stride

let lists t = Array.length t.heads

let[@inline] get t n f = t.node.((stride * n) + f)

let[@inline] set t n f v = t.node.((stride * n) + f) <- v

let list_node t node = get t node f_list

let list_of t node =
  let l = list_node t node in
  if l = nil then None else Some l

let size t l = t.sizes.(l)

let is_empty t l = t.sizes.(l) = 0

let attached t node = list_node t node <> nil

let[@inline] tag t node = get t node f_tag

let[@inline] set_tag t node v = set t node f_tag v

let push_head t ~list ~node =
  if attached t node then invalid_arg "Dlist.push_head: node already on a list";
  let h = t.heads.(list) in
  set t node f_prev nil;
  set t node f_next h;
  if h <> nil then set t h f_prev node else t.tails.(list) <- node;
  t.heads.(list) <- node;
  set t node f_list list;
  t.sizes.(list) <- t.sizes.(list) + 1

let push_tail t ~list ~node =
  if attached t node then invalid_arg "Dlist.push_tail: node already on a list";
  let tl = t.tails.(list) in
  set t node f_next nil;
  set t node f_prev tl;
  if tl <> nil then set t tl f_next node else t.heads.(list) <- node;
  t.tails.(list) <- node;
  set t node f_list list;
  t.sizes.(list) <- t.sizes.(list) + 1

let remove t ~node =
  let l = list_node t node in
  if l <> nil then begin
    let p = get t node f_prev and n = get t node f_next in
    if p <> nil then set t p f_next n else t.heads.(l) <- n;
    if n <> nil then set t n f_prev p else t.tails.(l) <- p;
    set t node f_prev nil;
    set t node f_next nil;
    set t node f_list nil;
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

let next_towards_head t node = opt (get t node f_prev)

let iter_from_tail t ~list f =
  let rec loop node =
    if node <> nil then begin
      let p = get t node f_prev in
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
        if list_node t node <> l then failwith "Dlist: owner mismatch";
        if get t node f_prev <> prev_node then failwith "Dlist: prev link broken";
        incr count;
        walk (get t node f_next) node
      end
      else if t.tails.(l) <> prev_node then failwith "Dlist: tail mismatch"
    in
    walk t.heads.(l) nil;
    if !count <> t.sizes.(l) then failwith "Dlist: size mismatch"
  done;
  Array.iteri
    (fun node s ->
      if (not s) && list_node t node <> nil then failwith "Dlist: phantom owner")
    seen
