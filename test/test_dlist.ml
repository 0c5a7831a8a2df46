module D = Structures.Dlist

let test_basic () =
  let d = D.create ~nodes:8 ~lists:2 in
  Alcotest.(check int) "nodes" 8 (D.nodes d);
  Alcotest.(check int) "lists" 2 (D.lists d);
  Alcotest.(check bool) "empty" true (D.is_empty d 0);
  D.push_head d ~list:0 ~node:3;
  D.push_head d ~list:0 ~node:5;
  Alcotest.(check int) "size" 2 (D.size d 0);
  Alcotest.(check (option int)) "head" (Some 5) (D.head d 0);
  Alcotest.(check (option int)) "tail" (Some 3) (D.tail d 0);
  Alcotest.(check (option int)) "list_of" (Some 0) (D.list_of d 3);
  D.check_invariants d

let test_push_tail_order () =
  let d = D.create ~nodes:4 ~lists:1 in
  D.push_tail d ~list:0 ~node:0;
  D.push_tail d ~list:0 ~node:1;
  D.push_tail d ~list:0 ~node:2;
  Alcotest.(check (option int)) "head" (Some 0) (D.head d 0);
  Alcotest.(check (option int)) "pop tail" (Some 2) (D.pop_tail d 0);
  Alcotest.(check (option int)) "pop tail again" (Some 1) (D.pop_tail d 0);
  D.check_invariants d

let test_remove_middle () =
  let d = D.create ~nodes:4 ~lists:1 in
  List.iter (fun node -> D.push_tail d ~list:0 ~node) [ 0; 1; 2; 3 ];
  D.remove d ~node:2;
  Alcotest.(check int) "size" 3 (D.size d 0);
  Alcotest.(check (option int)) "list_of removed" None (D.list_of d 2);
  Alcotest.(check (option int)) "pop" (Some 3) (D.pop_tail d 0);
  Alcotest.(check (option int)) "pop" (Some 1) (D.pop_tail d 0);
  D.check_invariants d

let test_double_insert_rejected () =
  let d = D.create ~nodes:4 ~lists:2 in
  D.push_head d ~list:0 ~node:1;
  Alcotest.check_raises "reinsert"
    (Invalid_argument "Dlist.push_head: node already on a list") (fun () ->
      D.push_head d ~list:1 ~node:1)

let test_move_between_lists () =
  let d = D.create ~nodes:4 ~lists:2 in
  D.push_head d ~list:0 ~node:1;
  D.move_head d ~list:1 ~node:1;
  Alcotest.(check int) "src empty" 0 (D.size d 0);
  Alcotest.(check (option int)) "dst" (Some 1) (D.head d 1);
  (* moving a detached node is an insert *)
  D.move_tail d ~list:1 ~node:2;
  Alcotest.(check (option int)) "tail" (Some 2) (D.tail d 1);
  D.check_invariants d

let test_iter_from_tail () =
  let d = D.create ~nodes:4 ~lists:1 in
  List.iter (fun node -> D.push_tail d ~list:0 ~node) [ 0; 1; 2 ];
  let order = ref [] in
  D.iter_from_tail d ~list:0 (fun n -> order := n :: !order);
  Alcotest.(check (list int)) "tail-to-head" [ 0; 1; 2 ] !order

let test_next_towards_head () =
  let d = D.create ~nodes:4 ~lists:1 in
  List.iter (fun node -> D.push_tail d ~list:0 ~node) [ 0; 1; 2 ];
  Alcotest.(check (option int)) "neighbour of 2" (Some 1) (D.next_towards_head d 2);
  Alcotest.(check (option int)) "neighbour of 0" None (D.next_towards_head d 0)

let test_splice () =
  let d = D.create ~nodes:6 ~lists:2 in
  List.iter (fun node -> D.push_tail d ~list:0 ~node) [ 0; 1; 2 ];
  List.iter (fun node -> D.push_tail d ~list:1 ~node) [ 3; 4 ];
  D.splice_all d ~src:0 ~dst:1;
  Alcotest.(check int) "src drained" 0 (D.size d 0);
  Alcotest.(check int) "dst grew" 5 (D.size d 1);
  D.check_invariants d

(* Model-based: every operation is replayed on a reference model (each
   list as an OCaml list, head first, and each node's tag), and after
   each one every list's head-to-tail order, its size, every node's list
   and every node's tag must agree: no list operation touches a tag. *)
let nodes = 16
let lists = 4

type op =
  | Move_head of int * int (* list, node *)
  | Move_tail of int * int
  | Remove of int
  | Pop_tail of int
  | Splice_all of int * int (* src, dst *)
  | Set_tag of int * int (* node, tag *)

let show_op = function
  | Move_head (l, n) -> Printf.sprintf "move_head %d %d" l n
  | Move_tail (l, n) -> Printf.sprintf "move_tail %d %d" l n
  | Remove n -> Printf.sprintf "remove %d" n
  | Pop_tail l -> Printf.sprintf "pop_tail %d" l
  | Splice_all (s, d) -> Printf.sprintf "splice_all %d %d" s d
  | Set_tag (n, v) -> Printf.sprintf "set_tag %d %d" n v

let gen_op =
  QCheck.Gen.(
    let node = int_bound (nodes - 1) and list = int_bound (lists - 1) in
    frequency
      [
        (3, map2 (fun l n -> Move_head (l, n)) list node);
        (3, map2 (fun l n -> Move_tail (l, n)) list node);
        (2, map (fun n -> Remove n) node);
        (2, map (fun l -> Pop_tail l) list);
        (1, map2 (fun s d -> Splice_all (s, d)) list list);
        (1, map2 (fun n v -> Set_tag (n, v)) node (int_range (-1000) 1000));
      ])

let arb_ops =
  QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (0 -- 60) gen_op)

type model = { members : int list array; tags : int array }

let model_remove members node =
  Array.iteri (fun l xs -> members.(l) <- List.filter (( <> ) node) xs) members

(* Apply [op] to the model; returns what [pop_tail] must return. *)
let model_apply { members; tags } = function
  | Move_head (l, n) ->
    model_remove members n;
    members.(l) <- n :: members.(l);
    None
  | Move_tail (l, n) ->
    model_remove members n;
    members.(l) <- members.(l) @ [ n ];
    None
  | Remove n ->
    model_remove members n;
    None
  | Pop_tail l -> (
    match List.rev members.(l) with
    | [] -> None
    | last :: rest ->
      members.(l) <- List.rev rest;
      Some last)
  | Splice_all (s, d) ->
    (* Tail of [src] first: [src] lands on [dst]'s tail reversed. *)
    if s <> d then begin
      members.(d) <- members.(d) @ List.rev members.(s);
      members.(s) <- []
    end;
    None
  | Set_tag (n, v) ->
    tags.(n) <- v;
    None

let apply d = function
  | Move_head (list, node) -> D.move_head d ~list ~node; None
  | Move_tail (list, node) -> D.move_tail d ~list ~node; None
  | Remove node -> D.remove d ~node; None
  | Pop_tail l -> D.pop_tail d l
  | Splice_all (src, dst) -> D.splice_all d ~src ~dst; None
  | Set_tag (n, v) -> D.set_tag d n v; None

let head_to_tail d l =
  let xs = ref [] in
  D.iter_from_tail d ~list:l (fun n -> xs := n :: !xs);
  !xs

let agrees d { members; tags } =
  D.check_invariants d;
  let ok = ref true in
  for l = 0 to lists - 1 do
    if head_to_tail d l <> members.(l) || D.size d l <> List.length members.(l) then
      ok := false
  done;
  for n = 0 to nodes - 1 do
    let expected = ref None in
    Array.iteri (fun l xs -> if List.mem n xs then expected := Some l) members;
    if D.list_of d n <> !expected || D.tag d n <> tags.(n) then ok := false
  done;
  !ok

let prop_model =
  QCheck.Test.make ~name:"order, sizes and tags match a reference model" ~count:300
    arb_ops (fun ops ->
      let d = D.create ~nodes ~lists in
      (* Distinct starting tags, so a tag copied between nodes shows. *)
      let tags = Array.init nodes (fun n -> 100 + n) in
      Array.iteri (D.set_tag d) tags;
      let model = { members = Array.make lists []; tags } in
      List.for_all
        (fun op ->
          let got = apply d op in
          let want = model_apply model op in
          got = want && agrees d model)
        ops)

let () =
  Alcotest.run "dlist"
    [
      ( "unit",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "push_tail order" `Quick test_push_tail_order;
          Alcotest.test_case "remove middle" `Quick test_remove_middle;
          Alcotest.test_case "double insert rejected" `Quick test_double_insert_rejected;
          Alcotest.test_case "move between lists" `Quick test_move_between_lists;
          Alcotest.test_case "iter from tail" `Quick test_iter_from_tail;
          Alcotest.test_case "next towards head" `Quick test_next_towards_head;
          Alcotest.test_case "splice" `Quick test_splice;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
