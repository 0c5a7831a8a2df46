module Q = Engine.Event_queue

let test_empty () =
  let q = Q.create () in
  Alcotest.(check bool) "empty" true (Q.is_empty q);
  Alcotest.(check (option int)) "peek" None (Q.peek_time q);
  Alcotest.(check bool) "pop" true (Q.pop q = None)

let test_time_order () =
  let q = Q.create () in
  Q.add q ~time:30 "c";
  Q.add q ~time:10 "a";
  Q.add q ~time:20 "b";
  Alcotest.(check (option int)) "peek" (Some 10) (Q.peek_time q);
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (Q.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (20, "b")) (Q.pop q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (30, "c")) (Q.pop q);
  Alcotest.(check bool) "drained" true (Q.is_empty q)

let test_fifo_at_equal_times () =
  let q = Q.create () in
  for i = 0 to 9 do
    Q.add q ~time:5 i
  done;
  for i = 0 to 9 do
    Alcotest.(check (option (pair int int))) "insertion order" (Some (5, i)) (Q.pop q)
  done

let test_negative_time_rejected () =
  let q = Q.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.add: negative time")
    (fun () -> Q.add q ~time:(-1) ())

let test_clear () =
  let q = Q.create () in
  Q.add q ~time:1 ();
  Q.clear q;
  Alcotest.(check int) "size" 0 (Q.size q)

let test_interleaved_add_pop () =
  let q = Q.create () in
  Q.add q ~time:10 10;
  Q.add q ~time:5 5;
  Alcotest.(check bool) "pop 5" true (Q.pop q = Some (5, 5));
  Q.add q ~time:1 1;
  Alcotest.(check bool) "pop 1" true (Q.pop q = Some (1, 1));
  Alcotest.(check bool) "pop 10" true (Q.pop q = Some (10, 10))

(* Regression: [pop] must blank the vacated heap slot with [dummy].
   Before the fix, a popped payload stayed reachable through the spare
   capacity of the payload array until a later [add] happened to reuse
   the slot, pinning arbitrarily large closures across the run. *)
let test_pop_releases_payloads () =
  let n = 16 in
  let w = Weak.create n in
  let q : int array Q.t = Q.create ~dummy:[||] () in
  let fill () =
    for i = 0 to n - 1 do
      let payload = Array.make 8 i in
      Weak.set w i (Some payload);
      Q.add q ~time:i payload
    done
  in
  fill ();
  for _ = 1 to n do
    match Q.pop q with
    | Some _ -> ()
    | None -> Alcotest.fail "queue drained early"
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "popped payloads still pinned by the heap" 0 !live

(* Regression: [clear] must release the backing arrays, not just reset
   [len] — otherwise a drained queue pins its high-water-mark capacity
   (and every payload parked in it) for the rest of the run. *)
let test_clear_releases_capacity () =
  let n = 64 in
  let w = Weak.create n in
  let q : int array Q.t = Q.create ~dummy:[||] () in
  let fill () =
    for i = 0 to n - 1 do
      let payload = Array.make 4 i in
      Weak.set w i (Some payload);
      Q.add q ~time:i payload
    done
  in
  fill ();
  Q.clear q;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "cleared payloads still pinned by the heap" 0 !live;
  Alcotest.(check int) "size" 0 (Q.size q);
  (* The queue must stay usable after the capacity reset. *)
  Q.add q ~time:3 (Array.make 1 3);
  Q.add q ~time:1 (Array.make 1 1);
  Alcotest.(check (option int)) "peek after clear" (Some 1) (Q.peek_time q)

let prop_pops_sorted =
  QCheck.Test.make ~name:"pops come out time-sorted" ~count:200
    QCheck.(list small_nat)
    (fun times ->
      let q = Q.create () in
      List.iter (fun t -> Q.add q ~time:t t) times;
      let rec drain acc =
        match Q.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

let prop_size_tracks =
  QCheck.Test.make ~name:"size tracks adds and pops" ~count:200
    QCheck.(list (int_bound 100))
    (fun times ->
      let q = Q.create () in
      List.iter (fun t -> Q.add q ~time:t ()) times;
      let n = List.length times in
      Q.size q = n
      &&
      (ignore (Q.pop q);
       Q.size q = max 0 (n - 1)))

(* Random interleavings of adds ([Some time], few distinct times so
   ties abound) and pops ([None]), then a full drain, against a model
   that keeps pending events as a list sorted by (time, insertion). *)
let prop_matches_sorted_model =
  QCheck.Test.make ~name:"pops follow (time, insertion) order" ~count:500
    QCheck.(list_of_size Gen.(0 -- 300) (option (int_bound 4)))
    (fun ops ->
      let q = Q.create () in
      let model = ref [] and next = ref 0 and ok = ref true in
      (* A new event goes after every pending one at its time. *)
      let rec insert ((time, _) as e) = function
        | ((t, _) as x) :: rest when t <= time -> x :: insert e rest
        | rest -> e :: rest
      in
      let pop () =
        match (Q.pop q, !model) with
        | None, [] -> ()
        | Some got, want :: rest ->
          if got <> want then ok := false;
          model := rest
        | _ -> ok := false
      in
      List.iter
        (function
          | Some time ->
            Q.add q ~time !next;
            model := insert (time, !next) !model;
            incr next
          | None -> pop ())
        ops;
      while !model <> [] do pop () done;
      !ok && Q.is_empty q)

let () =
  Alcotest.run "event_queue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "time order" `Quick test_time_order;
          Alcotest.test_case "fifo at equal times" `Quick test_fifo_at_equal_times;
          Alcotest.test_case "negative time rejected" `Quick test_negative_time_rejected;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "interleaved" `Quick test_interleaved_add_pop;
          Alcotest.test_case "pop releases payloads" `Quick
            test_pop_releases_payloads;
          Alcotest.test_case "clear releases capacity" `Quick
            test_clear_releases_capacity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_pops_sorted; prop_size_tracks; prop_matches_sorted_model ] );
    ]
