module SM = Swapdev.Swap_manager

module V = Obs.Vmstat

let make ?vmstat () =
  let dev = Swapdev.Zram.create ~rng:(Engine.Rng.create 1) () in
  SM.create ?vmstat ~device:dev ~seed:9 ()

(* swap_out_slot on a fault-free device always yields a slot. *)
let out_exn m ~now ~klass ~page_key =
  let slot = SM.swap_out_slot m ~now ~klass ~page_key in
  if slot < 0 then Alcotest.fail "swap_out_slot failed on a fault-free device";
  slot

let test_out_in_release () =
  let vm = V.create () in
  let m = make ~vmstat:vm () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:5 in
  Alcotest.(check bool) "write completion in future" true
    (SM.last_finish_ns m > 0);
  Alcotest.(check bool) "no retries needed" true
    (SM.last_io_retries m = 0 && not (SM.last_failed m));
  Alcotest.(check bool) "slot in use" true (SM.slot_in_use m slot);
  Alcotest.(check int) "used" 1 (SM.used_slots m);
  (* swap_in_slot keeps the slot (swap cache) *)
  SM.swap_in_slot m ~now:100 ~slot;
  Alcotest.(check bool) "read succeeded" false (SM.last_failed m);
  Alcotest.(check bool) "read completes after submission" true
    (SM.last_finish_ns m > 100);
  Alcotest.(check bool) "still in use" true (SM.slot_in_use m slot);
  Alcotest.(check int) "ins" 1 (V.get vm V.pswpin);
  Alcotest.(check int) "outs" 1 (V.get vm V.pswpout);
  SM.release m ~slot;
  Alcotest.(check bool) "released" false (SM.slot_in_use m slot);
  Alcotest.(check int) "used back to zero" 0 (SM.used_slots m)

let test_slot_reuse () =
  let m = make () in
  let s1 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:1 in
  SM.release m ~slot:s1;
  let s2 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2 in
  Alcotest.(check int) "freed slot reused" s1 s2

let test_bad_slot_ops () =
  let m = make () in
  Alcotest.check_raises "swap_in bad slot"
    (Invalid_argument "Swap_manager.swap_in_slot: slot not in use") (fun () ->
      SM.swap_in_slot m ~now:0 ~slot:3);
  Alcotest.check_raises "release bad slot"
    (Invalid_argument "Swap_manager.release: slot not in use") (fun () ->
      SM.release m ~slot:3)

let test_double_release () =
  let m = make () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:1 in
  SM.release m ~slot;
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Swap_manager.release: slot not in use") (fun () ->
      SM.release m ~slot)

let test_peak_tracking () =
  let m = make () in
  let slots =
    List.init 5 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Kv_item ~page_key:i)
  in
  List.iter (fun slot -> SM.release m ~slot) slots;
  Alcotest.(check int) "peak" 5 (SM.peak_slots m);
  Alcotest.(check int) "now zero" 0 (SM.used_slots m)

let test_compressed_accounting () =
  let m = make () in
  let slot = out_exn m ~now:0 ~klass:Swapdev.Compress.Columnar ~page_key:7 in
  let bytes = SM.compressed_bytes m in
  Alcotest.(check bool) "positive and under a page" true (bytes > 0.0 && bytes < 4096.0);
  SM.release m ~slot;
  Alcotest.(check (float 1e-6)) "empty pool" 0.0 (SM.compressed_bytes m)

let test_many_slots_grow () =
  let vm = V.create () in
  let m = make ~vmstat:vm () in
  for i = 0 to 4999 do
    ignore
      (SM.swap_out_slot m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  done;
  Alcotest.(check int) "all live" 5000 (SM.used_slots m);
  Alcotest.(check int) "outs counted" 5000 (V.get vm V.pswpout)

(* The slot array starts at 1024 entries; crossing the boundary must not
   lose or corrupt accounting for slots on either side. *)
let test_grow_boundary () =
  let m = make () in
  let slots =
    Array.init 1025 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  in
  Alcotest.(check int) "1025 live across the boundary" 1025 (SM.used_slots m);
  Alcotest.(check bool) "slot 1023 live" true (SM.slot_in_use m slots.(1023));
  Alcotest.(check bool) "slot 1024 live" true (SM.slot_in_use m slots.(1024));
  SM.release m ~slot:slots.(1023);
  SM.release m ~slot:slots.(1024);
  Alcotest.(check bool) "1023 released" false (SM.slot_in_use m slots.(1023));
  Alcotest.(check bool) "1024 released" false (SM.slot_in_use m slots.(1024));
  Alcotest.(check int) "used tracks releases" 1023 (SM.used_slots m);
  (* both freed slots come back before the array grows again *)
  let s1 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2000 in
  let s2 = out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:2001 in
  Alcotest.(check bool) "freed boundary slots reused" true
    (List.sort compare [ s1; s2 ] = List.sort compare [ slots.(1023); slots.(1024) ])

(* More than 1024 releases in a row: the free slots must come back
   newest first, every one of them, before a fresh slot is handed out. *)
let test_many_releases () =
  let m = make () in
  let slots =
    List.init 3000 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  in
  List.iter (fun slot -> SM.release m ~slot) slots;
  let again =
    List.init 3001 (fun i ->
        out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i)
  in
  Alcotest.(check (list int)) "LIFO reuse, then a fresh slot"
    (List.rev slots @ [ 3000 ]) again

let prop_used_never_negative =
  QCheck.Test.make ~name:"slot accounting stays consistent" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let m = make () in
      let live = ref [] in
      List.iter
        (fun out ->
          if out then
            live :=
              out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:0
              :: !live
          else
            match !live with
            | slot :: rest ->
              SM.release m ~slot;
              live := rest
            | [] -> ())
        ops;
      SM.used_slots m = List.length !live)

(* Model: slots come from a LIFO free list, then from a bump counter.
   Each op swaps a page out (k > 0, so sequences drift past the slot
   array's first 1024 entries) or releases the [i mod live]th live slot;
   the manager must hand out exactly the model's slot numbers. *)
let prop_slots_match_model =
  QCheck.Test.make ~name:"slot numbers match a LIFO free-list model"
    ~count:30
    QCheck.(list_of_size Gen.(0 -- 3000) (pair (int_bound 3) small_nat))
    (fun ops ->
      let m = make () in
      let live = ref [] and free = ref [] and next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (k, i) ->
          if k > 0 || !live = [] then begin
            let expected =
              match !free with
              | s :: rest ->
                free := rest;
                s
              | [] ->
                incr next;
                !next - 1
            in
            let slot =
              out_exn m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:i
            in
            if slot <> expected then ok := false;
            live := slot :: !live
          end
          else begin
            let slot = List.nth !live (i mod List.length !live) in
            SM.release m ~slot;
            live := List.filter (( <> ) slot) !live;
            free := slot :: !free
          end)
        ops;
      !ok
      && SM.used_slots m = List.length !live
      && List.for_all (SM.slot_in_use m) !live
      && not (List.exists (SM.slot_in_use m) !free))

let () =
  Alcotest.run "swap_manager"
    [
      ( "unit",
        [
          Alcotest.test_case "out/in/release" `Quick test_out_in_release;
          Alcotest.test_case "slot reuse" `Quick test_slot_reuse;
          Alcotest.test_case "bad slot ops" `Quick test_bad_slot_ops;
          Alcotest.test_case "double release" `Quick test_double_release;
          Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
          Alcotest.test_case "compressed accounting" `Quick test_compressed_accounting;
          Alcotest.test_case "many slots" `Quick test_many_slots_grow;
          Alcotest.test_case "grow at 1024 boundary" `Quick test_grow_boundary;
          Alcotest.test_case "3000 releases" `Quick test_many_releases;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_used_never_negative;
          QCheck_alcotest.to_alcotest prop_slots_match_model;
        ] );
    ]
