module S = Workload.Script
module C = Workload.Chunk
module T = Workload.Trace

let test_script_replay () =
  let steps =
    [|
      [| C.Chunk (C.chunk (C.Range { start = 1; len = 1 })); C.Barrier |];
      [| C.Barrier; C.Chunk (C.chunk (C.Range { start = 2; len = 1 })) |];
    |]
  in
  let s = S.create steps in
  Alcotest.(check int) "threads" 2 (S.threads s);
  Alcotest.(check int) "remaining" 2 (S.remaining s ~tid:0);
  (match S.next s ~tid:0 with
  | C.Chunk c -> Alcotest.(check int) "first step" 1 (C.page_count c.C.pages)
  | _ -> Alcotest.fail "expected chunk");
  Alcotest.(check bool) "then barrier" true (S.next s ~tid:0 = C.Barrier);
  Alcotest.(check bool) "then finished" true (S.next s ~tid:0 = C.Finished);
  Alcotest.(check bool) "finished stays finished" true (S.next s ~tid:0 = C.Finished);
  Alcotest.(check int) "thread 1 untouched" 2 (S.remaining s ~tid:1)

let test_script_bad_tid () =
  let s = S.create [| [||] |] in
  Alcotest.check_raises "bad tid" (Invalid_argument "Script.next: bad thread id")
    (fun () -> ignore (S.next s ~tid:1))

let test_chunk_helpers () =
  let r = C.Range { start = 10; len = 4 } in
  Alcotest.(check int) "range count" 4 (C.page_count r);
  let acc = ref [] in
  C.iter_pages (fun p -> acc := p :: !acc) r;
  Alcotest.(check (list int)) "range expansion" [ 13; 12; 11; 10 ] !acc;
  Alcotest.(check (list int)) "page_at" [ 10; 11; 12; 13 ]
    (List.init 4 (C.page_at r));
  Alcotest.(check int) "one-page range" 1
    (C.page_count (C.Range { start = 5; len = 1 }));
  Alcotest.(check int) "pages count" 3 (C.page_count (C.Pages [| 1; 2; 3 |]));
  Alcotest.(check int) "pages page_at" 2 (C.page_at (C.Pages [| 1; 2; 3 |]) 1)

let test_chunk_defaults () =
  let c = C.chunk (C.Range { start = 0; len = 1 }) in
  Alcotest.(check bool) "read by default" false c.C.write;
  Alcotest.(check int) "not a request" (-1) c.C.latency_class;
  Alcotest.(check int) "no read prefix" 0 c.C.read_prefix

let test_trace_of_page_lists () =
  let w = T.of_page_lists ~footprint:100 [ [| 1; 2 |]; [| 3 |] ] in
  Alcotest.(check int) "one thread" 1 (T.threads w);
  Alcotest.(check int) "footprint" 100 (T.footprint_pages w);
  (match T.next w ~tid:0 with
  | C.Chunk c -> Alcotest.(check int) "first chunk" 2 (C.page_count c.C.pages)
  | _ -> Alcotest.fail "expected chunk");
  (match T.next w ~tid:0 with
  | C.Chunk c -> Alcotest.(check int) "second chunk" 1 (C.page_count c.C.pages)
  | _ -> Alcotest.fail "expected chunk");
  Alcotest.(check bool) "finished" true (T.next w ~tid:0 = C.Finished)

let test_trace_custom_config () =
  let w =
    T.create
      {
        T.steps = [| [| C.Barrier |]; [| C.Barrier |] |];
        footprint = 10;
        klass = (fun _ -> Swapdev.Compress.Random);
        file_backed_pages = (fun p -> p = 3);
      }
  in
  Alcotest.(check int) "threads" 2 (T.threads w);
  Alcotest.(check bool) "klass" true (T.page_klass w 0 = Swapdev.Compress.Random);
  Alcotest.(check bool) "file_backed" true (T.file_backed w 3);
  Alcotest.(check bool) "not file_backed" false (T.file_backed w 4)

let test_packed_interface () =
  let w = T.of_page_lists ~footprint:10 [ [| 1 |] ] in
  let packed = C.Packed ((module T), w) in
  Alcotest.(check string) "name" "trace" (C.packed_name packed);
  Alcotest.(check int) "threads" 1 (C.packed_threads packed);
  Alcotest.(check int) "footprint" 10 (C.packed_footprint packed)

let () =
  Alcotest.run "script_trace"
    [
      ( "unit",
        [
          Alcotest.test_case "script replay" `Quick test_script_replay;
          Alcotest.test_case "script bad tid" `Quick test_script_bad_tid;
          Alcotest.test_case "chunk helpers" `Quick test_chunk_helpers;
          Alcotest.test_case "chunk defaults" `Quick test_chunk_defaults;
          Alcotest.test_case "trace of page lists" `Quick test_trace_of_page_lists;
          Alcotest.test_case "trace custom config" `Quick test_trace_custom_config;
          Alcotest.test_case "packed interface" `Quick test_packed_interface;
        ] );
    ]
