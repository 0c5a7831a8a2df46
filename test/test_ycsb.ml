module Y = Workload.Ycsb
module C = Workload.Chunk

let small_config =
  { Y.default_config with Y.items = 800; requests = 4_000; threads = 4 }

let make variant = Y.create ~config:small_config ~variant ~rng:(Engine.Rng.create 3) ()

(* Drain one thread, returning (#load chunks, #requests by class, barriers). *)
let drain w tid =
  let loads = ref 0 and reads = ref 0 and writes = ref 0 and barriers = ref 0 in
  let rec go () =
    match Y.next w ~tid with
    | C.Finished -> ()
    | C.Barrier ->
      incr barriers;
      go ()
    | C.Chunk c ->
      if c.C.latency_class = C.read_class then incr reads
      else if c.C.latency_class = C.write_class then incr writes
      else incr loads;
      go ()
  in
  go ();
  (!loads, !reads, !writes, !barriers)

let test_structure () =
  let w = make Y.A in
  Alcotest.(check int) "threads" 4 (Y.threads w);
  Alcotest.(check bool) "footprint sane" true (Y.footprint_pages w > 0);
  let loads, reads, writes, barriers = drain w 0 in
  Alcotest.(check bool) "load phase present" true (loads > 0);
  Alcotest.(check int) "one barrier after load" 1 barriers;
  Alcotest.(check int) "requests per thread" 1000 (reads + writes)

let test_update_fractions () =
  Alcotest.(check (float 1e-9)) "A" 0.5 (Y.update_fraction Y.A);
  Alcotest.(check (float 1e-9)) "B" 0.05 (Y.update_fraction Y.B);
  Alcotest.(check (float 1e-9)) "C" 0.0 (Y.update_fraction Y.C)

let test_mix_matches_variant () =
  let check variant expected tolerance =
    let w = make variant in
    let _, reads, writes, _ = drain w 1 in
    let frac = float_of_int writes /. float_of_int (reads + writes) in
    Alcotest.(check bool)
      (Printf.sprintf "%s write frac %.3f ~ %.2f" (Y.variant_name variant) frac expected)
      true
      (Float.abs (frac -. expected) < tolerance)
  in
  check Y.A 0.5 0.05;
  check Y.B 0.05 0.03;
  check Y.C 0.0 0.0001

let test_requests_touch_meta_then_item () =
  let w = make Y.C in
  (* skip load phase *)
  let rec to_requests () =
    match Y.next w ~tid:2 with
    | C.Chunk c when c.C.latency_class >= 0 -> c
    | C.Finished -> failwith "no requests"
    | _ -> to_requests ()
  in
  let c = to_requests () in
  (match c.C.pages with
  | C.Pages [| meta; item |] ->
    Alcotest.(check bool) "meta page" true (Workload.Kv_store.is_meta_page (Y.store w) meta);
    Alcotest.(check bool) "item page" true
      (not (Workload.Kv_store.is_meta_page (Y.store w) item))
  | _ -> Alcotest.fail "request should touch exactly two pages");
  Alcotest.(check int) "meta page read-only on update" 1 c.C.read_prefix

let test_zipf_skew_in_requests () =
  let w = make Y.C in
  let counts = Hashtbl.create 256 in
  let rec go n =
    if n > 0 then
      match Y.next w ~tid:3 with
      | C.Chunk c when c.C.latency_class >= 0 ->
        (match c.C.pages with
        | C.Pages pages ->
          let item_page = pages.(1) in
          Hashtbl.replace counts item_page
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts item_page))
        | _ -> ());
        go (n - 1)
      | C.Finished -> ()
      | _ -> go n
  in
  go 1000;
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  (* zipf: the hottest page gets far more than uniform share *)
  let uniform = 1000 / (small_config.Y.items / small_config.Y.items_per_page) in
  Alcotest.(check bool)
    (Printf.sprintf "hot page %d >> uniform %d" max_count uniform)
    true
    (max_count > 3 * uniform)

let test_all_pages_in_footprint () =
  let w = make Y.A in
  let fp = Y.footprint_pages w in
  for tid = 0 to 3 do
    let rec go () =
      match Y.next w ~tid with
      | C.Finished -> ()
      | C.Barrier -> go ()
      | C.Chunk c ->
        C.iter_pages
          (fun p -> if p < 0 || p >= fp then Alcotest.fail "page out of range")
          c.C.pages;
        go ()
    in
    go ()
  done

let test_load_batches_sorted_distinct () =
  (* Each load chunk touches its batch's item and metadata pages once,
     in increasing page order; together they cover the thread's slice. *)
  let w = make Y.A in
  let store = Y.store w in
  let seen = Hashtbl.create 256 in
  let rec go () =
    match Y.next w ~tid:1 with
    | C.Chunk ({ C.pages = C.Pages a; _ } as c) when c.C.latency_class < 0 ->
      Array.iteri
        (fun i p ->
          if i > 0 && a.(i - 1) >= p then Alcotest.fail "load pages not strictly increasing";
          Hashtbl.replace seen p ())
        a;
      go ()
    | C.Chunk _ -> Alcotest.fail "load phase emits explicit page lists"
    | C.Barrier | C.Finished -> ()
  in
  go ();
  let per_thread = small_config.Y.items / small_config.Y.threads in
  let expected = Hashtbl.create 256 in
  for i = per_thread to (2 * per_thread) - 1 do
    Hashtbl.replace expected (Workload.Kv_store.item_page store i) ();
    Hashtbl.replace expected (Workload.Kv_store.meta_page store ~key:i) ()
  done;
  let sorted h = List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) h []) in
  Alcotest.(check (list int)) "slice pages" (sorted expected) (sorted seen)

let test_request_pages_reused () =
  (* A request's page array is the thread's own buffer, rewritten by the
     next request: consumers read it before asking for the next step. *)
  let w = make Y.A in
  let rec request () =
    match Y.next w ~tid:0 with
    | C.Chunk ({ C.pages = C.Pages a; _ } as c) when c.C.latency_class >= 0 -> a
    | C.Finished -> failwith "no requests"
    | _ -> request ()
  in
  let a1 = request () in
  let a2 = request () in
  Alcotest.(check bool) "one array per thread" true (a1 == a2)

(* Every thread's full step stream, hashed: the --fast shape (28,000
   items, 220,000 requests) under each variant, and an odd shape whose
   load batches straddle item pages and whose slices are uneven.  The
   literals were recorded with load batches sorted by [Array.sort]. *)
let stream_digest config variant =
  let w = Y.create ~config ~variant ~rng:(Engine.Rng.create 0x5EED) () in
  let b = Buffer.create 65536 in
  for tid = 0 to Y.threads w - 1 do
    let rec go () =
      match Y.next w ~tid with
      | C.Finished -> Buffer.add_string b "F\n"
      | C.Barrier ->
        Buffer.add_string b "B\n";
        go ()
      | C.Chunk c ->
        Buffer.add_string b
          (Printf.sprintf "C %b %d %d %d:" c.C.write c.C.read_prefix c.C.cpu_ns
             c.C.latency_class);
        C.iter_pages (fun p -> Buffer.add_string b (Printf.sprintf " %d" p)) c.C.pages;
        Buffer.add_char b '\n';
        go ()
    in
    go ()
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fast_config = { Y.default_config with Y.items = 28_000; requests = 220_000 }

let odd_config =
  {
    Y.default_config with
    Y.items = 1_003;
    requests = 3_000;
    threads = 3;
    items_per_page = 3;
    load_batch = 7;
  }

let test_pinned_streams () =
  List.iter
    (fun (name, config, variant, expected) ->
      Alcotest.(check string) name expected (stream_digest config variant))
    [
      ("fast ycsb-a", fast_config, Y.A, "15755a2727d8d0ee6cf9960d5a2f01f4");
      ("fast ycsb-b", fast_config, Y.B, "4f34d715e4220d85c6d9609ca799e018");
      ("fast ycsb-c", fast_config, Y.C, "d646d7840af7190e67c2d0643ad5c2bf");
      ("odd ycsb-a", odd_config, Y.A, "d5b7abc6d39b0783a9a5dd79f0bc5d61");
    ]

let () =
  Alcotest.run "ycsb"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "update fractions" `Quick test_update_fractions;
          Alcotest.test_case "mix matches variant" `Quick test_mix_matches_variant;
          Alcotest.test_case "request pages" `Quick test_requests_touch_meta_then_item;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew_in_requests;
          Alcotest.test_case "pages in footprint" `Quick test_all_pages_in_footprint;
          Alcotest.test_case "load batches" `Quick test_load_batches_sorted_distinct;
          Alcotest.test_case "request pages reused" `Quick test_request_pages_reused;
          Alcotest.test_case "pinned step streams" `Quick test_pinned_streams;
        ] );
    ]
