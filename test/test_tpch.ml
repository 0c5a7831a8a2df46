module T = Workload.Tpch
module C = Workload.Chunk

let small_config =
  {
    T.default_config with
    T.table_pages = 800;
    shuffle_pages = 500;
    hash_pages = 200;
    dimension_pages = 150;
    threads = 4;
    queries = 3;
  }

let make seed = T.create ~config:small_config ~rng:(Engine.Rng.create seed) ()

let test_geometry () =
  let w = make 1 in
  Alcotest.(check int) "threads" 4 (T.threads w);
  Alcotest.(check int) "footprint" 1500 (T.footprint_pages w);
  Alcotest.(check int) "shuffle base" 800 (T.shuffle_base w);
  Alcotest.(check int) "hash base" 1300 (T.hash_base w)

let count_steps w tid =
  let chunks = ref 0 and barriers = ref 0 in
  let rec go () =
    match T.next w ~tid with
    | C.Finished -> ()
    | C.Barrier ->
      incr barriers;
      go ()
    | C.Chunk _ ->
      incr chunks;
      go ()
  in
  go ();
  (!chunks, !barriers)

let test_stage_barriers () =
  let w = make 2 in
  let chunks0, barriers0 = count_steps w 0 in
  let chunks1, barriers1 = count_steps w 1 in
  (* All threads see the same barrier count (stages are global). *)
  Alcotest.(check int) "same barrier count" barriers0 barriers1;
  Alcotest.(check bool) "2-4 stages per query" true
    (barriers0 >= 2 * small_config.T.queries && barriers0 <= 4 * small_config.T.queries);
  Alcotest.(check bool) "work is balanced" true
    (abs (chunks0 - chunks1) * 10 < max chunks0 chunks1 + 10)

let test_pages_in_footprint () =
  let w = make 3 in
  let fp = T.footprint_pages w in
  for tid = 0 to 3 do
    let rec go () =
      match T.next w ~tid with
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

let test_touches_all_regions () =
  let w = make 4 in
  let table = ref 0 and shuffle = ref 0 and hash = ref 0 in
  let rec go () =
    match T.next w ~tid:0 with
    | C.Finished -> ()
    | C.Barrier -> go ()
    | C.Chunk c ->
      C.iter_pages
        (fun p ->
          if p < T.shuffle_base w then incr table
          else if p < T.hash_base w then incr shuffle
          else incr hash)
        c.C.pages;
      go ()
  in
  go ();
  Alcotest.(check bool) "table touched" true (!table > 0);
  Alcotest.(check bool) "shuffle touched" true (!shuffle > 0);
  Alcotest.(check bool) "hash touched" true (!hash > 0)

let test_shuffle_written_then_read () =
  let w = make 5 in
  let writes = ref 0 and reads = ref 0 in
  let rec go () =
    match T.next w ~tid:1 with
    | C.Finished -> ()
    | C.Barrier -> go ()
    | C.Chunk c ->
      C.iter_pages
        (fun p ->
          if p >= T.shuffle_base w && p < T.hash_base w then
            if c.C.write then incr writes else incr reads)
        c.C.pages;
      go ()
  in
  go ();
  Alcotest.(check bool) "shuffle written" true (!writes > 0);
  Alcotest.(check bool) "shuffle re-read" true (!reads > 0)

let test_seeds_vary_plans () =
  let total seed =
    let w = make seed in
    let acc = ref 0 in
    let rec go () =
      match T.next w ~tid:0 with
      | C.Finished -> ()
      | C.Barrier -> go ()
      | C.Chunk c ->
        acc := !acc + C.page_count c.C.pages;
        go ()
    in
    go ();
    !acc
  in
  Alcotest.(check bool) "window draws differ" true (total 10 <> total 11)

let test_klass () =
  let w = make 6 in
  Alcotest.(check bool) "table is columnar" true
    (T.page_klass w 0 = Swapdev.Compress.Columnar);
  Alcotest.(check bool) "hash is numeric" true
    (T.page_klass w (T.hash_base w) = Swapdev.Compress.Numeric)

(* Every thread's complete step stream of the trial-0 TPC-H workload the
   runner builds, hashed: each chunk's page set (a range as its bounds, a
   page list page by page), write flag, read prefix, compute and latency
   class, and every barrier.  A change to how steps are drawn or stored
   that moves any step fails here. *)
let runner_stream_digest ~scale =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.default_profile with fast = true; trials = 1; scale }
      ()
  in
  let (C.Packed ((module W), w)) =
    Repro_core.Runner.make_workload ctx Repro_core.Runner.Tpch ~trial:0
  in
  let b = Buffer.create (1 lsl 16) in
  let thread_digests =
    List.init (W.threads w) (fun tid ->
        Buffer.clear b;
        let rec go () =
          match W.next w ~tid with
          | C.Finished -> Buffer.add_string b "F\n"
          | C.Barrier ->
            Buffer.add_string b "B\n";
            go ()
          | C.Chunk c ->
            Printf.bprintf b "C %b %d %d %d:" c.C.write c.C.read_prefix c.C.cpu_ns
              c.C.latency_class;
            (match c.C.pages with
            | C.Range { start; len } -> Printf.bprintf b " %d+%d" start len
            | C.Pages a -> Array.iter (Printf.bprintf b " %d") a);
            Buffer.add_char b '\n';
            go ()
        in
        go ();
        Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  Digest.to_hex (Digest.string (String.concat "," thread_digests))

let test_pinned_streams () =
  Alcotest.(check string) "--fast" "1252f2e921fce0e90a48dc01e982d8ec" (runner_stream_digest ~scale:1);
  Alcotest.(check string) "--fast --scale 4" "35e0d8653bb255bb78f8bf1116a8d7e6" (runner_stream_digest ~scale:4)

let () =
  Alcotest.run "tpch"
    [
      ( "unit",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "stage barriers" `Quick test_stage_barriers;
          Alcotest.test_case "pages in footprint" `Quick test_pages_in_footprint;
          Alcotest.test_case "touches all regions" `Quick test_touches_all_regions;
          Alcotest.test_case "shuffle reuse" `Quick test_shuffle_written_then_read;
          Alcotest.test_case "seeds vary plans" `Quick test_seeds_vary_plans;
          Alcotest.test_case "compressibility classes" `Quick test_klass;
        ] );
      ("pinned", [ Alcotest.test_case "runner step streams" `Quick test_pinned_streams ]);
    ]
