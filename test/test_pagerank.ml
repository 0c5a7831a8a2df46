module P = Workload.Pagerank
module C = Workload.Chunk

let small_config =
  {
    P.default_config with
    P.graph =
      { Workload.Graph.n = 8_192; avg_degree = 4; deg_exponent = 0.9; target_exponent = 1.2 };
    threads = 4;
    iterations = 3;
    block_vertices = 1_024;
  }

let make seed = P.create ~config:small_config ~seed ()

let test_geometry () =
  let w = make 1 in
  Alcotest.(check int) "threads" 4 (P.threads w);
  Alcotest.(check bool) "footprint positive" true (P.footprint_pages w > 0);
  Alcotest.(check bool) "rank pages sized" true (P.rank_pages w >= 16);
  (* [offsets | neighbours | rank A | rank B], each rounded up a page:
     8 B per offset and rank, 4 B per edge, 4 KB pages. *)
  let g = Workload.Graph.generate ~config:small_config.P.graph ~seed:1 () in
  Alcotest.(check int) "footprint" ((((8192 + 1) * 8 / 4096) + 1)
     + ((Workload.Graph.m g * 4 / 4096) + 1)
     + (2 * P.rank_pages w))
    (P.footprint_pages w)

let drain w tid =
  let chunks = ref 0 and barriers = ref 0 and writes = ref 0 in
  let rec go () =
    match P.next w ~tid with
    | C.Finished -> ()
    | C.Barrier ->
      incr barriers;
      go ()
    | C.Chunk c ->
      incr chunks;
      if c.C.write then incr writes;
      go ()
  in
  go ();
  (!chunks, !barriers, !writes)

let test_iteration_structure () =
  let w = make 2 in
  let _chunks, barriers, writes = drain w 0 in
  Alcotest.(check int) "one barrier per iteration" 3 barriers;
  Alcotest.(check bool) "each block writes its dst ranks" true (writes > 0)

let test_pages_in_footprint () =
  let w = make 3 in
  let fp = P.footprint_pages w in
  for tid = 0 to 3 do
    let rec go () =
      match P.next w ~tid with
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

(* Every thread's full step stream (pages, cpu_ns, write flags and
   barriers) for two seeds, hashed.  The literal was recorded from the
   plan that still cached the whole graph; a plan change that moves any
   step fails here. *)
let stream_digest seeds =
  let b = Buffer.create 4096 in
  List.iter
    (fun seed ->
      let w = make seed in
      Buffer.add_string b (Printf.sprintf "seed %d fp %d\n" seed (P.footprint_pages w));
      for tid = 0 to P.threads w - 1 do
        let rec go () =
          match P.next w ~tid with
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
      done)
    seeds;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_digest () =
  Alcotest.(check string) "step streams of seeds 11 and 12" "d9815ccfa834e0b465681f57ae555bf0"
    (stream_digest [ 11; 12 ])

(* The block plan of the trial-0 workload the runner builds at [--fast
   --scale 4], hashed.  Iteration 0 visits every block once, reading rank
   array A, so each thread's steps up to its first barrier are its blocks'
   CSR range, gather (offset pages, then rank pages) and destination
   range.  A plan build that moves any block's pages fails here. *)
let plan_digest () =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:
        { Repro_core.Runner.default_profile with fast = true; trials = 1; scale = 4 }
      ()
  in
  let (C.Packed ((module W), w)) =
    Repro_core.Runner.make_workload ctx Repro_core.Runner.Pagerank ~trial:0
  in
  let b = Buffer.create (1 lsl 20) in
  Printf.bprintf b "fp %d\n" (W.footprint_pages w);
  for tid = 0 to W.threads w - 1 do
    let rec go () =
      match W.next w ~tid with
      | C.Finished | C.Barrier -> Buffer.add_string b "B\n"
      | C.Chunk c ->
        Printf.bprintf b "C %b %d:" c.C.write c.C.cpu_ns;
        (match c.C.pages with
        | C.Range { start; len } -> Printf.bprintf b " %d+%d" start len
        | C.Pages a -> Array.iter (Printf.bprintf b " %d") a);
        Buffer.add_char b '\n';
        go ()
    in
    go ()
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_scaled_plan () =
  Alcotest.(check string) "--fast --scale 4 plan" "1ebeead9b599b3de30352e642b0eee4c" (plan_digest ())

let test_plan_cache_reused () =
  (* One iteration over a wider graph, so the block plan is a large share
     of a workload and the script (one copy per [create]) a small one. *)
  let config =
    {
      small_config with
      P.graph = { small_config.P.graph with Workload.Graph.n = 65_536 };
      iterations = 1;
    }
  in
  let make seed = P.create ~config ~seed () in
  let w1 = make 5 and w2 = make 5 and w3 = make 6 in
  let words v = Obj.reachable_words (Obj.repr v) in
  let one = words w1 in
  (* Words a second workload adds to the first: its own script only when
     the seed's plan is shared, a whole workload when it is not. *)
  let same_seed = words (w1, w2) - one and other_seed = words (w1, w3) - one in
  Alcotest.(check bool) "same seed shares its plan" true (4 * same_seed < 3 * one);
  Alcotest.(check bool) "other seed shares none" true (10 * other_seed > 9 * one)

let test_work_imbalance_varies_by_seed () =
  (* Thread edge loads vary across seeds via the degree permutation. *)
  let imbalance seed =
    let w = make seed in
    let cpu = Array.make 4 0 in
    for tid = 0 to 3 do
      let rec go () =
        match P.next w ~tid with
        | C.Finished -> ()
        | C.Barrier -> go ()
        | C.Chunk c ->
          cpu.(tid) <- cpu.(tid) + c.C.cpu_ns;
          go ()
      in
      go ()
    done;
    let mx = Array.fold_left max 0 cpu and mn = Array.fold_left min max_int cpu in
    float_of_int mx /. float_of_int (max 1 mn)
  in
  let a = imbalance 10 and b = imbalance 20 in
  Alcotest.(check bool) "some imbalance exists" true (a > 1.01 || b > 1.01);
  Alcotest.(check bool) "imbalance differs across seeds" true
    (Float.abs (a -. b) > 1e-6)

let test_rank_region_alternates () =
  (* Iterations alternate src/dst rank regions: collect write ranges per
     iteration and check they alternate between two bases. *)
  let w = make 7 in
  let bases = ref [] in
  let rec go iter_writes =
    match P.next w ~tid:0 with
    | C.Finished -> ()
    | C.Barrier ->
      (match iter_writes with
      | first :: _ -> bases := first :: !bases
      | [] -> ());
      go []
    | C.Chunk c ->
      (match c.C.pages with
      | C.Range { start; _ } when c.C.write -> go (start :: iter_writes)
      | _ -> go iter_writes)
  in
  go [];
  match List.rev !bases with
  | a :: b :: _ -> Alcotest.(check bool) "dst alternates" true (a <> b)
  | _ -> Alcotest.fail "expected at least two iterations"

let () =
  Alcotest.run "pagerank"
    [
      ( "unit",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "iteration structure" `Quick test_iteration_structure;
          Alcotest.test_case "pages in footprint" `Quick test_pages_in_footprint;
          Alcotest.test_case "plan cache" `Quick test_plan_cache_reused;
          Alcotest.test_case "imbalance varies" `Quick test_work_imbalance_varies_by_seed;
          Alcotest.test_case "rank regions alternate" `Quick test_rank_region_alternates;
          Alcotest.test_case "step stream digest" `Quick test_stream_digest;
        ] );
      ("pinned", [ Alcotest.test_case "scaled plan" `Quick test_pinned_scaled_plan ]);
    ]
