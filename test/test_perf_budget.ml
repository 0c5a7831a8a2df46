(* Allocation budgets for the fault/reclaim hot path and the request
   path (tier-1).

   Four groups assert minor-heap words under a stated ceiling, measured
   via Gc.minor_words, and two bound retained words:

   - allocs-per-fault: a dense, deterministic fault burst under each
     builtin policy, per (major + minor) fault, around Machine.run
     exactly like bench/main.ml's engine harness.  The engine's hot path
     (Machine.handle_fault, Swap_manager, Event_queue, the flattened
     policy scan loops) allocates nothing per fault in steady state;
     what remains is workload chunk generation and per-trial setup,
     amortized across the burst.  These ceilings carry ~3x headroom, so
     the test is a regression tripwire, not a vice — if it fires,
     something reintroduced per-fault allocation (a closure, an option,
     a list) on the hot path.
   - allocs-per-draw: words per call of the RNG and Zipf draws every
     request makes.  Counts are deterministic; ceilings are exact.
   - allocs-per-workload: one --fast YCSB-A trial (per request, ceiling
     ~1.4x) and one --fast TPC-H trial (per fault, ~1.3x) under Clock, and one
     --fast TPC-H trial under MG-LRU, whose ceiling (~1.25x) is below
     what the boxed refault map it replaced cost (39.4 words/fault).
   - retained-words: heap words a --fast PageRank workload and a --fast
     --scale 4 TPC-H workload keep reachable (Obj.reachable_words), so a
     plan cache that pins more per seed than the step streams read, or
     a TPC-H workload that draws its whole script up front, fails here;
     and what the runner's store keeps of one --fast YCSB-A trial, so a
     store that keeps one int per request again fails here.
   - allocs-per-build: words of one cold --fast PageRank build (graph,
     neighbour draws, block plans), ceiling ~1.2x, so per-vertex
     allocation in the plan build fails here; and of a build with many
     small blocks, where a plan build whose scratch grows with blocks x
     rank pages fails.
   - state-words: heap words per frame (frame table, allocator, MG-LRU
     lists) and per page (the machine's page state), exact ceilings, so
     a new per-frame or per-page array fails here.

   All numbers are for the dev profile `dune runtest` builds, whose
   [-opaque] stops cross-module inlining; a release build allocates
   less.  PERF_BUDGET_VERBOSE=1 with --verbose prints every measurement. *)

let check_ceiling ~unit name words ceiling =
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "%-12s %10.5f words/%s (budget %g)\n%!" name words unit ceiling;
  if words > ceiling then
    Alcotest.failf "%s: %.2f words/%s (budget %g)" name words unit ceiling

let burst_pages = 4096
let burst_passes = 3

let words_per_fault policy =
  let w =
    Workload.Trace.of_page_lists ~footprint:burst_pages
      (List.init burst_passes (fun _ -> Array.init burst_pages (fun i -> i)))
  in
  let cfg =
    {
      (Repro_core.Machine.default_config ~capacity_frames:(burst_pages / 2)
         ~seed:42)
      with
      Repro_core.Machine.kthread_jitter_ns = 0;
    }
  in
  let mw0 = Gc.minor_words () in
  let r =
    Repro_core.Machine.run cfg
      ~policy:(Policy.Registry.create policy)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  let mw1 = Gc.minor_words () in
  let faults =
    max 1 (r.Repro_core.Machine.major_faults + r.Repro_core.Machine.minor_faults)
  in
  (* Sanity: the burst must actually thrash (readahead converts most
     re-faults into minor faults, so the floor is on the total). *)
  Alcotest.(check bool)
    "burst produced major faults" true
    (r.Repro_core.Machine.major_faults > 0 && faults > burst_pages);
  if Sys.getenv_opt "PERF_BUDGET_VERBOSE" <> None then
    Printf.eprintf "%-12s major %6d minor %6d\n%!"
      (Policy.Registry.name policy)
      r.Repro_core.Machine.major_faults r.Repro_core.Machine.minor_faults;
  (mw1 -. mw0) /. float_of_int faults

(* The flattened builtins measure ~22 words/fault on this burst (nearly
   all of it amortized machine/workload setup — the scan loops proper
   are allocation-free); the MG-LRU variants add the aging walk and one
   refault-token array (~23.6; ~37 with the boxed refault map they had
   before); random samples candidate sets (~40).  The SDK guests (s3-fifo,
   sieve, perceptron) funnel through the Guest_host trampoline whose V1
   hook API returns eviction batches as lists by design, so they get a
   wider — but still bounded — budget (113.5-118.5 measured).  Every
   ceiling is ~3x the measured number. *)
let budgets =
  [
    (Policy.Registry.Clock, 70.);
    (Policy.Registry.Fifo, 70.);
    (Policy.Registry.Lru_exact, 70.);
    (Policy.Registry.Random, 120.);
    (Policy.Registry.Mglru_default, 70.);
    (Policy.Registry.Gen14, 70.);
    (Policy.Registry.Scan_all, 70.);
    (Policy.Registry.Scan_none, 70.);
    (Policy.Registry.S3_fifo, 360.);
    (Policy.Registry.Sieve, 360.);
    (Policy.Registry.Perceptron, 360.);
  ]

(* Minor words per call over 100k calls.  [Sys.opaque_identity] keeps
   each result a real value, so a boxed return is counted: an int64 is
   3 words, a float 2, a generator (32 bytes of state) 6.
   [Zipf.sample] pays one boxed cross-module [Rng.float] return per
   candidate (~1.003 candidates per sample). *)
let calls = 100_000

let words_per_call f =
  let mw0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. mw0) /. float_of_int calls

let draw_cases =
  let rng = Engine.Rng.create 42 in
  let zipf = Workload.Zipf.create ~n:28_000 ~exponent:0.99 in
  let pagerank_zipf = Workload.Zipf.create ~n:393_216 ~exponent:1.2 in
  [
    ("Rng.bits64", 3., fun () -> words_per_call (fun () -> Engine.Rng.bits64 rng));
    ("Rng.int", 0., fun () -> words_per_call (fun () -> Engine.Rng.int rng 1_000_003));
    ("Rng.float", 2., fun () -> words_per_call (fun () -> Engine.Rng.float rng 1.0));
    ("Rng.create", 6., fun () -> words_per_call (fun () -> Engine.Rng.create 7));
    ("Zipf.sample", 3., fun () -> words_per_call (fun () -> Workload.Zipf.sample zipf rng));
    ( "Zipf.sample e1.2",
      3.,
      fun () -> words_per_call (fun () -> Workload.Zipf.sample pagerank_zipf rng) );
  ]

(* Real workloads: one --fast trial at half capacity on SSD, the cell
   shape perfbench's layer harness times.  Words are counted around
   Machine.run, so they include the workload's own step generation. *)
module Runner = Repro_core.Runner
module Machine = Repro_core.Machine

let trial_words ?(policy = Policy.Registry.Clock) kind =
  let ctx =
    Runner.make_ctx
      ~profile:
        { Runner.default_profile with Runner.fast = true; trials = 1; ycsb_trials = 1 }
      ()
  in
  let workload = Runner.make_workload ctx kind ~trial:0 in
  let cfg =
    Machine.default_config
      ~capacity_frames:
        (Runner.capacity_for ~footprint:(Workload.Chunk.packed_footprint workload)
           ~ratio:0.5)
      ~seed:1000
  in
  let mw0 = Gc.minor_words () in
  let r = Machine.run cfg ~policy:(Policy.Registry.create policy) ~workload in
  (r, Gc.minor_words () -. mw0)

let per_request (r, words) =
  let requests =
    Array.length r.Machine.read_latencies + Array.length r.Machine.write_latencies
  in
  Alcotest.(check bool) "trial served requests" true (requests > 0);
  words /. float_of_int requests

let per_fault (r, words) =
  let faults = r.Machine.major_faults + r.Machine.minor_faults in
  Alcotest.(check bool) "trial faulted" true (faults > 0);
  words /. float_of_int faults

(* Measured: ~7.0 words/request (8.4 while load batches were sorted
   with Array.sort), ~22.3 words/fault under Clock and ~26.5 under
   MG-LRU.  TPC-H draws its steps as the threads reach them, so these
   include its step generation (~3.9 and ~4.3 words/fault), which ran
   before the counted window while the whole script was built up front.
   The request ceiling is the ROADMAP's 10-word target; boxing each
   request's latency into a polymorphic buffer cost 10.4. *)
let workload_cases =
  [
    ( "ycsb-a clock",
      "request",
      10.,
      fun () -> per_request (trial_words (Runner.Ycsb Workload.Ycsb.A)) );
    ("tpch clock", "fault", 30., fun () -> per_fault (trial_words Runner.Tpch));
    ( "tpch mglru",
      "fault",
      33.,
      fun () -> per_fault (trial_words ~policy:Policy.Registry.Mglru_default Runner.Tpch) );
  ]

(* Retained words: what one --fast PageRank workload keeps reachable,
   its cached block plan included.  Measured ~123 K, nearly all of it the
   trial's own step script; steps built afresh for every iteration (not
   shared between iterations of the same parity) measured 287 K, and a
   plan that also kept the seed's graph (three int arrays of n) 1.47 M.
   Counts are deterministic. *)
let retained_pagerank_words () =
  let ctx =
    Runner.make_ctx
      ~profile:{ Runner.default_profile with Runner.fast = true; trials = 1 }
      ()
  in
  let workload = Runner.make_workload ctx Runner.Pagerank ~trial:0 in
  float_of_int (Obj.reachable_words (Obj.repr workload))

(* Retained words of one --fast --scale 4 TPC-H workload as the runner
   builds it: the query plans, the probe Zipf tables and one generator
   and empty step buffer per thread.  Measured ~16.9 K; drawing every
   thread's whole script up front kept 113.6 K. *)
let retained_tpch_words () =
  let ctx =
    Runner.make_ctx
      ~profile:{ Runner.default_profile with Runner.fast = true; trials = 1; scale = 4 }
      ()
  in
  let workload = Runner.make_workload ctx Runner.Tpch ~trial:0 in
  float_of_int (Obj.reachable_words (Obj.repr workload))

(* Retained words of one --fast YCSB-A trial's result as the runner's
   store keeps it, read back through [Runner.run_exp].  Measured
   ~15.1 K, nearly all of it the two latency classes as runs; one int
   per request, as the store kept before latencies were stored as runs,
   kept 220.1 K. *)
let retained_ycsb_result_words () =
  let ctx =
    Runner.make_ctx
      ~profile:{ Runner.default_profile with Runner.fast = true; ycsb_trials = 1 }
      ()
  in
  let r =
    Runner.run_exp ctx
      {
        Runner.workload = Runner.Ycsb Workload.Ycsb.A;
        policy = Policy.Registry.Clock;
        ratio = 0.5;
        swap = Runner.Ssd;
        trial = 0;
      }
  in
  float_of_int (Obj.reachable_words (Obj.repr r))

let retained_cases =
  [
    ("pagerank", "workload", 160_000., retained_pagerank_words);
    ("tpch --scale 4", "workload", 20_000., retained_tpch_words);
    ("ycsb-a stored result", "trial", 30_000., retained_ycsb_result_words);
  ]

(* Cold build: minor words of one --fast PageRank [Runner.make_workload]
   on a seed no other case builds, so the plan cache misses and the
   graph and block plans are built.  Measured ~2.47 M, nearly all of it
   the 1.22 M boxed [Rng.float] returns of the neighbour draws; a fresh
   generator (6 words) and callback closure per vertex, as the build
   had before, add ~4.2 M more. *)
let cold_pagerank_words () =
  let ctx =
    Runner.make_ctx
      ~profile:{ Runner.default_profile with Runner.fast = true; trials = 1 }
      ()
  in
  let mw0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Runner.make_workload ctx Runner.Pagerank ~trial:1));
  Gc.minor_words () -. mw0

(* A cold build of a 131 072-vertex graph in 4-vertex blocks: 32 768
   blocks over 257 rank pages.  Counted with Gc.counters, so arrays
   allocated straight into the major heap count too.  Measured ~6.82 M
   for the graph, the neighbour draws, the block plans and the steps; a
   fresh rank-page array per block to find the pages it gathers cost
   15.5 M, and sorting each block's pages with [Array.sort] (an
   exception per sift) ~0.9 M more. *)
let small_block_words () =
  let config =
    {
      Workload.Pagerank.default_config with
      Workload.Pagerank.graph =
        { Workload.Pagerank.default_config.Workload.Pagerank.graph with Workload.Graph.n = 131_072 };
      block_vertices = 4;
      iterations = 1;
    }
  in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (Workload.Pagerank.create ~config ~seed:3 ()));
  words () -. w0

let build_cases =
  [
    ("pagerank cold", "build", 3_100_000., cold_pagerank_words);
    ("pagerank small blocks", "build", 8_200_000., small_block_words);
  ]

(* State words: heap words per frame or per page that the fault and
   reclaim path keeps, measured as the growth of Obj.reachable_words
   from [n] to [2n] units so fixed parts cancel.  Counts are exact, and
   so are the ceilings.  Before frame and page state were packed, a
   frame cost 10 words under MG-LRU (Frame_table's asid and vpn arrays
   2, Phys_mem's stack and two bool arrays 3, the generation lists'
   next/prev/owner 3 and MG-LRU's generation and tier arrays 2) and a
   page 5 (the machine's retained-slot, faulted-by and owner-tid arrays
   and two bool arrays).  Now a frame is 1 + 1 + 1/8 + 4 = 6.125 words:
   one owner-vpn word, the free stack plus one flag byte, and one
   4-word list node whose tag holds generation and tier.  A page is one
   Page_state word, its five fields packed (4 words while each field had
   a word of its own). *)
let state_units = 8192

let words_per_unit make =
  let words k = Obj.reachable_words (Obj.repr (make k)) in
  float_of_int (words (2 * state_units) - words state_units)
  /. float_of_int state_units

let frame_table_words () = words_per_unit (fun frames -> Mem.Frame_table.create ~frames)

let phys_mem_words () = words_per_unit (fun frames -> Mem.Phys_mem.create ~frames ())

(* MG-LRU alone: the env's frame table is one frame whatever
   [total_frames] says, so only the policy's own per-frame state grows. *)
let mglru_words () =
  let pt = Mem.Page_table.create ~pages:1 () in
  words_per_unit (fun total_frames ->
      Policy.Mglru.create
        {
          Policy.Policy_intf.costs = Mem.Costs.default;
          frames = Mem.Frame_table.create ~frames:1;
          pt;
          rng = Engine.Rng.create 1;
          now = (fun () -> 0);
          reclaim_page = (fun ~pfn:_ -> ());
          evictable = (fun ~pfn:_ ~force:_ -> true);
          free_count = (fun () -> 0);
          total_frames;
          low_watermark = 0;
          high_watermark = 0;
          obs = Obs.disabled;
          prof = Obs.Prof.disabled;
          vmstat = Obs.Vmstat.create ();
        })

let page_state_words () = words_per_unit (fun pages -> Repro_core.Page_state.create ~pages)

let state_cases =
  [
    ("Frame_table", "frame", 1., frame_table_words);
    ("Phys_mem", "frame", 1.125, phys_mem_words);
    ("Mglru lists", "frame", 4., mglru_words);
    ( "mglru frame side",
      "frame",
      6.125,
      fun () -> frame_table_words () +. phys_mem_words () +. mglru_words () );
    ("machine pages", "page", 1., page_state_words);
  ]

let () =
  let case (name, unit, ceiling, measure) =
    Alcotest.test_case name `Quick (fun () ->
        check_ceiling ~unit name (measure ()) ceiling)
  in
  Alcotest.run "perf_budget"
    [
      ( "allocs-per-fault",
        List.map
          (fun (spec, ceiling) ->
            case (Policy.Registry.name spec, "fault", ceiling, fun () -> words_per_fault spec))
          budgets );
      ( "allocs-per-draw",
        List.map (fun (name, ceiling, f) -> case (name, "call", ceiling, f)) draw_cases );
      ("allocs-per-workload", List.map case workload_cases);
      ("retained-words", List.map case retained_cases);
      ("allocs-per-build", List.map case build_cases);
      ("state-words", List.map case state_cases);
    ]
