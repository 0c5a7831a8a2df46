(* Benchmark harness.

   Bechamel microbenchmarks for the hot data structures (zipf sampling,
   bloom filter, generation lists in and out of cache, event queue, PTEs,
   RNG) and for step generation (YCSB load batches; a cold PageRank
   build, timed directly), one scaled MG-LRU trial (timed directly), two
   scaled builds (a cold PageRank build at --scale 4, a TPC-H build and
   step drain at --fast --scale 64: time, allocated and retained words),
   the policy-SDK hook dispatch costs (BENCH_policy_sdk.json), and the
   engine wall-clock harness (BENCH_engine.json).  The per-workload
   simulation layers are timed by perfbench/layers; the figures
   themselves are produced by `repro fig`. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Calibration micro-benchmarks for core data structures.              *)
(* ------------------------------------------------------------------ *)

let bench_zipf =
  let z = Workload.Zipf.create ~n:100_000 ~exponent:0.99 in
  let rng = Engine.Rng.create 1 in
  Test.make ~name:"zipf-sample" (Staged.stage (fun () -> Workload.Zipf.sample z rng))

(* The neighbour-endpoint shape of a --fast PageRank graph build. *)
let bench_zipf_pagerank =
  let z = Workload.Zipf.create ~n:393_216 ~exponent:1.2 in
  let rng = Engine.Rng.create 1 in
  Test.make ~name:"zipf-sample-e1.2" (Staged.stage (fun () -> Workload.Zipf.sample z rng))

(* One YCSB load chunk (a 64-item batch, --fast item shape) per run.  One
   thread over 2^26 items loads for 2^20 chunks before a rebuild. *)
let bench_ycsb_load =
  let config =
    { Workload.Ycsb.default_config with Workload.Ycsb.items = 1 lsl 26; threads = 1 }
  in
  let make () =
    Workload.Ycsb.create ~config ~variant:Workload.Ycsb.A ~rng:(Engine.Rng.create 3) ()
  in
  let w = ref (make ()) in
  Test.make ~name:"ycsb-load-batch"
    (Staged.stage (fun () ->
         match Workload.Ycsb.next !w ~tid:0 with
         | Workload.Chunk.Chunk c -> c
         | _ ->
           w := make ();
           Workload.Chunk.chunk (Workload.Chunk.Pages [||])))

let bench_bloom =
  let b = Structures.Bloom.create ~bits:(1 lsl 15) ~seed:1 () in
  let i = ref 0 in
  Test.make ~name:"bloom-add-mem"
    (Staged.stage (fun () ->
         incr i;
         Structures.Bloom.add b !i;
         Structures.Bloom.mem b (!i / 2)))

let bench_dlist =
  let d = Structures.Dlist.create ~nodes:4096 ~lists:4 in
  for node = 0 to 4095 do
    Structures.Dlist.push_head d ~list:(node mod 4) ~node
  done;
  let i = ref 0 in
  Test.make ~name:"dlist-move"
    (Staged.stage (fun () ->
         i := (!i + 1) land 4095;
         Structures.Dlist.move_head d ~list:(!i mod 4) ~node:!i))

(* Random moves over 2^20 nodes: the list nodes no longer fit in cache,
   as at a scaled run's frame counts, so each move pays for the lines it
   touches.  The node order is drawn up front, and only when the micro
   rows run. *)
let bench_dlist_1m () =
  let n = 1 lsl 20 in
  let d = Structures.Dlist.create ~nodes:n ~lists:4 in
  for node = 0 to n - 1 do
    Structures.Dlist.push_head d ~list:(node land 3) ~node
  done;
  let rng = Engine.Rng.create 5 in
  let order = Array.init n (fun _ -> Engine.Rng.int rng n) in
  let i = ref 0 in
  Test.make ~name:"dlist-move-1M"
    (Staged.stage (fun () ->
         i := (!i + 1) land (n - 1);
         Structures.Dlist.move_head d ~list:(!i land 3) ~node:order.(!i)))

let bench_event_queue =
  let q = Engine.Event_queue.create () in
  let i = ref 0 in
  Test.make ~name:"event-queue-add-pop"
    (Staged.stage (fun () ->
         incr i;
         Engine.Event_queue.add q ~time:(!i land 1023) ();
         if !i land 1 = 0 then ignore (Engine.Event_queue.pop q)))

let bench_pte =
  let pt = Mem.Page_table.create ~pages:4096 () in
  let i = ref 0 in
  Test.make ~name:"pte-touch"
    (Staged.stage (fun () ->
         i := (!i + 1) land 4095;
         let pte = Mem.Page_table.get pt !i in
         Mem.Page_table.set pt !i (Mem.Pte.set_accessed pte)))

let bench_rng =
  let rng = Engine.Rng.create 2 in
  Test.make ~name:"rng-int" (Staged.stage (fun () -> Engine.Rng.int rng 1_000_000))

(* ------------------------------------------------------------------ *)
(* Policy-SDK hook dispatch overhead.                                  *)
(*                                                                     *)
(* Wall-clock cost of the guest hook surface: the host trampoline in   *)
(* isolation (a no-op guest driven through Guest_host's fault path)    *)
(* and each V1 hook body per guest at steady state (256 resident keys, *)
(* evictions immediately re-faulted).  Results land in                 *)
(* BENCH_policy_sdk.json as ns/hook and minor words/hook.              *)
(* ------------------------------------------------------------------ *)

module V1 = Policy.Hooks.V1

module Null_guest = struct
  type t = unit

  let name = "null"
  let api_version = 1
  let init _ = ()
  let on_fault () _ = ()
  let on_access_sample () _ = ()
  let on_scan_tick () = ()
  let evict_request () ~want:_ = []
  let stats () = []
  let gauges () = []
end

module Null_host = Policy.Guest_host.Host (Null_guest)

let sdk_env () =
  let frames = 256 in
  let pt = Mem.Page_table.create ~pages:1024 () in
  let ft = Mem.Frame_table.create ~frames in
  let mem = Mem.Phys_mem.create ~frames () in
  {
    Policy.Policy_intf.costs = Mem.Costs.default;
    frames = ft;
    pt;
    rng = Engine.Rng.create 11;
    now = (fun () -> 0);
    reclaim_page = (fun ~pfn:_ -> ());
    evictable = (fun ~pfn:_ ~force:_ -> true);
    free_count = (fun () -> Mem.Phys_mem.free_count mem);
    total_frames = frames;
    low_watermark = Mem.Phys_mem.low_watermark mem;
    high_watermark = Mem.Phys_mem.high_watermark mem;
    obs = Obs.disabled;
    prof = Obs.Prof.disabled;
    vmstat = Obs.Vmstat.create ();
  }

let bench_dispatch_overhead =
  let p = Null_host.create (sdk_env ()) in
  let i = ref 0 in
  Test.make ~name:"host-dispatch-overhead"
    (Staged.stage (fun () ->
         incr i;
         Null_host.on_page_mapped p ~pfn:(!i land 255)
           ~vpn:(!i land 255) ~refault:false ~file_backed:false
           ~speculative:false))

let sdk_guests =
  [
    ("s3-fifo", (module Policy.S3_fifo : V1.GUEST));
    ("sieve", (module Policy.Sieve : V1.GUEST));
    ("perceptron", (module Policy.Perceptron : V1.GUEST));
  ]

let guest_hook_tests (name, (module G : V1.GUEST)) =
  let n = 256 in
  let rng = Engine.Rng.create 7 in
  let ctx =
    {
      V1.now = (fun () -> 0);
      free_count = (fun () -> n / 8);
      total_frames = n;
      low_watermark = n / 8;
      high_watermark = n / 4;
      page =
        (fun ~pfn ->
          if pfn >= 0 && pfn < n then
            Some
              { V1.accessed = pfn land 1 = 0; dirty = false; file_backed = false }
          else None);
      evictable_hint = (fun ~pfn -> pfn >= 0 && pfn < n);
      rand = (fun bound -> Engine.Rng.int rng bound);
    }
  in
  let g = G.init ctx in
  let fault pfn ~reinserted =
    G.on_fault g
      {
        V1.pfn = pfn land (n - 1);
        key = pfn land (n - 1);
        refault = true;
        file_backed = false;
        speculative = false;
        reinserted;
      }
  in
  for pfn = 0 to n - 1 do
    fault pfn ~reinserted:false
  done;
  let i = ref 0 in
  [
    Test.make ~name:(name ^ "/on_fault")
      (Staged.stage (fun () ->
           incr i;
           fault !i ~reinserted:false));
    Test.make ~name:(name ^ "/on_access_sample")
      (Staged.stage (fun () ->
           incr i;
           G.on_access_sample g { V1.pfn = !i land (n - 1); dirty = false }));
    Test.make ~name:(name ^ "/on_scan_tick")
      (Staged.stage (fun () -> G.on_scan_tick g));
    Test.make ~name:(name ^ "/evict_request")
      (Staged.stage (fun () ->
           (* Re-fault what the guest hands back so occupancy — and
              therefore per-call work — stays constant. *)
           List.iter (fun pfn -> fault pfn ~reinserted:false)
             (G.evict_request g ~want:1)));
  ]

let run_sdk_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let clock = Instance.monotonic_clock in
  let alloc = Instance.minor_allocated in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"policy-sdk"
      (bench_dispatch_overhead :: List.concat_map guest_hook_tests sdk_guests)
  in
  let raw = Benchmark.all cfg [ clock; alloc ] tests in
  let times = Analyze.all ols clock raw in
  let allocs = Analyze.all ols alloc raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> (
      match Analyze.OLS.estimates r with Some (t :: _) -> Some t | _ -> None)
    | None -> None
  in
  let names =
    List.sort compare
      (Hashtbl.fold (fun name _ acc -> name :: acc) times [])
  in
  print_endline "=== Policy-SDK hook dispatch (ns/hook, minor words/hook) ===";
  let rows =
    List.map
      (fun name ->
        let ns = estimate times name and words = estimate allocs name in
        Printf.printf "%-44s %10s ns %8s words\n" name
          (match ns with Some t -> Printf.sprintf "%.1f" t | None -> "?")
          (match words with Some w -> Printf.sprintf "%.1f" w | None -> "?");
        (name, ns, words))
      names
  in
  let oc = open_out "BENCH_policy_sdk.json" in
  let j = function Some v -> Printf.sprintf "%.2f" v | None -> "null" in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"policy_sdk_hook_dispatch\",\n";
  output_string oc
    "  \"units\": { \"time\": \"ns/hook\", \"alloc\": \"minor words/hook\" },\n";
  output_string oc "  \"results\": [\n";
  List.iteri
    (fun k (name, ns, words) ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"ns_per_hook\": %s, \"minor_words_per_hook\": %s }%s\n"
        name (j ns) (j words)
        (if k = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "(wrote BENCH_policy_sdk.json)"

(* ------------------------------------------------------------------ *)
(* Engine wall-clock harness.                                          *)
(*                                                                     *)
(* The standing speed trajectory: raw event-loop throughput, machine   *)
(* fault-burst cells at default (1/256) scale under each headline      *)
(* policy, and one full-scale (>= 3 M pages, unscaled costs) smoke     *)
(* cell.  Results land in BENCH_engine.json so each PR can be compared *)
(* wall-clock against the last (DESIGN.md section 13).  Run just this  *)
(* part with `dune exec bench/main.exe -- engine`.                     *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Raw discrete-event loop throughput: 64 self-rescheduling events so
   the heap keeps realistic depth, 2 M pops total. *)
let event_loop_throughput () =
  let n = 2_000_000 in
  let sim = Engine.Sim.create () in
  let remaining = ref n in
  let rec step s =
    decr remaining;
    if !remaining > 0 then Engine.Sim.schedule s ~delay:1 step
  in
  for _ = 1 to 64 do
    Engine.Sim.schedule sim ~delay:0 step
  done;
  let (), wall_s = wall (fun () -> Engine.Sim.run sim) in
  float_of_int n /. wall_s

type engine_cell = {
  ec_name : string;
  ec_pages : int;
  ec_ratio : float;
  ec_wall_s : float;
  ec_sim_ns : int;
  ec_major : int;
  ec_minor : int;
  ec_allocs_per_fault : float; (** minor words per (major + minor) fault *)
}

(* Sequential passes over the footprint at [ratio] capacity: pass 1 is
   all minor faults, later passes re-fault everything the policy had to
   evict — a dense, deterministic fault burst. *)
let fault_burst_cell ?chaos ~name ~policy ~pages ~passes ~ratio ~full_scale () =
  let w =
    Workload.Trace.of_page_lists ~footprint:pages
      (List.init passes (fun _ -> Array.init pages (fun i -> i)))
  in
  let capacity = max 64 (int_of_float (float_of_int pages *. ratio)) in
  let cfg =
    let base =
      Repro_core.Machine.default_config ~capacity_frames:capacity ~seed:42
    in
    if full_scale then
      (* The paper's real footprint: unscaled per-page costs, 512-PTE
         page-table regions. *)
      { base with Repro_core.Machine.costs = Mem.Costs.default;
        kthread_jitter_ns = 0 }
    else { base with Repro_core.Machine.kthread_jitter_ns = 0 }
  in
  let cfg = { cfg with Repro_core.Machine.chaos } in
  let mw0 = Gc.minor_words () in
  let r, wall_s =
    wall (fun () ->
        Repro_core.Machine.run cfg
          ~policy:(Policy.Registry.create policy)
          ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w)))
  in
  let mw1 = Gc.minor_words () in
  let faults =
    max 1 (r.Repro_core.Machine.major_faults + r.Repro_core.Machine.minor_faults)
  in
  {
    ec_name = name;
    ec_pages = pages;
    ec_ratio = ratio;
    ec_wall_s = wall_s;
    ec_sim_ns = r.Repro_core.Machine.runtime_ns;
    ec_major = r.Repro_core.Machine.major_faults;
    ec_minor = r.Repro_core.Machine.minor_faults;
    ec_allocs_per_fault = (mw1 -. mw0) /. float_of_int faults;
  }

let sim_ns_per_wall_ms c = float_of_int c.ec_sim_ns /. (c.ec_wall_s *. 1000.)

let print_cell c =
  Printf.printf
    "%-18s %9d pages  %7.2fs wall  %6.1f sim-s  %8d major  %8d minor  %7.1f words/fault\n%!"
    c.ec_name c.ec_pages c.ec_wall_s
    (float_of_int c.ec_sim_ns /. 1e9)
    c.ec_major c.ec_minor c.ec_allocs_per_fault

let cell_json c =
  Printf.sprintf
    "{ \"name\": \"%s\", \"pages\": %d, \"ratio\": %.2f, \"wall_s\": %.3f, \
     \"sim_ns\": %d, \"major_faults\": %d, \"minor_faults\": %d, \
     \"allocs_per_fault\": %.2f, \"sim_ns_per_wall_ms\": %.1f }"
    c.ec_name c.ec_pages c.ec_ratio c.ec_wall_s c.ec_sim_ns c.ec_major
    c.ec_minor c.ec_allocs_per_fault (sim_ns_per_wall_ms c)

let run_engine_harness () =
  print_endline "=== Engine wall-clock harness ===";
  let events_per_sec = event_loop_throughput () in
  Printf.printf "event loop: %.3e events/sec\n%!" events_per_sec;
  let default_cells =
    [
      fault_burst_cell ~name:"default/clock" ~policy:Policy.Registry.Clock
        ~pages:16_384 ~passes:4 ~ratio:0.5 ~full_scale:false ();
      fault_burst_cell ~name:"default/mglru"
        ~policy:Policy.Registry.Mglru_default ~pages:16_384 ~passes:4
        ~ratio:0.5 ~full_scale:false ();
      (* Same burst under a three-class transient schedule: the cost of
         the chaos layer itself plus the work its injections cause. *)
      fault_burst_cell ~name:"default/chaos"
        ~chaos:
          (match
             Repro_core.Chaos.parse_spec
               "hotplug:at=50ms,shrink=30%,restore=150ms;\
                degrade:at=200ms,for=100ms,latency=4x;burst:at=350ms,for=50ms"
           with
          | Ok s -> s
          | Error e -> failwith e)
        ~policy:Policy.Registry.Mglru_default ~pages:16_384 ~passes:4
        ~ratio:0.5 ~full_scale:false ();
    ]
  in
  List.iter print_cell default_cells;
  let full_scale =
    match Sys.getenv_opt "BENCH_SKIP_FULL_SCALE" with
    | Some _ ->
      print_endline "(skipping full-scale cell: BENCH_SKIP_FULL_SCALE)";
      None
    | None ->
      let c =
        fault_burst_cell ~name:"full-scale/clock" ~policy:Policy.Registry.Clock
          ~pages:3_276_800 ~passes:2 ~ratio:0.5 ~full_scale:true ()
      in
      print_cell c;
      Some c
  in
  (* Headline numbers: worst allocs/fault across the default cells (so a
     regression in any builtin moves the trajectory), sim-speed from the
     clock cell.  The chaos cell is reported but kept out of the
     headline so the trajectory stays comparable with earlier PRs. *)
  let allocs_per_fault =
    List.fold_left
      (fun acc c ->
        if c.ec_name = "default/chaos" then acc
        else max acc c.ec_allocs_per_fault)
      0. default_cells
  in
  let headline = List.hd default_cells in
  let oc = open_out "BENCH_engine.json" in
  output_string oc "{\n";
  output_string oc "  \"benchmark\": \"engine\",\n";
  output_string oc
    "  \"units\": { \"events_per_sec\": \"raw event-loop pops/sec\", \
     \"sim_ns_per_wall_ms\": \"simulated ns per wall-clock ms\", \
     \"allocs_per_fault\": \"minor words per fault\" },\n";
  Printf.fprintf oc "  \"events_per_sec\": %.0f,\n" events_per_sec;
  Printf.fprintf oc "  \"sim_ns_per_wall_ms\": %.1f,\n"
    (sim_ns_per_wall_ms headline);
  Printf.fprintf oc "  \"allocs_per_fault\": %.2f,\n" allocs_per_fault;
  output_string oc "  \"cells\": [\n";
  List.iteri
    (fun k c ->
      Printf.fprintf oc "    %s%s\n" (cell_json c)
        (if k = List.length default_cells - 1 then "" else ","))
    default_cells;
  output_string oc "  ],\n";
  (match full_scale with
  | Some c -> Printf.fprintf oc "  \"full_scale\": %s\n" (cell_json c)
  | None -> output_string oc "  \"full_scale\": null\n");
  output_string oc "}\n";
  close_out oc;
  print_endline "(wrote BENCH_engine.json)"

(* ------------------------------------------------------------------ *)

(* A cold --fast PageRank [make_workload]: every run takes a trial no
   earlier run built, so the plan cache misses and the graph, its
   1.22 M neighbour draws and the block plans are built afresh.  Too slow
   for Bechamel's quota; timed directly, best of [runs]. *)
let cold_pagerank_build_s ~runs =
  let ctx =
    Repro_core.Runner.make_ctx
      ~profile:{ Repro_core.Runner.default_profile with Repro_core.Runner.fast = true }
      ()
  in
  let best = ref infinity in
  for trial = 1_000 to 1_000 + runs - 1 do
    let t0 = Unix.gettimeofday () in
    let w = Repro_core.Runner.make_workload ctx Repro_core.Runner.Pagerank ~trial in
    ignore (Sys.opaque_identity w);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* One --fast --scale 64 TPC-H trial under MG-LRU, end to end (workload
   build and simulation): the fault, reclaim and swap path on a scaled
   footprint.  Each run uses a fresh context, so no result is cached;
   best of [runs]. *)
let fault_path_scale64_s ~runs =
  let best = ref infinity in
  for _ = 1 to runs do
    let ctx =
      Repro_core.Runner.make_ctx
        ~profile:
          {
            Repro_core.Runner.default_profile with
            Repro_core.Runner.fast = true;
            scale = 64;
          }
        ()
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Repro_core.Runner.run_exp ctx
        {
          Repro_core.Runner.workload = Repro_core.Runner.Tpch;
          policy = Policy.Registry.Mglru_default;
          ratio = 0.5;
          swap = Repro_core.Runner.Ssd;
          trial = 0;
        }
    in
    ignore (Sys.opaque_identity r);
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* A scaled workload build, the first thing a trial at --scale N pays:
   host seconds of [work run] (best of [runs]), the words it allocates
   (minor plus major, less promoted, so arrays allocated straight into
   the major heap count; from the last run, they are deterministic) and
   the words the workload [kept ()] returns keeps reachable, measured
   after the timed runs.  [work] gets the run's index, so a cached plan
   can be kept out of the timing by using it as a fresh trial number. *)
let scaled_build ~runs ~kept work =
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let best = ref infinity and words = ref 0. in
  for run = 1 to runs do
    let w0 = allocated () in
    let t0 = Unix.gettimeofday () in
    work run;
    best := Float.min !best (Unix.gettimeofday () -. t0);
    words := allocated () -. w0
  done;
  (!best, !words, Obj.reachable_words (Obj.repr (kept ())))

let scaled_ctx ~fast ~scale =
  Repro_core.Runner.make_ctx
    ~profile:{ Repro_core.Runner.default_profile with Repro_core.Runner.fast; scale }
    ()

(* A cold PageRank [make_workload] at --scale 4: 6.3 M vertices, so the
   graph and the plan build dominate, and a build that grows faster than
   the graph shows here first. *)
let pagerank_build_scale4 ~runs =
  let ctx = scaled_ctx ~fast:false ~scale:4 in
  let make run =
    Repro_core.Runner.make_workload ctx Repro_core.Runner.Pagerank ~trial:(2_000 + run)
  in
  scaled_build ~runs
    ~kept:(fun () -> make 1)
    (fun run -> ignore (Sys.opaque_identity (make run)))

(* TPC-H's [make_workload] at --fast --scale 64 and a drain of every
   thread's steps to [Finished]: step generation without simulation.
   Kept words are a workload's before its drain, what a trial holds
   while it runs. *)
let tpch_drain_scale64 ~runs =
  let ctx = scaled_ctx ~fast:true ~scale:64 in
  let make () = Repro_core.Runner.make_workload ctx Repro_core.Runner.Tpch ~trial:0 in
  scaled_build ~runs ~kept:make (fun _ ->
      let (Workload.Chunk.Packed ((module W), w)) = make () in
      for tid = 0 to W.threads w - 1 do
        while W.next w ~tid <> Workload.Chunk.Finished do
          ()
        done
      done)

let print_scaled_build name (time_s, words, retained) =
  Printf.printf "%-40s %12.1f ms/run (best of 3) %8.2f Mwords alloc %8.2f Mwords kept\n%!"
    name (1e3 *. time_s) (words /. 1e6) (float_of_int retained /. 1e6)

(* Sealing one --fast YCSB-A trial's latency buffers, as [Machine.run]
   does at the end of every trial: the trial's reads and writes, pushed
   in an order shuffled with a fixed seed, timed over both seals; then
   encoding the sealed arrays as runs, as the runner does before it
   stores the trial.  Best of [runs] each, in ns per latency. *)
let latency_seal_ns ~runs =
  let r =
    Repro_core.Runner.run_exp
      (Repro_core.Runner.make_ctx
         ~profile:{ Repro_core.Runner.default_profile with Repro_core.Runner.fast = true }
         ())
      {
        Repro_core.Runner.workload = Repro_core.Runner.Ycsb Workload.Ycsb.A;
        policy = Policy.Registry.Clock;
        ratio = 0.5;
        swap = Repro_core.Runner.Ssd;
        trial = 0;
      }
  in
  let rng = Engine.Rng.create 42 in
  let shuffled lat =
    let a = Array.copy lat in
    for i = Array.length a - 1 downto 1 do
      let j = Engine.Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let pushes =
    [ shuffled (Structures.Latencies.to_array r.Repro_core.Machine.read_latencies);
      shuffled (Structures.Latencies.to_array r.Repro_core.Machine.write_latencies) ]
  in
  let n = List.fold_left (fun n a -> n + Array.length a) 0 pushes in
  let best_seal = ref infinity and best_runs = ref infinity in
  for _ = 1 to runs do
    let bufs =
      List.map
        (fun a ->
          let l = Structures.Latencies.create () in
          Array.iter (Structures.Latencies.push l) a;
          l)
        pushes
    in
    let t0 = Unix.gettimeofday () in
    let sealed = List.map Structures.Latencies.seal bufs in
    let t1 = Unix.gettimeofday () in
    List.iter (fun a -> ignore (Sys.opaque_identity (Structures.Latencies.of_sorted a))) sealed;
    best_seal := Float.min !best_seal (t1 -. t0);
    best_runs := Float.min !best_runs (Unix.gettimeofday () -. t1)
  done;
  let per_latency s = 1e9 *. s /. float_of_int n in
  (per_latency !best_seal, per_latency !best_runs)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let tests =
    Test.make_grouped ~name:"pagerepl"
      [
        bench_zipf;
        bench_zipf_pagerank;
        bench_ycsb_load;
        bench_bloom;
        bench_dlist;
        bench_dlist_1m ();
        bench_event_queue;
        bench_pte;
        bench_rng;
      ]
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  print_endline "=== Bechamel microbenchmarks (ns/run, OLS) ===";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> Printf.sprintf "%12.1f" t
        | Some [] | None -> "           ?"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-40s %s ns/run\n" name est)
    (List.sort compare !rows);
  Printf.printf "%-40s %12.1f ms/run (best of 5)\n" "pagerank-cold-build"
    (1e3 *. cold_pagerank_build_s ~runs:5);
  let seal_ns, runs_ns = latency_seal_ns ~runs:5 in
  Printf.printf "%-40s %12.1f ns/latency (best of 5)\n" "latency-seal" seal_ns;
  Printf.printf "%-40s %12.1f ns/latency (best of 5)\n" "latency-runs" runs_ns;
  Printf.printf "%-40s %12.1f ms/run (best of 3)\n" "fault-path-scale64"
    (1e3 *. fault_path_scale64_s ~runs:3);
  print_scaled_build "pagerank-build-scale4" (pagerank_build_scale4 ~runs:3);
  print_scaled_build "tpch-drain-scale64" (tpch_drain_scale64 ~runs:3)

let () =
  (* `bench/main.exe engine` runs only the engine harness (CI's bench
     smoke step); no argument runs everything. *)
  if not (Array.exists (fun a -> a = "engine") Sys.argv) then begin
    run_benchmarks ();
    print_newline ();
    run_sdk_benchmarks ();
    print_newline ()
  end;
  run_engine_harness ()
