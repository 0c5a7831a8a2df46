module M = Repro_core.Machine
module C = Workload.Chunk
module V = Obs.Vmstat

let one_page p = C.Range { start = p; len = 1 }

(* A tiny deterministic workload: one thread touching an explicit page
   sequence. *)
let trace_workload ?(footprint = 64) lists =
  let w = Workload.Trace.of_page_lists ~footprint lists in
  C.Packed ((module Workload.Trace), w)

let config ?(capacity = 16) ?(swap = M.Ssd) ?(readahead = 0) () =
  {
    (M.default_config ~capacity_frames:capacity ~seed:7) with
    M.swap;
    readahead;
    kthread_jitter_ns = 0;
  }

let run ?capacity ?swap ?readahead ~policy lists =
  M.run
    (config ?capacity ?swap ?readahead ())
    ~policy:(Policy.Registry.create policy)
    ~workload:(trace_workload lists)

let test_minor_faults_only () =
  (* Footprint below capacity: everything zero-fills, nothing swaps. *)
  let r = run ~capacity:32 ~policy:Policy.Registry.Clock [ Array.init 16 (fun i -> i) ] in
  Alcotest.(check int) "minor faults" 16 r.M.minor_faults;
  Alcotest.(check int) "no major faults" 0 r.M.major_faults;
  Alcotest.(check int) "no swap" 0 (M.count r V.pswpin);
  Alcotest.(check int) "all resident" 16 r.M.resident_at_end;
  Alcotest.(check bool) "time advanced" true (r.M.runtime_ns > 0)

let test_thrash_counts_faults () =
  (* Touch 32 pages twice with capacity 16: second pass must major-fault. *)
  let pass = Array.init 32 (fun i -> i) in
  let r = run ~capacity:16 ~policy:Policy.Registry.Clock [ pass; pass ] in
  Alcotest.(check int) "first pass minor" 32 r.M.minor_faults;
  Alcotest.(check bool) "second pass majors" true (r.M.major_faults >= 16);
  Alcotest.(check bool) "swap outs happened" true (M.count r V.pswpout > 0);
  Alcotest.(check bool) "residency bounded by capacity" true (r.M.resident_at_end <= 16)

let test_determinism () =
  let pass = Array.init 32 (fun i -> (i * 7) mod 32) in
  let r1 = run ~capacity:16 ~policy:Policy.Registry.Mglru_default [ pass; pass; pass ] in
  let r2 = run ~capacity:16 ~policy:Policy.Registry.Mglru_default [ pass; pass; pass ] in
  Alcotest.(check int) "same runtime" r1.M.runtime_ns r2.M.runtime_ns;
  Alcotest.(check int) "same faults" r1.M.major_faults r2.M.major_faults

let test_zram_faster_than_ssd () =
  let pass = Array.init 32 (fun i -> i) in
  let r_ssd = run ~capacity:16 ~swap:M.Ssd ~policy:Policy.Registry.Clock [ pass; pass ] in
  let r_zram = run ~capacity:16 ~swap:M.Zram ~policy:Policy.Registry.Clock [ pass; pass ] in
  Alcotest.(check bool) "zram much faster" true
    (r_zram.M.runtime_ns * 5 < r_ssd.M.runtime_ns)

let test_swap_cache_avoids_clean_writeback () =
  (* Read-only thrash: after the first eviction cycle, pages are clean
     copies and should mostly not be rewritten. *)
  let pass = Array.init 32 (fun i -> i) in
  let r = run ~capacity:16 ~policy:Policy.Registry.Fifo [ pass; pass; pass; pass ] in
  (* Every page is written at most once (its contents never change). *)
  Alcotest.(check bool)
    (Printf.sprintf "outs %d bounded by footprint" (M.count r V.pswpout))
    true
    (M.count r V.pswpout <= 32 + 4);
  Alcotest.(check bool) "ins keep happening" true (M.count r V.pswpin > 40)

let test_dirty_pages_rewritten () =
  let pass = Array.init 32 (fun i -> i) in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps =
          [|
            Array.of_list
              (List.concat_map
                 (fun _ -> [ C.Chunk (C.chunk ~write:true (C.Pages pass)) ])
                 [ (); (); (); () ]);
          |];
        footprint = 64;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun _ -> false);
      }
  in
  let r =
    M.run (config ~capacity:16 ())
      ~policy:(Policy.Registry.create Policy.Registry.Fifo)
      ~workload:(C.Packed ((module Workload.Trace), w))
  in
  (* Dirty pages must be written back on every eviction cycle. *)
  Alcotest.(check bool)
    (Printf.sprintf "outs %d track evictions" (M.count r V.pswpout))
    true
    (M.count r V.pswpout > 64)

let test_readahead_helps_sequential () =
  let pass = Array.init 48 (fun i -> i) in
  let without = run ~capacity:16 ~readahead:0 ~policy:Policy.Registry.Fifo [ pass; pass; pass ] in
  let with_ra =
    M.run
      { (config ~capacity:16 ()) with M.readahead = 8 }
      ~policy:(Policy.Registry.create Policy.Registry.Fifo)
      ~workload:(trace_workload [ pass; pass; pass ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "majors %d < %d" with_ra.M.major_faults without.M.major_faults)
    true
    (with_ra.M.major_faults < without.M.major_faults)

let test_barrier_synchronizes () =
  (* Two threads: thread 1 does nothing but must still wait at the
     barrier until thread 0's slow chunk completes. *)
  let steps =
    [|
      [| C.Chunk (C.chunk ~cpu_ns:1_000_000 (one_page 0)); C.Barrier;
         C.Chunk (C.chunk (one_page 1)) |];
      [| C.Barrier; C.Chunk (C.chunk (one_page 2)) |];
    |]
  in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps = steps;
        footprint = 16;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun _ -> false);
      }
  in
  let r =
    M.run (config ~capacity:8 ())
      ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(C.Packed ((module Workload.Trace), w))
  in
  Alcotest.(check bool) "thread 1 finished after thread 0's compute" true
    (r.M.per_thread_finish.(1) >= 1_000_000)

let test_latency_recording () =
  let steps =
    [|
      [|
        C.Chunk (C.chunk ~latency_class:C.read_class (one_page 0));
        C.Chunk (C.chunk ~latency_class:C.write_class ~write:true (one_page 1));
        C.Chunk (C.chunk ~latency_class:C.read_class (one_page 2));
      |];
    |]
  in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps = steps;
        footprint = 16;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun _ -> false);
      }
  in
  let r =
    M.run (config ~capacity:8 ())
      ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(C.Packed ((module Workload.Trace), w))
  in
  Alcotest.(check int) "two reads" 2 (Array.length r.M.read_latencies);
  Alcotest.(check int) "one write" 1 (Array.length r.M.write_latencies);
  Array.iter
    (fun l -> Alcotest.(check bool) "latency positive" true (l > 0))
    r.M.read_latencies

let test_policy_stats_surface () =
  let pass = Array.init 32 (fun i -> i) in
  let r = run ~capacity:16 ~policy:Policy.Registry.Mglru_default [ pass; pass ] in
  Alcotest.(check string) "policy name" "mglru" r.M.policy_name;
  Alcotest.(check bool) "stats exported" true (List.length r.M.policy_stats > 0)

(* ---- fault injection & degradation ---- *)

let run_plan ?(capacity = 16) ?audit_every_ns ~plan ~policy lists =
  let cfg = config ~capacity () in
  let cfg =
    { cfg with M.fault_plan = plan;
      audit_every_ns = Option.value audit_every_ns ~default:cfg.M.audit_every_ns }
  in
  M.run cfg ~policy:(Policy.Registry.create policy) ~workload:(trace_workload lists)

let thrash_lists n =
  [ Array.init n (fun i -> i); Array.init n (fun i -> (i * 7) mod n);
    Array.init n (fun i -> i) ]

let test_zero_plan_identical () =
  (* An explicit all-zero plan must not perturb anything: the device is
     not even wrapped, so the RNG stream is untouched. *)
  let base = run ~capacity:16 ~policy:Policy.Registry.Mglru_default (thrash_lists 32) in
  let zeroed =
    run_plan ~plan:Swapdev.Faulty_device.none ~policy:Policy.Registry.Mglru_default
      (thrash_lists 32)
  in
  Alcotest.(check int) "same runtime" base.M.runtime_ns zeroed.M.runtime_ns;
  Alcotest.(check int) "same majors" base.M.major_faults zeroed.M.major_faults;
  Alcotest.(check int) "nothing injected" 0
    (M.count zeroed V.injected_transient + M.count zeroed V.injected_permanent
    + M.count zeroed V.injected_stalls + M.count zeroed V.injected_tail_spikes);
  Alcotest.(check int) "no oom" 0 (M.count zeroed V.oom_kill);
  Alcotest.(check int) "invariants hold" 0
    (M.count zeroed V.invariant_violations)

let test_transient_errors_retried () =
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.read_error_prob = 0.4; write_error_prob = 0.4 }
  in
  let r =
    run_plan ~plan ~audit_every_ns:1_000_000 ~policy:Policy.Registry.Clock
      (thrash_lists 48)
  in
  Alcotest.(check bool) "errors injected" true
    (M.count r V.injected_transient > 0);
  Alcotest.(check bool) "retries absorbed them" true
    (M.count r V.io_retries > 0);
  Alcotest.(check bool) "every thread finished" true
    (Array.for_all (fun f -> f >= 0) r.M.per_thread_finish);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_permanent_reads_poison () =
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.read_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let r = run_plan ~plan ~policy:Policy.Registry.Clock (thrash_lists 48) in
  Alcotest.(check bool) "reads poisoned" true (M.count r V.poisoned_reads > 0);
  Alcotest.(check bool) "run completed" true
    (Array.for_all (fun f -> f >= 0) r.M.per_thread_finish);
  Alcotest.(check int) "no oom needed" 0 (M.count r V.oom_kill);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_permanent_writes_pin_then_oom () =
  (* Nothing can ever be written out, so reclaim pins page after page
     until the OOM killer must step in; the trial still terminates. *)
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let r =
    run_plan ~plan ~audit_every_ns:1_000_000 ~policy:Policy.Registry.Clock
      (thrash_lists 64)
  in
  Alcotest.(check bool) "writebacks failed" true
    (M.count r V.writeback_failures > 0);
  Alcotest.(check bool) "oom killer fired" true (M.count r V.oom_kill >= 1);
  Alcotest.(check bool) "pages discarded" true
    (M.count r V.oom_discarded_pages > 0);
  Alcotest.(check bool) "run completed" true
    (Array.for_all (fun f -> f >= 0) r.M.per_thread_finish);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_oom_spares_survivors () =
  (* Two threads on disjoint ranges; the fatter one is sacrificed and
     the other must still run to completion. *)
  let plan =
    { Swapdev.Faulty_device.none with
      Swapdev.Faulty_device.write_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let big = Array.init 48 (fun i -> i) in
  let small = Array.init 8 (fun i -> 48 + i) in
  let w =
    Workload.Trace.of_page_lists ~footprint:64
      [ Array.concat [ big; big ]; Array.concat [ small; small; small ] ]
  in
  let cfg = { (config ~capacity:24 ()) with M.fault_plan = plan } in
  let r =
    M.run cfg
      ~policy:(Policy.Registry.create Policy.Registry.Clock)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), w))
  in
  Alcotest.(check bool) "oom fired" true (M.count r V.oom_kill >= 1);
  Alcotest.(check bool) "both threads terminated" true
    (Array.for_all (fun f -> f >= 0) r.M.per_thread_finish);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_heavy_plan_deterministic () =
  let go () =
    run_plan ~plan:Swapdev.Faulty_device.heavy ~audit_every_ns:5_000_000
      ~policy:Policy.Registry.Mglru_default (thrash_lists 64)
  in
  let r1 = go () in
  let r2 = go () in
  Alcotest.(check int) "same runtime" r1.M.runtime_ns r2.M.runtime_ns;
  Alcotest.(check int) "same poisons"
    (M.count r1 V.poisoned_reads) (M.count r2 V.poisoned_reads);
  Alcotest.(check int) "same retries"
    (M.count r1 V.io_retries) (M.count r2 V.io_retries);
  Alcotest.(check bool) "faults actually injected" true
    (M.count r1 V.injected_transient + M.count r1 V.injected_permanent > 0);
  Alcotest.(check int) "invariants hold" 0 (M.count r1 V.invariant_violations)

(* ---- Cost tables ------------------------------------------------ *)

let test_costs_scaled () =
  let c = Mem.Costs.scaled ~factor:10 Mem.Costs.default in
  Alcotest.(check int) "pte scan x10"
    (10 * Mem.Costs.default.Mem.Costs.pte_scan_ns)
    c.Mem.Costs.pte_scan_ns;
  Alcotest.(check int) "rmap x5"
    (10 * Mem.Costs.default.Mem.Costs.rmap_walk_ns / 2)
    c.Mem.Costs.rmap_walk_ns;
  Alcotest.(check int) "region size untouched"
    Mem.Costs.default.Mem.Costs.region_size c.Mem.Costs.region_size

let test_rmap_much_more_expensive_than_scan () =
  (* The asymmetry the paper's §III-B is built on. *)
  let c = Mem.Costs.default in
  Alcotest.(check bool) "rmap >> pte scan" true
    (c.Mem.Costs.rmap_walk_ns > 100 * c.Mem.Costs.pte_scan_ns)

let test_experiment_costs () =
  let leaf n = { Mem.Costs.default with region_size = n; spatial_scan_max = n } in
  Alcotest.(check bool) "scale 1: x256, 64-PTE regions" true
    (Mem.Costs.experiment ~scale:1 = Mem.Costs.scaled (leaf 64));
  Alcotest.(check bool) "scale 4: x64, 256-PTE regions" true
    (Mem.Costs.experiment ~scale:4 = Mem.Costs.scaled ~factor:64 (leaf 256));
  Alcotest.(check bool) "scale 256: 512-PTE regions, x1" true
    (Mem.Costs.experiment ~scale:256 = Mem.Costs.scaled ~factor:1 (leaf 512));
  Alcotest.(check bool) "the machine's default" true
    ((M.default_config ~capacity_frames:64 ~seed:1).M.costs
    = Mem.Costs.experiment ~scale:1)

(* ---- Latency buffers ----------------------------------------------- *)

(* [n] read requests, one page each, cycling over four resident pages. *)
let read_requests n =
  let steps =
    [|
      Array.init n (fun i ->
          C.Chunk (C.chunk ~latency_class:C.read_class (one_page (i mod 4))));
    |]
  in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps = steps;
        footprint = 16;
        klass = (fun _ -> Swapdev.Compress.Numeric);
        file_backed_pages = (fun _ -> false);
      }
  in
  M.run (config ~capacity:8 ())
    ~policy:(Policy.Registry.create Policy.Registry.Clock)
    ~workload:(C.Packed ((module Workload.Trace), w))

module L = Structures.Latencies

let sealed pushes =
  let l = L.create () in
  Array.iter (L.push l) pushes;
  L.seal l

let sorted a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  a

let test_sealed_is_sorted_pushes () =
  (* Past the buffer's first size (1024), over the whole int range:
     ties, zero, and values that need every radix digit. *)
  let rng = Engine.Rng.create 5 in
  let pushes =
    Array.init 5000 (fun i ->
        match i mod 4 with
        | 0 -> Engine.Rng.int rng 16
        | 1 -> Engine.Rng.int rng 1_000_000_000
        | 2 -> max_int - Engine.Rng.int rng 1_000
        | _ -> Engine.Rng.int rng max_int)
  in
  let l = L.create () in
  Array.iter (L.push l) pushes;
  Alcotest.(check (array int)) "sealed = sorted pushes" (sorted pushes) (L.seal l);
  Alcotest.(check (array int)) "the buffer is left empty" [||] (L.seal l);
  L.push l 7;
  Alcotest.(check (array int)) "and takes pushes again" [| 7 |] (L.seal l);
  Alcotest.check_raises "negative refused"
    (Invalid_argument "Latencies.push: negative latency") (fun () -> L.push l (-1))

let prop_seal_and_merge =
  QCheck.Test.make ~name:"seal sorts, merge = sorted concatenation" ~count:200
    QCheck.(list_of_size Gen.(0 -- 5) (array_of_size Gen.(0 -- 300) (int_bound 5000)))
    (fun arrays ->
      let parts = List.map sealed arrays in
      List.for_all2 (fun a p -> p = sorted a) arrays parts
      && L.to_array (L.merge (List.map L.of_sorted parts)) = sorted (Array.concat arrays))

let test_every_push_kept () =
  (* A 3000-request run's first 1000 requests are the 1000-request run:
     across growth, its latencies stay a sub-multiset of the long run's. *)
  let long = read_requests 3000 and short = read_requests 1000 in
  let lat = long.M.read_latencies in
  Alcotest.(check int) "every read kept" 3000 (Array.length lat);
  Alcotest.(check int) "no writes" 0 (Array.length long.M.write_latencies);
  Alcotest.(check (array int)) "ascending" (sorted lat) lat;
  Alcotest.(check bool) "positive" true (lat.(0) > 0);
  let j = ref 0 in
  Array.iter
    (fun v ->
      while !j < 3000 && lat.(!j) < v do
        incr j
      done;
      Alcotest.(check bool) "short run's latency kept" true (!j < 3000 && lat.(!j) = v);
      incr j)
    short.M.read_latencies

let test_unclassed_not_recorded () =
  (* Chunks without a latency class are work, not requests. *)
  let r = run ~capacity:16 ~policy:Policy.Registry.Clock [ Array.init 32 (fun i -> i) ] in
  Alcotest.(check int) "no reads" 0 (Array.length r.M.read_latencies);
  Alcotest.(check int) "no writes" 0 (Array.length r.M.write_latencies)

(* ---- pinned --fast YCSB latencies ---- *)

(* Exact digests of real --fast trials: the goldens print tails rounded
   to four digits, these pin every latency and every landmark bit. *)
module R = Repro_core.Runner

let fast_ctx ?cgroups () =
  R.make_ctx ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }
    ?cgroups ()

let ycsb_trial ?cgroups variant =
  R.run_exp (fast_ctx ?cgroups ())
    { R.workload = R.Ycsb variant; policy = Policy.Registry.Clock; ratio = 0.5;
      swap = R.Ssd; trial = 0 }

(* Stored latency runs expand ascending, so the digest also pins the
   order. *)
let digest lat =
  Digest.to_hex
    (Digest.string
       (String.concat " " (List.map string_of_int (Array.to_list (L.to_array lat)))))

let landmarks lat =
  let t = Stats.Percentile.tail_of_runs lat in
  String.concat " "
    (List.map (Printf.sprintf "%h")
       Stats.Percentile.[ t.p50; t.p90; t.p99; t.p999; t.p9999; t.max ])

let test_pinned_ycsb_digests () =
  List.iter
    (fun (variant, reads, writes) ->
      let r = ycsb_trial variant in
      let name = Workload.Ycsb.variant_name variant in
      Alcotest.(check string) (name ^ " reads") reads (digest r.M.read_latencies);
      Alcotest.(check string) (name ^ " writes") writes (digest r.M.write_latencies))
    [
      (Workload.Ycsb.A, "989c597e0a0b7efe67d976c321538b19", "dbe7d19d4bf42a67124019f8c02b4700");
      (Workload.Ycsb.B, "6a1bf66a7ef5d1ff10aea5f05eb4beab", "588251a277f9d8a55608cd61b71ade3e");
      (Workload.Ycsb.C, "84ecf5b06713f45c075c67daeff67ae5", (* no updates *) "d41d8cd98f00b204e9800998ecf8427e");
    ]

let test_pinned_ycsb_landmarks () =
  let r = ycsb_trial Workload.Ycsb.A in
  Alcotest.(check string) "ycsb-a read landmarks"
    "0x1.8796p+18 0x1.d2baf0ccccccep+22 0x1.1f6b653333349p+24 0x1.bfb36d9fbe766p+24 0x1.b7b97e4e21b46p+25 0x1.3ad387cp+26"
    (landmarks r.M.read_latencies);
  Alcotest.(check string) "ycsb-a write landmarks"
    "0x1.87a24p+18 0x1.d3b62cp+22 0x1.276cf67ae147cp+24 0x1.bcd2ea4106245p+24 0x1.b052348e50166p+25 0x1.b2a865p+27"
    (landmarks r.M.write_latencies)

let test_pinned_cgroup_reads () =
  let cgroups =
    match Mem.Memcg.parse_spec "front:threads=0;back:threads=1" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let r = ycsb_trial ~cgroups Workload.Ycsb.A in
  let groups = (Option.get r.M.memcg).Mem.Memcg.s_groups in
  List.iter
    (fun (name, want_digest, want_landmarks) ->
      let g = List.find (fun g -> g.Mem.Memcg.r_name = name) groups in
      Alcotest.(check string) (name ^ " reads") want_digest
        (digest g.Mem.Memcg.r_read_latencies);
      Alcotest.(check string) (name ^ " read landmarks") want_landmarks
        (landmarks g.Mem.Memcg.r_read_latencies))
    [
      ( "front",
        "f39e8784bc9c74689bdd034c991f81a7",
        "0x1.879b2p+18 0x1.d406ba6666667p+22 0x1.2632588a3d706p+24 0x1.bed6ddd74bc51p+24 0x1.a08c78117f3b9p+25 0x1.3ad387cp+26" );
      ( "back",
        "879cc8cad6011ba876125d7c21eb8e78",
        "0x1.8798p+18 0x1.d38fd0ccccccdp+22 0x1.2032bcccccccbp+24 0x1.bcc4db841893dp+24 0x1.a076aafb71bccp+25 0x1.18136b4p+26" );
    ]

(* Page_state holds thread ids up to [max_tid], so a workload with more
   threads than that plus one is refused up front, naming the limit.  The
   threads are simulated ones with empty streams. *)
let test_too_many_threads_refused () =
  let threads = Repro_core.Page_state.max_tid + 2 in
  let w =
    Workload.Trace.create
      {
        Workload.Trace.steps = Array.make threads [||];
        footprint = 1;
        klass = (fun _ -> Swapdev.Compress.Random);
        file_backed_pages = (fun _ -> false);
      }
  in
  Alcotest.check_raises "refused"
    (Invalid_argument
       "Machine.run: workload has 65536 threads; at most 65535 are supported")
    (fun () ->
      ignore
        (M.run (config ()) ~policy:(Policy.Registry.create Policy.Registry.Clock)
           ~workload:(C.Packed ((module Workload.Trace), w))))

let () =
  Alcotest.run "machine"
    [
      ( "unit",
        [
          Alcotest.test_case "minor faults only" `Quick test_minor_faults_only;
          Alcotest.test_case "thrash counts faults" `Quick test_thrash_counts_faults;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "zram faster" `Quick test_zram_faster_than_ssd;
          Alcotest.test_case "swap cache" `Quick test_swap_cache_avoids_clean_writeback;
          Alcotest.test_case "dirty rewritten" `Quick test_dirty_pages_rewritten;
          Alcotest.test_case "readahead helps" `Quick test_readahead_helps_sequential;
          Alcotest.test_case "barrier" `Quick test_barrier_synchronizes;
          Alcotest.test_case "latency recording" `Quick test_latency_recording;
          Alcotest.test_case "policy stats" `Quick test_policy_stats_surface;
          Alcotest.test_case "too many threads" `Quick test_too_many_threads_refused;
        ] );
      ( "faults",
        [
          Alcotest.test_case "zero plan identical" `Quick test_zero_plan_identical;
          Alcotest.test_case "transient retried" `Quick test_transient_errors_retried;
          Alcotest.test_case "permanent reads poison" `Quick test_permanent_reads_poison;
          Alcotest.test_case "permanent writes pin then oom" `Quick
            test_permanent_writes_pin_then_oom;
          Alcotest.test_case "oom spares survivors" `Quick test_oom_spares_survivors;
          Alcotest.test_case "heavy plan deterministic" `Quick
            test_heavy_plan_deterministic;
        ] );
      ( "costs",
        [
          Alcotest.test_case "costs scaled" `Quick test_costs_scaled;
          Alcotest.test_case "cost asymmetry" `Quick
            test_rmap_much_more_expensive_than_scan;
          Alcotest.test_case "experiment table" `Quick test_experiment_costs;
        ] );
      ( "latencies",
        [
          Alcotest.test_case "sealed = sorted pushes" `Quick
            test_sealed_is_sorted_pushes;
          Alcotest.test_case "every push kept across growth" `Quick
            test_every_push_kept;
          QCheck_alcotest.to_alcotest prop_seal_and_merge;
          Alcotest.test_case "unclassed not recorded" `Quick
            test_unclassed_not_recorded;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "ycsb digests" `Quick test_pinned_ycsb_digests;
          Alcotest.test_case "ycsb-a landmarks" `Quick test_pinned_ycsb_landmarks;
          Alcotest.test_case "cgroup reads" `Quick test_pinned_cgroup_reads;
        ] );
    ]
