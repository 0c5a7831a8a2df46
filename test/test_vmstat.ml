module V = Obs.Vmstat
module W = Mem.Workingset
module M = Repro_core.Machine
module C = Workload.Chunk
module R = Repro_core.Runner

(* ------------------------------------------------------------------ *)
(* Counter registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_registry_basics () =
  let v = V.create () in
  Alcotest.(check int) "fresh counter" 0 (V.get v V.pgfault);
  V.incr v V.pgfault;
  V.incr v V.pgfault;
  V.add v V.pgscan_direct 5;
  Alcotest.(check int) "incr" 2 (V.get v V.pgfault);
  Alcotest.(check int) "add" 5 (V.get v V.pgscan_direct);
  V.add v V.pgscan_direct 0;
  V.add v V.pgscan_direct (-3);
  Alcotest.(check int) "non-positive add is a no-op" 5
    (V.get v V.pgscan_direct);
  Alcotest.(check int) "one name per counter" V.nr_counters
    (Array.length V.names);
  Alcotest.(check string) "kernel names" "workingset_refault"
    (V.name V.workingset_refault);
  Alcotest.(check bool) "indices distinct" true
    (List.length
       (List.sort_uniq compare
          [
            V.pgfault; V.pgmajfault; V.pgscan_kswapd; V.pgscan_direct;
            V.pgsteal; V.pgactivate; V.pgdeactivate; V.pswpin; V.pswpout;
            V.oom_kill; V.workingset_refault; V.workingset_activate;
            V.workingset_restore; V.workingset_shadow_miss;
            V.mglru_aging_passes; V.mglru_promoted; V.mglru_tier_protected;
            V.minor_faults; V.direct_reclaims; V.direct_reclaim_ns;
            V.io_retries; V.io_remaps; V.injected_transient;
            V.injected_permanent; V.injected_stalls; V.injected_tail_spikes;
            V.poisoned_reads; V.writeback_failures; V.oom_discarded_pages;
            V.invariant_violations;
          ])
    = V.nr_counters);
  Alcotest.(check int) "kernel rows end at the MG-LRU counters"
    (V.mglru_tier_protected + 1) V.kernel_counters

let test_dist_buckets () =
  Alcotest.(check int) "0 in bucket 0" 0 (V.dist_bucket 0);
  Alcotest.(check int) "1 in bucket 0" 0 (V.dist_bucket 1);
  Alcotest.(check int) "2 in bucket 1" 1 (V.dist_bucket 2);
  Alcotest.(check int) "3 in bucket 1" 1 (V.dist_bucket 3);
  Alcotest.(check int) "4 in bucket 2" 2 (V.dist_bucket 4);
  Alcotest.(check int) "2^i lower bounds" 10 (V.dist_bucket 1024);
  Alcotest.(check int) "2^(i+1)-1 upper bounds" 10 (V.dist_bucket 2047);
  Alcotest.(check int) "huge distances clamp to the last bucket"
    (V.dist_buckets - 1)
    (V.dist_bucket max_int)

let test_capture_merge_refaults () =
  let v = V.create () in
  V.incr v V.pgsteal;
  V.note_refault_distance v 3;
  V.note_refault_distance v 1000;
  let c = V.capture v in
  Alcotest.(check int) "capture copies counters" 1 c.V.counters.(V.pgsteal);
  Alcotest.(check int) "refaults = histogram mass" 2 (V.refaults c);
  V.incr v V.pgsteal;
  Alcotest.(check int) "capture is a snapshot" 1 c.V.counters.(V.pgsteal);
  let m = V.merge [ c; c; V.empty_capture ] in
  Alcotest.(check int) "merge sums counters" 2 m.V.counters.(V.pgsteal);
  Alcotest.(check int) "merge sums buckets" 4 (V.refaults m);
  Alcotest.(check int) "empty merge" 0 (V.refaults (V.merge []))

(* ------------------------------------------------------------------ *)
(* Workingset shadow entries                                           *)
(* ------------------------------------------------------------------ *)

let test_workingset_classify () =
  let ws = W.create ~capacity:4 in
  let tok = W.note_eviction ws ~was_active:true in
  Alcotest.(check bool) "token is not no_shadow" true (tok <> W.no_shadow);
  Alcotest.(check bool) "was_active packed" true (W.shadow_was_active tok);
  (* Three other evictions happen before the refault. *)
  for _ = 1 to 3 do
    ignore (W.note_eviction ws ~was_active:false)
  done;
  let r = W.classify ws ~shadow:tok in
  Alcotest.(check int) "distance counts intervening evictions" 3 r.W.distance;
  Alcotest.(check bool) "within capacity activates" true r.W.activated;
  Alcotest.(check bool) "restore follows was_active" true r.W.restored;
  (* A colder page: more evictions than capacity in between. *)
  let tok2 = W.note_eviction ws ~was_active:false in
  for _ = 1 to 5 do
    ignore (W.note_eviction ws ~was_active:false)
  done;
  let r2 = W.classify ws ~shadow:tok2 in
  Alcotest.(check int) "distance 5" 5 r2.W.distance;
  Alcotest.(check bool) "beyond capacity does not activate" false
    r2.W.activated;
  Alcotest.(check bool) "not restored" false r2.W.restored

(* The defining invariant, against a brute-force oracle: the distance
   is exactly the number of other evictions between a page's eviction
   and its refault, whatever the interleaving. *)
let workingset_distance_prop =
  QCheck.Test.make ~count:300
    ~name:"refault distance == evictions between eviction and refault"
    (* Each entry: evictions before ours, then evictions before the
       refault, plus the activation capacity. *)
    QCheck.(triple (int_bound 50) (int_bound 200) (int_range 1 64))
    (fun (before, between, capacity) ->
      let ws = W.create ~capacity in
      for _ = 1 to before do
        ignore (W.note_eviction ws ~was_active:false)
      done;
      let tok = W.note_eviction ws ~was_active:true in
      for _ = 1 to between do
        ignore (W.note_eviction ws ~was_active:false)
      done;
      let r = W.classify ws ~shadow:tok in
      r.W.distance = between
      && r.W.activated = (between <= capacity)
      && r.W.restored)

let test_page_table_shadows () =
  let pt = Mem.Page_table.create ~region_size:16 ~pages:64 () in
  Alcotest.(check int) "fresh slot has no shadow" W.no_shadow
    (Mem.Page_table.shadow pt 5);
  (* Clearing before any store must not allocate or fail. *)
  Mem.Page_table.clear_shadow pt 5;
  Mem.Page_table.set_shadow pt 5 42;
  Mem.Page_table.set_shadow pt 63 7;
  Alcotest.(check int) "stored" 42 (Mem.Page_table.shadow pt 5);
  Alcotest.(check int) "independent slots" 7 (Mem.Page_table.shadow pt 63);
  Mem.Page_table.clear_shadow pt 5;
  Alcotest.(check int) "cleared" W.no_shadow (Mem.Page_table.shadow pt 5);
  Alcotest.(check int) "other slot survives" 7 (Mem.Page_table.shadow pt 63)

(* ------------------------------------------------------------------ *)
(* Machine integration                                                 *)
(* ------------------------------------------------------------------ *)

let trace_workload ?(footprint = 64) lists =
  let w = Workload.Trace.of_page_lists ~footprint lists in
  C.Packed ((module Workload.Trace), w)

let run ?damon ?(capacity = 16) ~policy lists =
  M.run
    {
      (M.default_config ~capacity_frames:capacity ~seed:7) with
      M.kthread_jitter_ns = 0;
      obs = { Obs.off with damon };
    }
    ~policy:(Policy.Registry.create policy)
    ~workload:(trace_workload lists)

let thrash = [ Array.init 32 (fun i -> i); Array.init 32 (fun i -> i) ]

let test_machine_capture () =
  let r = run ~policy:Policy.Registry.Clock thrash in
  Alcotest.(check bool) "no monitor: no heatmap" true (r.M.heatmap = None);
  let c = r.M.counters in
  Alcotest.(check int) "capture holds every counter" V.nr_counters
    (Array.length c.V.counters);
  Alcotest.(check int) "pgmajfault mirrors the result" r.M.major_faults
    c.V.counters.(V.pgmajfault);
  Alcotest.(check int) "minor_faults mirrors the result" r.M.minor_faults
    c.V.counters.(V.minor_faults);
  Alcotest.(check bool) "faults include minors" true
    (c.V.counters.(V.pgfault) >= r.M.minor_faults + r.M.major_faults);
  Alcotest.(check bool) "thrash steals pages" true
    (c.V.counters.(V.pgsteal) > 0);
  (* Every classified refault lands one histogram sample. *)
  Alcotest.(check int) "histogram mass = workingset_refault"
    c.V.counters.(V.workingset_refault)
    (V.refaults c);
  Alcotest.(check int) "shadows never torn down here" 0
    c.V.counters.(V.workingset_shadow_miss)

let test_machine_policy_split () =
  let cap policy = (run ~policy thrash).M.counters in
  let clock = cap Policy.Registry.Clock in
  let mglru = cap Policy.Registry.Mglru_default in
  (* The paper's split: Clock churns the active/inactive boundary
     (pgactivate/pgdeactivate), MG-LRU promotes across generations. *)
  Alcotest.(check int) "clock has no mglru counters" 0
    (clock.V.counters.(V.mglru_promoted)
    + clock.V.counters.(V.mglru_aging_passes));
  Alcotest.(check int) "mglru has no clock ping-pongs" 0
    (mglru.V.counters.(V.pgactivate) + mglru.V.counters.(V.pgdeactivate));
  Alcotest.(check bool) "mglru ages" true
    (mglru.V.counters.(V.mglru_aging_passes) > 0)

let test_machine_damon () =
  let r =
    run ~damon:Mem.Damon.default_config ~policy:Policy.Registry.Clock thrash
  in
  let plain = run ~policy:Policy.Registry.Clock thrash in
  Alcotest.(check int) "monitoring does not perturb" plain.M.runtime_ns
    r.M.runtime_ns;
  match r.M.heatmap with
  | None -> Alcotest.fail "heatmap missing"
  | Some { Mem.Damon.rows } ->
    Alcotest.(check bool) "rows recorded" true (Array.length rows > 0);
    let times = ref [] in
    Array.iter
      (fun (w : Mem.Damon.row) ->
        Alcotest.(check bool) "region within the space" true
          (w.Mem.Damon.w_start >= 0
          && w.Mem.Damon.w_pages > 0
          && w.Mem.Damon.w_start + w.Mem.Damon.w_pages <= 64);
        Alcotest.(check bool) "accessed bounded by region size" true
          (w.Mem.Damon.w_accessed >= 0
          && w.Mem.Damon.w_accessed <= w.Mem.Damon.w_pages);
        if not (List.mem w.Mem.Damon.w_t_ns !times) then
          times := w.Mem.Damon.w_t_ns :: !times)
      rows;
    (* Each tick's regions tile the whole address space. *)
    List.iter
      (fun t ->
        let covered =
          Array.fold_left
            (fun acc (w : Mem.Damon.row) ->
              if w.Mem.Damon.w_t_ns = t then acc + w.Mem.Damon.w_pages
              else acc)
            0 rows
        in
        Alcotest.(check int) "full coverage per tick" 64 covered)
      !times

(* ------------------------------------------------------------------ *)
(* Runner integration: captures are merged deterministically.          *)
(* ------------------------------------------------------------------ *)

let fast_profile = { R.trials = 2; ycsb_trials = 1; fast = true; scale = 1 }

let cell_caps ~jobs =
  let ctx = R.make_ctx ~profile:fast_profile ~jobs () in
  ignore
    (R.try_cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Clock ~ratio:0.5
       ~swap:R.Ssd);
  List.map
    (fun (e, c) -> (R.exp_name e, c))
    (R.vmstat_cells ctx)

let test_runner_jobs_identity () =
  let serial = cell_caps ~jobs:1 in
  let parallel = cell_caps ~jobs:4 in
  Alcotest.(check int) "one cell" 1 (List.length serial);
  Alcotest.(check bool) "captures non-trivial" true
    (V.refaults (snd (List.hd serial)) > 0);
  Alcotest.(check bool) "jobs=1 == jobs=4" true (serial = parallel)

(* The bytes of [repro heatmap --fast --trials 1 -w tpch --interval 500]
   (Clock and MG-LRU, SSD, 50 %): a change to the region monitor, the
   CSV writer or the runs underneath that moves one row fails here. *)
let test_heatmap_pinned () =
  let ctx =
    R.make_ctx ~profile:{ fast_profile with R.trials = 1 } ~jobs:1 ()
  in
  let damon =
    { Mem.Damon.default_config with Mem.Damon.aggregate_every_ns = 500_000_000 }
  in
  let ctx = R.derive ~obs:{ (R.obs ctx) with Obs.damon = Some damon } ctx in
  R.prefetch ctx
    (List.concat_map
       (fun policy ->
         R.cell_exps ctx ~workload:R.Tpch ~policy ~ratio:0.5 ~swap:R.Ssd)
       Policy.Registry.[ Clock; Mglru_default ]);
  let path = Filename.temp_file "heatmap" ".csv" in
  let rows = R.write_heatmap ctx ~path in
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  Alcotest.(check bool) "rows written" true (rows > 0);
  Alcotest.(check string) "csv md5" "f534f99b2fb00552c7f3ca5c8b68c5b3" digest

let () =
  Alcotest.run "vmstat"
    [
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick test_registry_basics;
          Alcotest.test_case "distance buckets" `Quick test_dist_buckets;
          Alcotest.test_case "capture/merge/refaults" `Quick
            test_capture_merge_refaults;
        ] );
      ( "workingset",
        [
          Alcotest.test_case "classify" `Quick test_workingset_classify;
          QCheck_alcotest.to_alcotest workingset_distance_prop;
          Alcotest.test_case "page-table shadows" `Quick
            test_page_table_shadows;
        ] );
      ( "machine",
        [
          Alcotest.test_case "capture" `Quick
            test_machine_capture;
          Alcotest.test_case "clock/mglru counter split" `Quick
            test_machine_policy_split;
          Alcotest.test_case "damon heatmap" `Quick test_machine_damon;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs identity" `Slow test_runner_jobs_identity;
          Alcotest.test_case "heatmap pinned" `Quick test_heatmap_pinned;
        ] );
    ]
