(* The single counter store: every integer event counter of a trial —
   kernel rows and simulator rows alike — lives in one Obs.Vmstat
   registry, shared by the fault injector, the swap manager and the
   machine.  These tests pin the wire order, check that each layer
   counts into the registry it is handed, and cross-check related
   counters against each other on real machine runs. *)

module V = Obs.Vmstat
module F = Swapdev.Faulty_device
module SM = Swapdev.Swap_manager
module M = Repro_core.Machine
module C = Workload.Chunk

(* ------------------------------------------------------------------ *)
(* Registry layout                                                     *)
(* ------------------------------------------------------------------ *)

let kernel_rows =
  [
    "pgfault"; "pgmajfault"; "pgscan_kswapd"; "pgscan_direct"; "pgsteal";
    "pgactivate"; "pgdeactivate"; "pswpin"; "pswpout"; "oom_kill";
    "workingset_refault"; "workingset_activate"; "workingset_restore";
    "workingset_shadow_miss"; "mglru_aging_passes"; "mglru_promoted";
    "mglru_tier_protected";
  ]

let simulator_rows =
  [
    (V.minor_faults, "minor_faults");
    (V.direct_reclaims, "direct_reclaims");
    (V.direct_reclaim_ns, "direct_reclaim_ns");
    (V.io_retries, "io_retries");
    (V.io_remaps, "io_remaps");
    (V.injected_transient, "injected_transient");
    (V.injected_permanent, "injected_permanent");
    (V.injected_stalls, "injected_stalls");
    (V.injected_tail_spikes, "injected_tail_spikes");
    (V.poisoned_reads, "poisoned_reads");
    (V.writeback_failures, "writeback_failures");
    (V.oom_discarded_pages, "oom_discarded_pages");
    (V.invariant_violations, "invariant_violations");
  ]

let test_names_unique_snake_case () =
  let names = Array.to_list V.names in
  Alcotest.(check int) "no duplicate names" V.nr_counters
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is snake_case") true
        (n <> ""
        && String.for_all
             (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
             n))
    names

let test_name_out_of_range () =
  List.iter
    (fun i ->
      match V.name i with
      | n -> Alcotest.failf "index %d named %S" i n
      | exception Invalid_argument _ -> ())
    [ -1; V.nr_counters; max_int ]

(* Journal captures encode in index order, so the kernel rows may never
   move: a reorder would silently relabel every stored capture. *)
let test_kernel_row_order () =
  Alcotest.(check int) "kernel row count" (List.length kernel_rows)
    V.kernel_counters;
  Alcotest.(check (list string)) "kernel rows in wire order" kernel_rows
    (List.init V.kernel_counters V.name)

let test_simulator_rows_appended () =
  List.iteri
    (fun k (i, n) ->
      Alcotest.(check int) (n ^ " index") (V.kernel_counters + k) i;
      Alcotest.(check string) (n ^ " name") n (V.name i))
    simulator_rows;
  Alcotest.(check int) "nothing after the simulator rows"
    (V.kernel_counters + List.length simulator_rows)
    V.nr_counters

let add_get_prop =
  QCheck.Test.make ~count:200 ~name:"get = sum of positive adds"
    QCheck.(pair (int_bound (V.nr_counters - 1)) (small_list (int_range (-50) 50)))
    (fun (i, deltas) ->
      let v = V.create () in
      List.iter (V.add v i) deltas;
      let others_zero =
        List.for_all (fun j -> j = i || V.get v j = 0)
          (List.init V.nr_counters Fun.id)
      in
      V.get v i = List.fold_left (fun acc d -> acc + max d 0) 0 deltas
      && others_zero)

let gen_capture =
  QCheck.Gen.(
    map2
      (fun counters refault_dist -> { V.counters; refault_dist })
      (array_repeat V.nr_counters (int_bound 10_000))
      (array_repeat V.dist_buckets (int_bound 100)))

let merge_prop =
  QCheck.Test.make ~count:200 ~name:"merge is the element-wise sum"
    (QCheck.make QCheck.Gen.(list_size (int_bound 5) gen_capture))
    (fun caps ->
      let m = V.merge caps in
      let sum f i = List.fold_left (fun acc c -> acc + (f c).(i)) 0 caps in
      Array.length m.V.counters = V.nr_counters
      && Array.length m.V.refault_dist = V.dist_buckets
      && List.for_all
           (fun i -> V.count m i = sum (fun c -> c.V.counters) i)
           (List.init V.nr_counters Fun.id)
      && List.for_all
           (fun i -> m.V.refault_dist.(i) = sum (fun c -> c.V.refault_dist) i)
           (List.init V.dist_buckets Fun.id))

(* Captures always hold every counter and bucket of the build; the
   journal refuses records of another length (test_journal). *)
let test_capture_lengths () =
  List.iter
    (fun (what, c) ->
      Alcotest.(check int) (what ^ ": counters") V.nr_counters
        (Array.length c.V.counters);
      Alcotest.(check int) (what ^ ": buckets") V.dist_buckets
        (Array.length c.V.refault_dist))
    [
      ("empty capture", V.empty_capture);
      ("live capture", V.capture (V.create ()));
      ("merge of none", V.merge []);
    ]

(* ------------------------------------------------------------------ *)
(* Swap manager and injector count into the registry they are handed   *)
(* ------------------------------------------------------------------ *)

(* A swap manager over a fault-injected ZRAM device, both counting into
   one registry, as the machine wires them. *)
let manager ?max_retries plan =
  let vm = V.create () in
  let inner =
    Swapdev.Zram.create
      ~config:{ Swapdev.Zram.default_config with Swapdev.Zram.jitter = 0.0 }
      ~rng:(Engine.Rng.create 3) ()
  in
  let device = F.wrap ~plan ~rng:(Engine.Rng.create 42) ~vmstat:vm inner in
  (SM.create ?max_retries ~vmstat:vm ~device ~seed:9 (), vm)

let swap_out m key =
  SM.swap_out_slot m ~now:0 ~klass:Swapdev.Compress.Numeric ~page_key:key

let test_transient_write_retried () =
  (* The first op of every pair fails transiently; one retry suffices. *)
  let m, vm =
    manager { F.none with F.burst_every_ops = 2; burst_len_ops = 1 }
  in
  let slot = swap_out m 1 in
  Alcotest.(check bool) "written" true (slot >= 0 && not (SM.last_failed m));
  Alcotest.(check int) "one retry" 1 (SM.last_io_retries m);
  Alcotest.(check int) "registry io_retries" 1 (V.get vm V.io_retries);
  Alcotest.(check int) "injector counted the error" 1
    (V.get vm V.injected_transient);
  Alcotest.(check int) "one pswpout for the logical write" 1
    (V.get vm V.pswpout);
  Alcotest.(check int) "no remap on a transient error" 0 (V.get vm V.io_remaps)

let test_permanent_write_remapped () =
  let m, vm =
    manager
      { F.none with F.burst_every_ops = 2; burst_len_ops = 1;
        burst_permanent = true }
  in
  let slot = swap_out m 1 in
  Alcotest.(check bool) "written to a fresh slot" true
    (slot >= 0 && SM.slot_in_use m slot);
  Alcotest.(check int) "bad slot released" 1 (SM.used_slots m);
  Alcotest.(check int) "registry io_remaps" 1 (V.get vm V.io_remaps);
  Alcotest.(check int) "remap is a retry" 1 (V.get vm V.io_retries);
  Alcotest.(check int) "injector counted the error" 1
    (V.get vm V.injected_permanent);
  Alcotest.(check int) "pswpout" 1 (V.get vm V.pswpout)

let test_exhausted_write_not_a_pswpout () =
  let m, vm =
    manager ~max_retries:3 { F.none with F.write_error_prob = 1.0 }
  in
  Alcotest.(check int) "write gave up" (-1) (swap_out m 1);
  Alcotest.(check bool) "last_failed" true (SM.last_failed m);
  Alcotest.(check int) "no slot kept" 0 (SM.used_slots m);
  Alcotest.(check int) "no pswpout" 0 (V.get vm V.pswpout);
  Alcotest.(check int) "retry budget spent" 3 (V.get vm V.io_retries);
  (* Every attempt, the last included, was an injected error. *)
  Alcotest.(check int) "one injection per attempt" 4
    (V.get vm V.injected_transient)

let test_lost_read_not_a_pswpin () =
  let m, vm =
    manager
      { F.none with F.read_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let slot = swap_out m 1 in
  Alcotest.(check int) "write unaffected" 1 (V.get vm V.pswpout);
  SM.swap_in_slot m ~now:1_000_000 ~slot;
  Alcotest.(check bool) "read lost" true (SM.last_failed m);
  Alcotest.(check int) "no pswpin" 0 (V.get vm V.pswpin);
  Alcotest.(check int) "permanent reads are not retried" 0
    (V.get vm V.io_retries);
  Alcotest.(check int) "injected once" 1 (V.get vm V.injected_permanent)

(* ------------------------------------------------------------------ *)
(* Machine runs                                                        *)
(* ------------------------------------------------------------------ *)

let thrash n =
  [ Array.init n (fun i -> i); Array.init n (fun i -> (i * 7) mod n);
    Array.init n (fun i -> i) ]

let run ?(plan = F.none) ?(capacity = 16) ?(audit_every_ns = 0) ~policy lists =
  let w = Workload.Trace.of_page_lists ~footprint:64 lists in
  M.run
    {
      (M.default_config ~capacity_frames:capacity ~seed:7) with
      M.kthread_jitter_ns = 0;
      fault_plan = plan;
      audit_every_ns;
    }
    ~policy:(Policy.Registry.create policy)
    ~workload:(C.Packed ((module Workload.Trace), w))

let policies =
  Policy.Registry.[ Clock; Mglru_default; Fifo; Lru_exact; S3_fifo; Sieve ]

let test_fields_mirror_capture () =
  List.iter
    (fun policy ->
      let r = run ~policy (thrash 40) in
      let name = Policy.Registry.name policy in
      Alcotest.(check int) (name ^ ": every counter") V.nr_counters
        (Array.length r.M.counters.V.counters);
      Alcotest.(check int) (name ^ ": major_faults") (M.count r V.pgmajfault)
        r.M.major_faults;
      Alcotest.(check int) (name ^ ": minor_faults") (M.count r V.minor_faults)
        r.M.minor_faults;
      Alcotest.(check int) (name ^ ": count reads the capture")
        (V.count r.M.counters V.pswpout) (M.count r V.pswpout);
      Alcotest.(check bool) (name ^ ": pgfault covers both kinds") true
        (M.count r V.pgfault >= r.M.minor_faults + r.M.major_faults))
    policies

let test_fault_free_recovery_counters_zero () =
  let r = run ~policy:Policy.Registry.Clock (thrash 48) in
  Alcotest.(check bool) "the run swapped" true (M.count r V.pswpin > 0);
  List.iter
    (fun i -> Alcotest.(check int) (V.name i) 0 (M.count r i))
    V.[
      io_retries; io_remaps; injected_transient; injected_permanent;
      injected_stalls; injected_tail_spikes; poisoned_reads;
      writeback_failures; oom_kill; oom_discarded_pages; invariant_violations;
    ]

let test_direct_reclaim_latency_paired () =
  let quiet = run ~capacity:32 ~policy:Policy.Registry.Clock [ Array.init 16 Fun.id ] in
  Alcotest.(check int) "no pressure: no episodes" 0
    (M.count quiet V.direct_reclaims);
  Alcotest.(check int) "no pressure: no latency" 0
    (M.count quiet V.direct_reclaim_ns);
  List.iter
    (fun policy ->
      let r = run ~capacity:8 ~policy (thrash 48) in
      let name = Policy.Registry.name policy in
      let episodes = M.count r V.direct_reclaims in
      Alcotest.(check bool) (name ^ ": pressure enters direct reclaim") true
        (episodes > 0);
      Alcotest.(check bool) (name ^ ": every episode costs time") true
        (M.count r V.direct_reclaim_ns >= episodes))
    [ Policy.Registry.Clock; Policy.Registry.Mglru_default ]

let test_transient_plan_retries_bounded () =
  (* Only transient errors: every retry answers an injected error, and
     nothing is ever remapped or lost. *)
  let plan = { F.none with F.read_error_prob = 0.3; write_error_prob = 0.3 } in
  let r = run ~plan ~policy:Policy.Registry.Mglru_default (thrash 48) in
  let injected = M.count r V.injected_transient in
  Alcotest.(check bool) "errors injected" true (injected > 0);
  Alcotest.(check bool) "retries bounded by injections" true
    (M.count r V.io_retries > 0 && M.count r V.io_retries <= injected);
  Alcotest.(check int) "no permanent injections" 0
    (M.count r V.injected_permanent);
  Alcotest.(check int) "no remaps" 0 (M.count r V.io_remaps)

let test_oom_discards_need_kills () =
  let plan =
    { F.none with F.write_error_prob = 1.0; permanent_fraction = 1.0 }
  in
  let r = run ~plan ~audit_every_ns:1_000_000 ~policy:Policy.Registry.Clock (thrash 64) in
  let kills = M.count r V.oom_kill in
  Alcotest.(check bool) "failed writebacks pinned pages" true
    (M.count r V.writeback_failures > 0);
  Alcotest.(check bool) "killed" true (kills > 0);
  Alcotest.(check bool) "kills discard pages" true
    (M.count r V.oom_discarded_pages >= kills);
  Alcotest.(check int) "nothing ever reached swap" 0 (M.count r V.pswpout);
  Alcotest.(check int) "invariants hold" 0 (M.count r V.invariant_violations)

let test_capture_deterministic () =
  let go () =
    run ~plan:F.heavy ~audit_every_ns:5_000_000
      ~policy:Policy.Registry.Mglru_default (thrash 64)
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical captures" true
    (a.M.counters = b.M.counters);
  Alcotest.(check bool) "heavy plan injected" true
    (M.count a V.injected_permanent > 0)

let () =
  Alcotest.run "counters"
    [
      ( "registry",
        [
          Alcotest.test_case "names unique, snake_case" `Quick
            test_names_unique_snake_case;
          Alcotest.test_case "name out of range" `Quick test_name_out_of_range;
          Alcotest.test_case "kernel row order" `Quick test_kernel_row_order;
          Alcotest.test_case "simulator rows appended" `Quick
            test_simulator_rows_appended;
          QCheck_alcotest.to_alcotest add_get_prop;
          QCheck_alcotest.to_alcotest merge_prop;
          Alcotest.test_case "captures have full lengths" `Quick
            test_capture_lengths;
        ] );
      ( "swap",
        [
          Alcotest.test_case "transient write retried" `Quick
            test_transient_write_retried;
          Alcotest.test_case "permanent write remapped" `Quick
            test_permanent_write_remapped;
          Alcotest.test_case "exhausted write is no pswpout" `Quick
            test_exhausted_write_not_a_pswpout;
          Alcotest.test_case "lost read is no pswpin" `Quick
            test_lost_read_not_a_pswpin;
        ] );
      ( "machine",
        [
          Alcotest.test_case "fields mirror the capture" `Quick
            test_fields_mirror_capture;
          Alcotest.test_case "fault-free recovery counters zero" `Quick
            test_fault_free_recovery_counters_zero;
          Alcotest.test_case "direct reclaim latency paired" `Quick
            test_direct_reclaim_latency_paired;
          Alcotest.test_case "transient plan retries bounded" `Quick
            test_transient_plan_retries_bounded;
          Alcotest.test_case "oom discards need kills" `Quick
            test_oom_discards_need_kills;
          Alcotest.test_case "capture deterministic" `Quick
            test_capture_deterministic;
        ] );
    ]
