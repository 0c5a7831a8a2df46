(* Journal unit tests: record framing and checksums, bit-exact result
   round-trips, torn-tail detection, last-wins dedup, resume-time
   compaction, and the run-configuration header. *)

module J = Repro_core.Journal
module R = Repro_core.Runner
module M = Repro_core.Machine
module A = Repro_core.Atomic_io
module L = Structures.Latencies

let fast_profile = { R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 }

let fingerprint = R.fingerprint (R.make_ctx ~profile:fast_profile ())

let sample_exp =
  {
    R.workload = R.Ycsb Workload.Ycsb.A;
    policy = Policy.Registry.Clock;
    ratio = 0.5;
    swap = R.Ssd;
    trial = 0;
  }

(* One real trial result, so the round-trip test covers every field the
   simulator actually produces (latency arrays included). *)
let sample_result =
  lazy (R.run_exp (R.make_ctx ~profile:fast_profile ()) sample_exp)

let ok_record () =
  let r = Lazy.force sample_result in
  {
    J.key = "ycsb-a/clock/0.5/ssd/t0";
    status = J.Trial_ok;
    reason = "";
    result = Some { r with M.trace = None };
  }

let check_round_trip name rec_ =
  match J.record_of_line (J.record_to_line rec_) with
  | Error msg -> Alcotest.failf "%s: decode failed: %s" name msg
  | Ok got ->
    Alcotest.(check string) (name ^ " key") rec_.J.key got.J.key;
    Alcotest.(check string)
      (name ^ " status")
      (J.status_name rec_.J.status)
      (J.status_name got.J.status);
    Alcotest.(check string) (name ^ " reason") rec_.J.reason got.J.reason;
    Alcotest.(check bool) (name ^ " full record equal") true (got = rec_)

let test_ok_round_trip () =
  let rec_ = ok_record () in
  check_round_trip "ok" rec_;
  (* The success payload must round-trip bit-exactly: resumed sweeps
     feed these numbers back into byte-identical reports. *)
  match J.record_of_line (J.record_to_line rec_) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok { J.result = None; _ } -> Alcotest.fail "ok record lost its result"
  | Ok { J.result = Some got; _ } ->
    let want = Option.get rec_.J.result in
    Alcotest.(check int) "runtime_ns" want.M.runtime_ns got.M.runtime_ns;
    Alcotest.(check int) "major_faults" want.M.major_faults got.M.major_faults;
    Alcotest.(check string) "policy_name" want.M.policy_name got.M.policy_name;
    Alcotest.(check (array int)) "read latencies" (L.to_array want.M.read_latencies)
      (L.to_array got.M.read_latencies);
    Alcotest.(check (array int)) "write latencies" (L.to_array want.M.write_latencies)
      (L.to_array got.M.write_latencies);
    Alcotest.(check bool) "policy stats equal" true
      (want.M.policy_stats = got.M.policy_stats);
    Alcotest.(check bool) "trace never journaled" true (got.M.trace = None)

let test_awkward_latencies_round_trip () =
  (* Runs of one value, zero, and values no float holds exactly. *)
  let r = Lazy.force sample_result in
  let rec_ =
    {
      J.key = "k";
      status = J.Trial_ok;
      reason = "";
      result =
        Some
          {
            r with
            M.read_latencies =
              L.of_sorted
                [| 0; 0; 0; 1; 1_000_000_000; (1 lsl 53) + 1; max_int - 1; max_int; max_int |];
            write_latencies = L.empty;
            trace = None;
          };
    }
  in
  match J.record_of_line (J.record_to_line rec_) with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok { J.result = Some got; _ } ->
    Alcotest.(check (array int)) "every latency back"
      (L.to_array (Option.get rec_.J.result).M.read_latencies)
      (L.to_array got.M.read_latencies);
    Alcotest.(check int) "empty runs survive" 0 (L.count got.M.write_latencies)
  | Ok _ -> Alcotest.fail "result lost"

let test_failure_round_trips () =
  check_round_trip "failed"
    {
      J.key = "tpch/crash-test/0.5/ssd/t0";
      status = J.Trial_failed;
      reason = "Failure(\"crash-test policy: deliberate failure\")";
      result = None;
    };
  check_round_trip "timeout"
    {
      J.key = "pagerank/mglru/0.9/zram/t3";
      status = J.Trial_timeout;
      reason = "exceeded 0.5s wall-clock trial deadline";
      result = None;
    }

let test_checksum_detects_corruption () =
  let line = J.record_to_line (ok_record ()) in
  (* Flip one payload byte: the checksum must catch it. *)
  let corrupt = Bytes.of_string line in
  let i = String.length line - 5 in
  Bytes.set corrupt i (if Bytes.get corrupt i = '0' then '1' else '0');
  (match J.record_of_line (Bytes.to_string corrupt) with
  | Ok _ -> Alcotest.fail "accepted a corrupted record"
  | Error msg ->
    Alcotest.(check bool) "reports checksum" true
      (String.length msg > 0));
  (* A torn (truncated) line must also be rejected at every cut. *)
  List.iter
    (fun keep ->
      match J.record_of_line (String.sub line 0 keep) with
      | Ok _ -> Alcotest.failf "accepted a %d-byte torn record" keep
      | Error _ -> ())
    [ 0; 1; 10; 41; 42; 60; String.length line - 1 ]

(* A hand-built record touching every payload layout: latencies a
   decimal printer would mangle, two cgroups with latencies, profile
   totals and chaos tallies. *)
let pinned_record =
  let module V = Obs.Vmstat in
  let counters =
    {
      V.counters = Array.init V.nr_counters (fun i -> i * 7);
      refault_dist = Array.init V.dist_buckets (fun i -> i * i);
    }
  in
  let group name ~rlat ~wlat =
    {
      Mem.Memcg.r_name = name;
      r_usage = 254;
      r_low = 0;
      r_high = 421;
      r_max = -1;
      r_limit = -1;
      r_throttles = 3;
      r_throttled_ns = 12_345;
      r_oom_kills = 1;
      r_psi_some_ns = 61_948_191_879;
      r_psi_full_ns = 33_013_171_182;
      r_read_latencies = L.of_sorted rlat;
      r_write_latencies = L.of_sorted wlat;
      r_vm = Array.init Mem.Memcg.nr_stats (fun i -> 1000 + i);
    }
  in
  let chaos = Repro_core.Chaos.fresh_summary () in
  chaos.s_events <- 2;
  chaos.s_offlined <- 168;
  chaos.s_onlined <- 168;
  chaos.s_migrated <- 5;
  chaos.s_corrupted <- 1;
  {
    J.key = "tpch/mglru/0.5/ssd/t0@0123456789abcdef";
    status = J.Trial_ok;
    reason = "";
    result =
      Some
        {
          M.runtime_ns = 77_831_637_081;
          major_faults = V.count counters V.pgmajfault;
          minor_faults = V.count counters V.minor_faults;
          read_latencies = L.of_sorted [| 0; 7; 7; 7; 250; 123_456_789 |];
          write_latencies = L.of_sorted [| 2_500_000_000; 2_500_000_000 |];
          per_thread_finish = [| 77_831_637_081; 5; 0 |];
          cpu_busy_ns = 295_029_579_632;
          policy_stats = [ ("evictions", 18_771); ("refaults", 17_066) ];
          policy_name = "mglru";
          resident_at_end = 1670;
          counters;
          memcg =
            Some
              {
                Mem.Memcg.s_groups =
                  [
                    group "app" ~rlat:[| 3; 250 |] ~wlat:[| 3 |];
                    group "bg" ~rlat:[||] ~wlat:[| 1; 1; max_int |];
                  ];
                s_some_ns = 69_889_748_818;
                s_full_ns = 1_018_743_621;
              };
          chaos = Some chaos;
          trace = None;
          profile =
            Some
              {
                Obs.Prof.classes = [| "app"; "kswapd" |];
                threads = [| (0, "app0", 0); (12, "kswapd", 1) |];
                totals = [| (0, 0x1, 289_764_422_720); (0, 0x126, 28_308_360); (1, 0x63, 7) |];
                spans = [||];
              };
          heatmap = None;
        };
  }

let pinned_line =
  String.concat ""
    [
      {|{"sum":"b950b4f41a8dde40f2d3eaca95ab48ec"|};
      {|,"key":"tpch/mglru/0.5/ssd/t0@0123456789abcdef"|};
      {|,"status":"ok"|};
      {|,"reason":""|};
      {|,"runtime_ns":77831637081|};
      {|,"counters":"v1:0;7;14;21;28;35;42;49;56;63;70;77;84;91;98;105|};
      {|;112;119;126;133;140;147;154;161;168;175;182;189;196;203|0;1;4;9|};
      {|;16;25;36;49;64;81;100;121;144;169;196;225;256;289;324;361;400|};
      {|;441;484;529"|};
      {|,"read_latencies":"0:1 7:3 250:1 123456789:1"|};
      {|,"write_latencies":"2500000000:2"|};
      {|,"per_thread_finish":"77831637081 5 0"|};
      {|,"cpu_busy_ns":295029579632|};
      {|,"policy_stats":"evictions=18771;refaults=17066"|};
      {|,"policy_name":"mglru"|};
      {|,"resident_at_end":1670|};
      {|,"profile":"app,kswapd|0:app0:0;12:kswapd:1|0:1:289764422720|};
      {|;0:126:28308360;1:63:7"|};
      {|,"cgroups":"some=69889748818,full=1018743621|name=app;usage=254|};
      {|;low=0;high=421;max=-1;limit=-1;throttles=3;throttled_ns=12345|};
      {|;oom_kills=1;psi_some_ns=61948191879;psi_full_ns=33013171182|};
      {|;rlat=3:1 250:1;wlat=3:1;vm=1000 1001 1002 1003 1004 1005 1006|};
      {| 1007|name=bg;usage=254;low=0;high=421;max=-1;limit=-1;throttles=3|};
      {|;throttled_ns=12345;oom_kills=1;psi_some_ns=61948191879|};
      {|;psi_full_ns=33013171182;rlat=;wlat=1:2 4611686018427387903:1|};
      {|;vm=1000 1001 1002 1003 1004 1005 1006 1007"|};
      {|,"chaos":"ev=2,off=168,on=168,mig=5,evi=0,skip=0,lim=0,dev=0,stall|};
      {|=0,corr=1"}|};
    ]

(* The bytes of every payload layout.  Journals on disk hold exactly
   these, so a change here orphans every one of them. *)
let test_pinned_line () =
  let line = J.record_to_line pinned_record in
  Alcotest.(check string) "record bytes" pinned_line line;
  match J.record_of_line line with
  | Ok got ->
    Alcotest.(check bool) "decodes to the record" true (compare got pinned_record = 0)
  | Error msg -> Alcotest.failf "pinned line rejected: %s" msg

let with_temp_journal f =
  let path = Filename.temp_file "journal_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* The journal `repro run -w ycsb-a -p mglru --fast --ycsb-trials 2
   --jobs 1 --journal FILE` writes: a header and two records whose
   latency fields are long value:count runs.  The golden journal is
   TPC-H only, so these are the pinned bytes of the latency layout. *)
let test_pinned_ycsb_journal () =
  with_temp_journal (fun path ->
      let profile = { R.default_profile with R.ycsb_trials = 2; fast = true } in
      let fingerprint = R.fingerprint (R.make_ctx ~profile ()) in
      let j, _ = J.open_ ~path ~resume:false ~fingerprint in
      let ctx = R.make_ctx ~profile ~jobs:1 ~journal:j () in
      ignore
        (R.try_cell ctx ~workload:(R.Ycsb Workload.Ycsb.A)
           ~policy:Policy.Registry.Mglru_default ~ratio:0.5 ~swap:R.Ssd);
      J.close j;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "journal size" 1_078_571 (String.length bytes);
      Alcotest.(check string) "journal md5" "626f49c7ddd49e693306f6c10a981e03"
        (Digest.to_hex (Digest.string bytes)))

let append_raw path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let failed_record key =
  { J.key; status = J.Trial_failed; reason = "boom"; result = None }

let test_append_load_cycle () =
  with_temp_journal (fun path ->
      let t, loaded = J.open_ ~path ~resume:false ~fingerprint in
      Alcotest.(check int) "fresh journal empty" 0 (List.length loaded);
      J.append t (ok_record ());
      J.append t (failed_record "a");
      J.append t (failed_record "b");
      J.close t;
      J.close t;
      (* idempotent *)
      let records = J.load ~path in
      Alcotest.(check (list string))
        "keys in order"
        [ (ok_record ()).J.key; "a"; "b" ]
        (List.map (fun r -> r.J.key) records))

let test_torn_tail_skipped () =
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint in
      J.append t (failed_record "a");
      J.append t (ok_record ());
      J.close t;
      (* Simulate a crash mid-append: half a record at the tail. *)
      let torn = J.record_to_line (failed_record "c") in
      append_raw path (String.sub torn 0 (String.length torn - 20) ^ "\n");
      let records = J.load ~path in
      Alcotest.(check (list string))
        "torn tail dropped, prefix intact"
        [ "a"; (ok_record ()).J.key ]
        (List.map (fun r -> r.J.key) records))

let test_dedup_last_wins () =
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint in
      J.append t (failed_record "x");
      J.append t (failed_record "y");
      (* The retried trial supersedes its earlier failure. *)
      J.append t { (ok_record ()) with J.key = "x" };
      J.close t;
      let records = J.load ~path in
      Alcotest.(check int) "two records after dedup" 2 (List.length records);
      let x = List.find (fun r -> r.J.key = "x") records in
      Alcotest.(check string) "last occurrence wins" "ok"
        (J.status_name x.J.status))

let count_lines path =
  let ic = open_in_bin path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let test_resume_compacts_segment () =
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint in
      J.append t (failed_record "x");
      J.append t (failed_record "x");
      (* duplicate *)
      J.append t (failed_record "y");
      J.close t;
      append_raw path "garbage that is not a record\n";
      Alcotest.(check int) "header plus 4 dirty lines" 5 (count_lines path);
      let t, loaded = J.open_ ~path ~resume:true ~fingerprint in
      J.close t;
      Alcotest.(check (list string))
        "survivors" [ "x"; "y" ]
        (List.map (fun r -> r.J.key) loaded);
      (* The on-disk segment was rewritten: duplicates and garbage gone,
         every remaining line valid. *)
      Alcotest.(check int) "compacted to header plus 2" 3 (count_lines path);
      Alcotest.(check int) "all lines valid" 2 (List.length (J.load ~path)))

let test_open_without_resume_truncates () =
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint in
      J.append t (failed_record "old");
      J.close t;
      let t, loaded = J.open_ ~path ~resume:false ~fingerprint in
      J.close t;
      Alcotest.(check int) "no records surfaced" 0 (List.length loaded);
      Alcotest.(check int) "truncated to the header" 1 (count_lines path))

(* A journal line around [payload], checksummed as {!J.append} does. *)
let frame payload =
  "{\"sum\":\"" ^ Digest.to_hex (Digest.string payload) ^ "\"," ^ payload

(* The 17-counter capture a build with fewer counters wrote. *)
let short_capture = "\"v1:1;999;0;0;0;0;0;3;4;0;0;0;0;0;0;0;0|0\""

(* A record as a build with fewer counters journaled it: the counters
   as hand-listed ints, plus [extra] — by default the [vmstat] field
   such a build wrote with counters on.  Every number is bogus, so
   replaying it would show. *)
let pre_counters_line ?(extra = ",\"vmstat\":" ^ short_capture) key =
  let payload =
    Printf.sprintf
      "\"key\":%S,\"status\":\"ok\",\"reason\":\"\",\"runtime_ns\":7,\
       \"major_faults\":999,\"minor_faults\":5,\"swap_ins\":3,\
       \"swap_outs\":4,\"direct_reclaims\":2,\"direct_reclaim_ns\":9,\
       \"read_latencies\":\"0x1p+0\",\"write_latencies\":\"\",\
       \"per_thread_finish\":\"7\",\"cpu_busy_ns\":1,\
       \"policy_stats\":\"evictions=1\",\"policy_name\":\"clock\",\
       \"resident_at_end\":1,\"io_retries\":0,\"io_remaps\":0,\
       \"injected_transient\":0,\"injected_permanent\":0,\
       \"injected_stalls\":0,\"injected_tail_spikes\":0,\
       \"poisoned_reads\":0,\"writeback_failures\":0,\"oom_kills\":0,\
       \"oom_discarded_pages\":0,\"invariant_violations\":0%s}"
      key extra
  in
  frame payload

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let refused ~fingerprint path =
  match J.open_ ~path ~resume:true ~fingerprint with
  | t, _ ->
    J.close t;
    Alcotest.fail "resumed a journal of another configuration"
  | exception J.Mismatch msg -> msg

let test_pre_counters_record_not_replayed () =
  (* Counters off, counters on, and a [counters] field one build short:
     none decodes, so none can be replayed. *)
  List.iter
    (fun extra ->
      match J.record_of_line (pre_counters_line ?extra "k") with
      | Ok _ -> Alcotest.fail "decoded a record with the wrong counter set"
      | Error _ -> ())
    [ Some ""; None; Some (",\"counters\":" ^ short_capture) ];
  (* Such records come from a build that wrote no header: refused. *)
  with_temp_journal (fun path ->
      append_raw path (pre_counters_line (R.exp_key sample_exp) ^ "\n");
      Alcotest.(check bool) "names the missing header" true
        (contains (refused ~fingerprint path) "no run-configuration header"));
  (* Under a matching header the stale record is skipped and rerun. *)
  with_temp_journal (fun path ->
      J.close (fst (J.open_ ~path ~resume:false ~fingerprint));
      append_raw path (pre_counters_line (R.exp_key sample_exp) ^ "\n");
      let t, records = J.open_ ~path ~resume:true ~fingerprint in
      Alcotest.(check int) "nothing to warm-start" 0 (List.length records);
      let ctx = R.make_ctx ~profile:fast_profile ~journal:t () in
      let resumed = R.run_exp ctx sample_exp in
      J.close t;
      Alcotest.(check bool) "resumed result equals a fresh run" true
        (resumed = Lazy.force sample_result);
      match J.load ~path with
      | [ { J.result = Some r; _ } ] ->
        Alcotest.(check bool) "journal now replays the fresh result" true
          (r = { resumed with M.trace = None })
      | _ -> Alcotest.fail "expected one replayable record")

let test_header_mismatch_refused () =
  (* The stale-resume repro: a --fast, fault-free journal resumed
     without --fast under --faults heavy. *)
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint in
      J.append t (ok_record ());
      J.close t;
      let before = count_lines path in
      let other =
        R.fingerprint
          (R.make_ctx
             ~profile:{ fast_profile with R.fast = false }
             ~fault_plan:Swapdev.Faulty_device.heavy ())
      in
      let msg = refused ~fingerprint:other path in
      List.iter
        (fun field ->
          Alcotest.(check bool) ("names " ^ field) true (contains msg (field ^ " (")))
        [ "fast"; "faults" ];
      List.iter
        (fun field ->
          Alcotest.(check bool) ("does not name " ^ field) false
            (contains msg (field ^ " (")))
        [ "scale"; "cgroups"; "chaos"; "model" ];
      Alcotest.(check int) "refused journal untouched" before (count_lines path);
      (* The matching configuration still resumes it. *)
      let t, records = J.open_ ~path ~resume:true ~fingerprint in
      J.close t;
      Alcotest.(check int) "matching resume keeps the record" 1
        (List.length records))

(* Two cgroup specs that differ only past the sixth significant digit
   once printed alike, so they shared a fingerprint and a journal of one
   was warm-started under the other. *)
let test_close_floats_refused () =
  let cgroups spec =
    R.derive
      ~cgroups:(Some (Result.get_ok (Mem.Memcg.parse_spec spec)))
      (R.make_ctx ~profile:fast_profile ())
  in
  let written =
    R.fingerprint
      (cgroups "a:threads=0-1,max=12.345671%;proactive:threshold=0.1234567")
  and resumed =
    R.fingerprint
      (cgroups "a:threads=0-1,max=12.345671%;proactive:threshold=0.1234568")
  in
  Alcotest.(check bool) "fingerprints differ" true (written <> resumed);
  with_temp_journal (fun path ->
      let t, _ = J.open_ ~path ~resume:false ~fingerprint:written in
      J.append t (ok_record ());
      J.close t;
      let msg = refused ~fingerprint:resumed path in
      Alcotest.(check bool) "names cgroups" true (contains msg "cgroups ("))

let test_fingerprint_covers_inputs () =
  let base = R.make_ctx ~profile:fast_profile () in
  let differs name ctx =
    Alcotest.(check bool) (name ^ " changes the fingerprint") true
      (R.fingerprint ctx <> R.fingerprint base)
  in
  differs "scale" (R.make_ctx ~profile:{ fast_profile with R.scale = 2 } ());
  differs "audit cadence" (R.make_ctx ~profile:fast_profile ~audit_every_ns:5 ());
  differs "fault plan"
    (R.make_ctx ~profile:fast_profile ~fault_plan:Swapdev.Faulty_device.light ());
  differs "cgroups"
    (R.derive
       ~cgroups:(Some (Result.get_ok (Mem.Memcg.parse_spec "a:threads=0-3,max=40%")))
       base);
  differs "chaos"
    (R.derive
       ~chaos:
         (Some (Result.get_ok (Repro_core.Chaos.parse_spec "burst:at=2s,for=3s,threads=0-3")))
       base);
  Alcotest.(check bool) "jobs and trial counts do not" true
    (R.fingerprint
       (R.make_ctx ~profile:{ fast_profile with R.trials = 9 } ~jobs:4 ())
    = R.fingerprint base)

let test_resume_missing_or_empty_starts_fresh () =
  with_temp_journal (fun path ->
      Sys.remove path;
      let t, records = J.open_ ~path ~resume:true ~fingerprint in
      J.close t;
      Alcotest.(check int) "missing: no records" 0 (List.length records);
      A.replace ~path ignore;
      let t, records = J.open_ ~path ~resume:true ~fingerprint in
      J.close t;
      Alcotest.(check int) "empty: no records" 0 (List.length records);
      Alcotest.(check int) "header written" 1 (count_lines path))

let test_load_missing_file () =
  Alcotest.(check int) "missing file loads empty" 0
    (List.length (J.load ~path:"/nonexistent/journal.jsonl"))

let replace_first s ~sub ~by =
  let n = String.length sub and len = String.length s in
  let rec at i =
    if i + n > len then Alcotest.failf "%S not in the line" sub
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n)
    else at (i + 1)
  in
  at 0

(* A cgroup summary with a field missing, or a [memory.stat] list from a
   build with another [nr_stats], must not decode as zeros: the record
   is skipped as invalid and its trial reruns. *)
let test_cgroups_summary_strict () =
  let vm_field =
    ";vm=" ^ String.concat " " (List.init Mem.Memcg.nr_stats string_of_int)
  in
  let summary =
    {
      Mem.Memcg.s_groups =
        [
          {
            Mem.Memcg.r_name = "app";
            r_usage = 10;
            r_low = 0;
            r_high = -1;
            r_max = 40;
            r_limit = -1;
            r_throttles = 1;
            r_throttled_ns = 2;
            r_oom_kills = 0;
            r_psi_some_ns = 3;
            r_psi_full_ns = 4;
            r_read_latencies = L.of_sorted [| 15 |];
            r_write_latencies = L.empty;
            r_vm = Array.init Mem.Memcg.nr_stats Fun.id;
          };
        ];
      s_some_ns = 3;
      s_full_ns = 4;
    }
  in
  let result = { (Lazy.force sample_result) with M.memcg = Some summary } in
  let line key edit =
    let l =
      J.record_to_line
        { J.key; status = J.Trial_ok; reason = ""; result = Some result }
    in
    frame (edit (String.sub l 42 (String.length l - 42)))
  in
  with_temp_journal (fun path ->
      J.close (fst (J.open_ ~path ~resume:false ~fingerprint));
      List.iter
        (fun (key, edit) -> append_raw path (line key edit ^ "\n"))
        [
          ("whole", Fun.id);
          ("short vm", replace_first ~sub:vm_field ~by:";vm=0 1 2");
          ("no vm", replace_first ~sub:vm_field ~by:"");
          ("long vm", replace_first ~sub:vm_field ~by:(vm_field ^ " 8"));
          ("non-integer vm", replace_first ~sub:";vm=0 " ~by:";vm=x ");
          ("no rlat", replace_first ~sub:";rlat=15:1" ~by:"");
          ("parent-layout rlat", replace_first ~sub:";rlat=15:1" ~by:";rlat=0x1.ep+3");
          ("no wlat", replace_first ~sub:";wlat=;" ~by:";");
        ];
      match J.load ~path with
      | [ { J.key = "whole"; result = Some r; _ } ] ->
        Alcotest.(check bool) "whole summary round-trips" true
          (r.M.memcg = Some summary)
      | records ->
        Alcotest.failf "loaded %s; want only the whole record"
          (String.concat ", " (List.map (fun r -> r.J.key) records)))

let tpch_exp = { sample_exp with R.workload = R.Tpch }

let at obs = R.make_ctx ~profile:fast_profile ~obs ()

(* What a journal record keeps must be what its key says it keeps: for
   every capture set, the record of a result computed under it decodes
   to the result computed under [Obs.kept], and both sets share one
   record key. *)
let test_record_tag_matches_content () =
  let damon = Some Mem.Damon.default_config in
  let kept_results = ref [] in
  let under obs = R.run_exp (at obs) tpch_exp in
  let kept_result kept =
    match List.assoc_opt kept !kept_results with
    | Some r -> r
    | None ->
      let r = under kept in
      kept_results := (kept, r) :: !kept_results;
      r
  in
  List.iter
    (fun (name, c) ->
      let kept = Obs.kept c in
      Alcotest.(check string) (name ^ ": record key")
        (R.record_key (at kept) tpch_exp)
        (R.record_key (at c) tpch_exp);
      let record =
        {
          J.key = R.record_key (at c) tpch_exp;
          status = J.Trial_ok;
          reason = "";
          result = Some (under c);
        }
      in
      match J.record_of_line (J.record_to_line record) with
      | Ok { J.result = Some got; _ } ->
        Alcotest.(check bool) (name ^ ": record holds the kept set's result")
          true (got = kept_result kept)
      | _ -> Alcotest.failf "%s: record did not decode" name)
    [
      ("off", Obs.off);
      ("trace", { Obs.off with trace = true });
      ("samples", { Obs.off with sample_every_ns = 10_000_000 });
      ("totals", { Obs.off with prof = Obs.Prof.Totals });
      ("spans", { Obs.off with prof = Obs.Prof.Spans });
      ("damon", { Obs.off with damon });
      ( "all-on",
        {
          Obs.trace = true;
          sample_every_ns = 10_000_000;
          prof = Obs.Prof.Spans;
          damon;
        } );
    ]

(* Journals on disk are found by these strings: a drift silently orphans
   every existing record. *)
let test_record_keys_pinned () =
  Alcotest.(check string) "off" "tpch/clock/0.5/ssd/t0@45fff4e1c1bcd876"
    (R.record_key (at Obs.off) tpch_exp);
  Alcotest.(check string) "totals" "tpch/clock/0.5/ssd/t0@c3d8e3f67204948e"
    (R.record_key (at { Obs.off with prof = Obs.Prof.Totals }) tpch_exp)

(* ------------------------------------------------------------------ *)
(* Record format: strict decoding, no exception escapes                *)
(* ------------------------------------------------------------------ *)

(* [pinned_record]'s line with field [name] set to the string [value],
   checksummed: only the decoder can refuse it. *)
let with_field name value =
  match Obs.parse_line (J.record_to_line pinned_record) with
  | Ok (_sum :: fields) ->
    let obj =
      Obs.json_object
        (List.map (fun (k, v) -> if k = name then (k, Obs.Str value) else (k, v)) fields)
    in
    frame (String.sub obj 1 (String.length obj - 1))
  | _ -> Alcotest.fail "pinned line does not parse"

let counters_of_length n b =
  let ones k v = String.concat ";" (List.init k (fun _ -> v)) in
  "v1:" ^ ones n "1" ^ "|" ^ ones b "0"

let chaos_without_corr = "ev=2,off=168,on=168,mig=5,evi=0,skip=0,lim=0,dev=0,stall=0"

(* Payload values the decoder must refuse: malformed profiles and
   counters, captures of a build with another counter set, and chaos
   tallies with a missing, hex or duplicate value. *)
let malformed =
  let module V = Obs.Vmstat in
  List.map (fun s -> ("profile", s))
    [
      ""; "garbage"; "app"; "app|0:app0:0"; "app|0:app0:0|0:1g:5";
      "app|0:app0:0|0:12:x"; "app|zero:app0:0|"; "app|0:app0:9|";
      "app|0:app0:0|1:12:5";
    ]
  @ List.map (fun s -> ("counters", s))
      [
        ""; "v2:1|1"; "v1:1;2;3"; "v1:1;x|2";
        (* a build with fewer counters *)
        "v1:4;2|1;1";
        counters_of_length (V.nr_counters - 1) V.dist_buckets;
        (* a build with more counters *)
        counters_of_length (V.nr_counters + 1) V.dist_buckets;
        counters_of_length V.nr_counters (V.dist_buckets - 1);
      ]
  @ List.map (fun s -> ("chaos", s))
      [
        (* missing key *)
        chaos_without_corr;
        "ev=0x10,off=168,on=168,mig=5,evi=0,skip=0,lim=0,dev=0,stall=0,corr=1";
        (* duplicate key *)
        chaos_without_corr ^ ",corr=1,corr=1";
      ]

let test_malformed_rejected () =
  List.iter
    (fun (name, value) ->
      match J.record_of_line (with_field name value) with
      | Ok _ -> Alcotest.failf "decoded %s = %S" name value
      | Error _ -> ())
    malformed

(* Run [f] with stderr sent to a file: its result and what it printed. *)
let with_stderr f =
  let path = Filename.temp_file "journal_test" ".err" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let err = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (v, err)

(* A checksummed record whose array does not parse is one invalid
   record: loading and resuming skip it with a note and keep the rest. *)
let check_skipped cases =
  let keys records = List.map (fun r -> r.J.key) records in
  let noted err =
    Alcotest.(check bool) "stderr notes the skipped line" true
      (contains err "skipping invalid record at line 3")
  in
  List.iter
    (fun (name, value) ->
      let bad = with_field name value in
      (match J.record_of_line bad with
      | Ok _ -> Alcotest.failf "decoded %s = %S" name value
      | Error _ -> ());
      with_temp_journal (fun path ->
          let t, _ = J.open_ ~path ~resume:false ~fingerprint in
          J.append t (failed_record "a");
          J.close t;
          append_raw path (bad ^ "\n");
          append_raw path (J.record_to_line (failed_record "b") ^ "\n");
          let loaded, err = with_stderr (fun () -> J.load ~path) in
          Alcotest.(check (list string)) (name ^ ": load keeps the rest") [ "a"; "b" ]
            (keys loaded);
          noted err;
          let (t, resumed), err =
            with_stderr (fun () -> J.open_ ~path ~resume:true ~fingerprint)
          in
          J.close t;
          Alcotest.(check (list string)) (name ^ ": resume keeps the rest")
            [ "a"; "b" ] (keys resumed);
          noted err;
          Alcotest.(check int) (name ^ ": compacted") 3 (count_lines path)))
    cases

let test_malformed_record_skipped () =
  check_skipped
    [
      ("per_thread_finish", "7 x");
      ("policy_stats", "evictions");
      ("read_latencies", "zz");
    ]

(* Latency runs a sealed array never encodes to. *)
let test_latency_runs_refused () =
  check_skipped
    (List.concat_map
       (fun value -> [ ("read_latencies", value); ("write_latencies", value) ])
       [
         (* descending values *)
         "7:1 3:1";
         (* a repeated value *)
         "3:1 3:2";
         "3:0";
         "-3:1";
         "3:-1";
         "-0:1";
         "0x10:1";
         "1:+2";
         "1:2:3";
         (* no colon: every token of the parent's %h layout *)
         "17";
         "0x1.8p+0";
         "3:1  4:1";
       ])

(* A YCSB record as the parent build journaled it, latencies as %h
   floats, under this build's own record key and header: refused, so
   the trial reruns, never misread. *)
let test_parent_layout_rerun () =
  let fresh = Lazy.force sample_result in
  let key = R.record_key (R.make_ctx ~profile:fast_profile ()) sample_exp in
  let record = { J.key; status = J.Trial_ok; reason = ""; result = Some fresh } in
  let line layout =
    match Obs.parse_line (J.record_to_line record) with
    | Ok (_sum :: fields) ->
      let obj =
        Obs.json_object
          (List.map
             (fun (k, v) ->
               match k with
               | "read_latencies" -> (k, Obs.Str (layout fresh.M.read_latencies))
               | "write_latencies" -> (k, Obs.Str (layout fresh.M.write_latencies))
               | _ -> (k, v))
             fields)
      in
      frame (String.sub obj 1 (String.length obj - 1))
    | _ -> Alcotest.fail "record does not parse"
  in
  let hex lat =
    String.concat " "
      (List.map (fun ns -> Printf.sprintf "%h" (float_of_int ns)) (Array.to_list (L.to_array lat)))
  in
  Alcotest.(check bool) "the YCSB trial has latencies" true
    (L.count fresh.M.read_latencies > 0);
  (match J.record_of_line (J.record_to_line record) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "this build's layout refused: %s" e);
  with_temp_journal (fun path ->
      J.close (fst (J.open_ ~path ~resume:false ~fingerprint));
      append_raw path (line hex ^ "\n");
      let (t, records), err =
        with_stderr (fun () -> J.open_ ~path ~resume:true ~fingerprint)
      in
      Alcotest.(check bool) "stderr notes the skipped line" true
        (contains err "skipping invalid record at line 2");
      Alcotest.(check int) "nothing to warm-start" 0 (List.length records);
      let ctx = R.make_ctx ~profile:fast_profile ~journal:t () in
      Alcotest.(check int) "nothing installed" 0 (R.warm_start ctx records);
      let rerun = R.run_exp ctx sample_exp in
      J.close t;
      Alcotest.(check bool) "rerun equals a fresh run" true (rerun = fresh);
      Alcotest.(check int) "header and the rerun's record" 2 (count_lines path))

(* The captures a record never holds, from one trial with all of them
   on. *)
let unkept =
  lazy
    (R.run_exp
       (at
          {
            Obs.trace = true;
            sample_every_ns = 10_000_000;
            prof = Obs.Prof.Spans;
            damon = Some Mem.Damon.default_config;
          })
       tpch_exp)

(* Results with every capture kind present or absent and arbitrary
   numbers; names avoid the separators, as they do by construction. *)
let gen_result =
  let open QCheck.Gen in
  let module V = Obs.Vmstat in
  let name = string_size ~gen:(oneofl [ 'a'; 'k'; 'z'; '0'; '7'; '_' ]) (int_range 1 6) in
  (* Latency runs of non-negative values, often repeated. *)
  let latencies =
    map
      (fun a ->
        Array.sort Int.compare a;
        L.of_sorted a)
      (array_size (int_bound 6)
         (frequency
            [ (2, int_bound 3); (1, pure max_int); (3, map (fun v -> v land max_int) int) ]))
  in
  let counters =
    let+ counters = array_repeat V.nr_counters int
    and+ refault_dist = array_repeat V.dist_buckets int in
    { V.counters; refault_dist }
  in
  let profile =
    let* classes = array_size (int_range 1 3) name in
    let cls = int_bound (Array.length classes - 1) in
    let path =
      map
        (fun l -> Obs.Prof.path_code (List.map Obs.Prof.phase_of_index l))
        (list_size (int_range 1 3) (int_bound (Obs.Prof.n_phases - 1)))
    in
    let+ threads = array_size (int_bound 3) (triple int name cls)
    and+ totals = array_size (int_bound 3) (triple cls path int)
    and+ spans = array_size (int_bound 2) (quad int int int int) in
    { Obs.Prof.classes; threads; totals; spans }
  in
  let group =
    let+ r_name = name
    and+ n = array_repeat 10 int
    and+ r_read_latencies = latencies
    and+ r_write_latencies = latencies
    and+ r_vm = array_repeat Mem.Memcg.nr_stats int in
    {
      Mem.Memcg.r_name;
      r_usage = n.(0);
      r_low = n.(1);
      r_high = n.(2);
      r_max = n.(3);
      r_limit = n.(4);
      r_throttles = n.(5);
      r_throttled_ns = n.(6);
      r_oom_kills = n.(7);
      r_psi_some_ns = n.(8);
      r_psi_full_ns = n.(9);
      r_read_latencies;
      r_write_latencies;
      r_vm;
    }
  in
  let memcg =
    let+ s_groups = list_size (int_bound 3) group
    and+ s_some_ns = int
    and+ s_full_ns = int in
    { Mem.Memcg.s_groups; s_some_ns; s_full_ns }
  in
  let chaos =
    let+ n = array_repeat 10 int in
    {
      Repro_core.Chaos.s_events = n.(0);
      s_offlined = n.(1);
      s_onlined = n.(2);
      s_migrated = n.(3);
      s_evicted = n.(4);
      s_skipped = n.(5);
      s_limit_updates = n.(6);
      s_device_phases = n.(7);
      s_stalled_threads = n.(8);
      s_corrupted = n.(9);
    }
  in
  let+ runtime_ns = int
  and+ counters = counters
  and+ read_latencies = latencies
  and+ write_latencies = latencies
  and+ per_thread_finish = array_size (int_bound 4) int
  and+ cpu_busy_ns = int
  and+ policy_stats = list_size (int_bound 4) (pair name int)
  and+ policy_name = name
  and+ resident_at_end = int
  and+ memcg = opt memcg
  and+ chaos = opt chaos
  and+ profile = opt profile
  and+ trace = bool
  and+ heatmap = bool in
  let unkept = Lazy.force unkept in
  {
    M.runtime_ns;
    major_faults = V.count counters V.pgmajfault;
    minor_faults = V.count counters V.minor_faults;
    read_latencies;
    write_latencies;
    per_thread_finish;
    cpu_busy_ns;
    policy_stats;
    policy_name;
    resident_at_end;
    counters;
    memcg;
    chaos;
    trace = (if trace then unkept.M.trace else None);
    profile;
    heatmap = (if heatmap then unkept.M.heatmap else None);
  }

let ok_with result = { J.key = "k"; status = J.Trial_ok; reason = ""; result = Some result }

let arb_result = QCheck.make ~print:(fun r -> J.record_to_line (ok_with r)) gen_result

(* A record keeps what [Obs.kept] keeps: no trace, heatmap or spans.
   [compare] makes [nan] equal to itself. *)
let round_trip_prop =
  QCheck.Test.make ~count:300 ~name:"every result round-trips through a record"
    arb_result (fun r ->
      let journaled =
        {
          r with
          M.trace = None;
          heatmap = None;
          profile = Option.map (fun p -> { p with Obs.Prof.spans = [||] }) r.M.profile;
        }
      in
      match J.record_of_line (J.record_to_line (ok_with r)) with
      | Ok got -> compare got (ok_with journaled) = 0
      | Error _ -> false)

(* Any one byte of a valid payload changed, checksum recomputed: the
   record decodes or is refused, never raises. *)
let mutation_prop =
  QCheck.Test.make ~count:1000 ~name:"a re-checksummed byte change never raises"
    (QCheck.triple
       (QCheck.oneof [ QCheck.always pinned_record; QCheck.map ok_with arb_result ])
       (QCheck.int_bound 1_000_000) QCheck.char)
    (fun (record, pos, c) ->
      let line = J.record_to_line record in
      let payload = Bytes.of_string (String.sub line 42 (String.length line - 42)) in
      Bytes.set payload (pos mod Bytes.length payload) c;
      match J.record_of_line (frame (Bytes.to_string payload)) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Atomic_io: the primitive under every writer in the repo             *)
(* ------------------------------------------------------------------ *)


let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_replace_writes () =
  with_temp_journal (fun path ->
      let n = A.replace ~path (fun oc -> output_string oc "hello\n"; 42) in
      Alcotest.(check int) "callback result returned" 42 n;
      Alcotest.(check string) "content written" "hello\n" (read_file path))

let test_atomic_replace_keeps_old_on_failure () =
  with_temp_journal (fun path ->
      ignore (A.replace ~path (fun oc -> output_string oc "old content"));
      (match
         A.replace ~path (fun oc ->
             output_string oc "half a new file";
             failwith "writer died")
       with
      | () -> Alcotest.fail "should have re-raised"
      | exception Failure _ -> ());
      (* The old file survives untouched and no temp file is left. *)
      Alcotest.(check string) "old content intact" "old content"
        (read_file path);
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp residue" [] leftovers)

let () =
  Alcotest.run "journal"
    [
      ( "framing",
        [
          Alcotest.test_case "ok round trip" `Quick test_ok_round_trip;
          Alcotest.test_case "awkward latencies" `Quick
            test_awkward_latencies_round_trip;
          Alcotest.test_case "failure round trips" `Quick
            test_failure_round_trips;
          Alcotest.test_case "checksum detects corruption" `Quick
            test_checksum_detects_corruption;
          Alcotest.test_case "pinned line" `Quick test_pinned_line;
          Alcotest.test_case "pinned ycsb journal" `Quick test_pinned_ycsb_journal;
        ] );
      ( "segments",
        [
          Alcotest.test_case "append/load cycle" `Quick test_append_load_cycle;
          Alcotest.test_case "torn tail skipped" `Quick test_torn_tail_skipped;
          Alcotest.test_case "last-wins dedup" `Quick test_dedup_last_wins;
          Alcotest.test_case "resume compacts" `Quick
            test_resume_compacts_segment;
          Alcotest.test_case "fresh open truncates" `Quick
            test_open_without_resume_truncates;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "pre-counters record recomputed" `Quick
            test_pre_counters_record_not_replayed;
          Alcotest.test_case "cgroup summary strict" `Quick
            test_cgroups_summary_strict;
        ] );
      ( "record keys",
        [
          Alcotest.test_case "tag matches content" `Quick
            test_record_tag_matches_content;
          Alcotest.test_case "pinned" `Quick test_record_keys_pinned;
        ] );
      ( "format",
        [
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_malformed_rejected;
          Alcotest.test_case "latency runs refused" `Quick test_latency_runs_refused;
          Alcotest.test_case "parent-layout latencies rerun" `Quick
            test_parent_layout_rerun;
          Alcotest.test_case "malformed record skipped" `Quick
            test_malformed_record_skipped;
          QCheck_alcotest.to_alcotest round_trip_prop;
          QCheck_alcotest.to_alcotest mutation_prop;
        ] );
      ( "header",
        [
          Alcotest.test_case "mismatch refused" `Quick test_header_mismatch_refused;
          Alcotest.test_case "close floats refused" `Quick test_close_floats_refused;
          Alcotest.test_case "fingerprint covers inputs" `Quick
            test_fingerprint_covers_inputs;
          Alcotest.test_case "missing or empty starts fresh" `Quick
            test_resume_missing_or_empty_starts_fresh;
        ] );
      ( "atomic io",
        [
          Alcotest.test_case "replace writes" `Quick test_atomic_replace_writes;
          Alcotest.test_case "failure keeps old file" `Quick
            test_atomic_replace_keeps_old_on_failure;
        ] );
    ]
