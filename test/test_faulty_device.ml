module D = Swapdev.Device
module F = Swapdev.Faulty_device
module V = Obs.Vmstat

let inner () =
  let config = { Swapdev.Zram.default_config with Swapdev.Zram.jitter = 0.0 } in
  Swapdev.Zram.create ~config ~rng:(Engine.Rng.create 3) ()

(* The wrapped device and the registry its injections count into. *)
let wrap ?(seed = 42) plan =
  let vm = V.create () in
  (F.wrap ~plan ~rng:(Engine.Rng.create seed) ~vmstat:vm (inner ()), vm)

let injected vm =
  V.get vm V.injected_transient + V.get vm V.injected_permanent
  + V.get vm V.injected_stalls + V.get vm V.injected_tail_spikes

let drive dev n =
  List.init n (fun i ->
      let op = if i mod 3 = 0 then D.Write else D.Read in
      dev.D.submit ~now:(i * 50_000) ~op ~size_fraction:0.5)

let test_none_injects_nothing () =
  Alcotest.(check bool) "none is none" true (F.is_none F.none);
  Alcotest.(check bool) "light is not" false (F.is_none F.light);
  Alcotest.(check bool) "heavy is not" false (F.is_none F.heavy);
  let dev, counters = wrap F.none in
  let plain = inner () in
  List.iter2
    (fun c p ->
      Alcotest.(check bool) "status ok" true (D.ok c);
      Alcotest.(check int) "timing untouched" p.D.finish_ns c.D.finish_ns)
    (drive dev 200) (drive plain 200);
  Alcotest.(check int) "no injections" 0 (injected counters)

let test_deterministic_replay () =
  let summarize c =
    ( c.D.finish_ns,
      match c.D.status with
      | D.Done -> 0
      | D.Failed D.Transient -> 1
      | D.Failed D.Permanent -> 2 )
  in
  let once () =
    let dev, counters = wrap F.heavy in
    let completions = List.map summarize (drive dev 500) in
    (completions, injected counters)
  in
  let r1, n1 = once () in
  let r2, n2 = once () in
  Alcotest.(check bool) "same completions" true (r1 = r2);
  Alcotest.(check int) "same injection count" n1 n2;
  Alcotest.(check bool) "something was injected" true (n1 > 0)

let test_burst_window () =
  let plan =
    { F.none with F.burst_every_ops = 10; burst_len_ops = 3; burst_permanent = true }
  in
  let dev, counters = wrap plan in
  let statuses = List.map (fun c -> c.D.status) (drive dev 40) in
  List.iteri
    (fun i status ->
      let expect_fail = i mod 10 < 3 in
      Alcotest.(check bool)
        (Printf.sprintf "op %d %s" i (if expect_fail then "fails" else "succeeds"))
        expect_fail
        (status = D.Failed D.Permanent))
    statuses;
  Alcotest.(check int) "permanent counter" 12
    (V.get counters V.injected_permanent);
  Alcotest.(check int) "no transient" 0 (V.get counters V.injected_transient)

let test_stall_cadence () =
  let plan = { F.none with F.stall_every_ops = 8; stall_ns = 1_000_000 } in
  let dev, counters = wrap plan in
  let faulty = drive dev 32 in
  let plain = drive (inner ()) 32 in
  List.iteri
    (fun i (f, p) ->
      let expect = if i mod 8 = 7 then 1_000_000 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "op %d stall" i)
        expect
        (f.D.finish_ns - p.D.finish_ns))
    (List.combine faulty plain);
  Alcotest.(check int) "stalls counted" 4 (V.get counters V.injected_stalls)

let test_tail_spike_scales_latency () =
  let plan = { F.none with F.tail_prob = 1.0; tail_multiplier = 10.0 } in
  let dev, counters = wrap plan in
  let c = dev.D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  let p = (inner ()).D.submit ~now:1_000 ~op:D.Read ~size_fraction:0.5 in
  Alcotest.(check int) "observed latency x10"
    ((p.D.finish_ns - 1_000) * 10)
    (c.D.finish_ns - 1_000);
  Alcotest.(check int) "spike counted" 1 (V.get counters V.injected_tail_spikes)

let test_probabilistic_rates () =
  let plan = { F.none with F.read_error_prob = 0.2; write_error_prob = 0.2 } in
  let dev, counters = wrap plan in
  ignore (drive dev 2000);
  let errors =
    V.get counters V.injected_transient + V.get counters V.injected_permanent
  in
  Alcotest.(check bool)
    (Printf.sprintf "error rate near 20%% (got %d/2000)" errors)
    true
    (errors > 300 && errors < 500);
  (* permanent_fraction = 0 -> every error is transient *)
  Alcotest.(check int) "all transient" 0 (V.get counters V.injected_permanent)

let test_failed_ops_occupy_channel () =
  (* Errors happen after the op ran: device counters and queueing state
     advance exactly as on the clean device. *)
  let dev, _ = wrap { F.none with F.burst_every_ops = 1; burst_len_ops = 1 } in
  ignore (drive dev 10);
  let plain = inner () in
  ignore (drive plain 10);
  Alcotest.(check int) "reads counted" (plain.D.reads ()) (dev.D.reads ());
  Alcotest.(check int) "writes counted" (plain.D.writes ()) (dev.D.writes ());
  Alcotest.(check int) "busy horizon equal" (plain.D.busy_until ()) (dev.D.busy_until ())

let test_plan_of_name () =
  Alcotest.(check bool) "none" true (F.plan_of_name "none" = Some F.none);
  Alcotest.(check bool) "light" true (F.plan_of_name "light" = Some F.light);
  Alcotest.(check bool) "heavy" true (F.plan_of_name "heavy" = Some F.heavy);
  Alcotest.(check bool) "unknown" true (F.plan_of_name "broken" = None)

(* ---- Degraded_device: the chaos degrade injector ------------------ *)

module G = Swapdev.Degraded_device

let degraded ?(seed = 5) knobs = G.wrap ~knobs ~rng:(Engine.Rng.create seed) (inner ())

(* Submissions spaced far enough apart that the device is idle at each. *)
let drive_idle dev n =
  List.init n (fun i ->
      let now = i * 1_000_000 in
      (now, dev.D.submit ~now ~op:(if i mod 2 = 0 then D.Write else D.Read)
              ~size_fraction:0.5))

let test_degrade_neutral_identity () =
  let dev = degraded (G.neutral ()) in
  Alcotest.(check string) "name" "zram+degrade" dev.D.name;
  List.iter2
    (fun (_, c) (_, p) ->
      Alcotest.(check bool) "status ok" true (D.ok c);
      Alcotest.(check int) "timing untouched" p.D.finish_ns c.D.finish_ns;
      Alcotest.(check int) "cpu untouched" p.D.cpu_ns c.D.cpu_ns)
    (drive_idle dev 100) (drive_idle (inner ()) 100)

let test_degrade_stretches_service () =
  let knobs = { (G.neutral ()) with G.latency_mult = 3.0 } in
  List.iter2
    (fun (now, c) (_, p) ->
      Alcotest.(check bool) "status ok" true (D.ok c);
      Alcotest.(check int) "service x3"
        (3 * (p.D.finish_ns - now)) (c.D.finish_ns - now))
    (drive_idle (degraded knobs) 50) (drive_idle (inner ()) 50)

let test_degrade_error_window () =
  let knobs = { (G.neutral ()) with G.error_prob = 1.0 } in
  let dev = degraded knobs in
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "transient" true (c.D.status = D.Failed D.Transient))
    (drive_idle dev 20);
  (* The knobs are read on every submit: closing the window heals. *)
  knobs.G.error_prob <- 0.0;
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "healed" true (D.ok c))
    (drive_idle dev 20)

let test_degrade_wear_wins () =
  let knobs = { (G.neutral ()) with G.error_prob = 1.0; wear_prob = 1.0 } in
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "permanent" true (c.D.status = D.Failed D.Permanent))
    (drive_idle (degraded knobs) 20)

let test_degrade_deterministic () =
  let statuses seed =
    let knobs = { (G.neutral ()) with G.error_prob = 0.5 } in
    List.map (fun (_, c) -> D.ok c) (drive_idle (degraded ~seed knobs) 200)
  in
  let a = statuses 11 in
  Alcotest.(check (list bool)) "same seed, same statuses" a (statuses 11);
  Alcotest.(check bool) "some fail" true (List.mem false a);
  Alcotest.(check bool) "some succeed" true (List.mem true a)

let () =
  Alcotest.run "faulty_device"
    [
      ( "unit",
        [
          Alcotest.test_case "none injects nothing" `Quick test_none_injects_nothing;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "burst window" `Quick test_burst_window;
          Alcotest.test_case "stall cadence" `Quick test_stall_cadence;
          Alcotest.test_case "tail spike" `Quick test_tail_spike_scales_latency;
          Alcotest.test_case "probabilistic rates" `Quick test_probabilistic_rates;
          Alcotest.test_case "failed ops occupy channel" `Quick
            test_failed_ops_occupy_channel;
          Alcotest.test_case "plan names" `Quick test_plan_of_name;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "neutral is identity" `Quick
            test_degrade_neutral_identity;
          Alcotest.test_case "latency stretches service" `Quick
            test_degrade_stretches_service;
          Alcotest.test_case "error window" `Quick test_degrade_error_window;
          Alcotest.test_case "wear wins" `Quick test_degrade_wear_wins;
          Alcotest.test_case "deterministic" `Quick test_degrade_deterministic;
        ] );
    ]
