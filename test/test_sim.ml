module S = Engine.Sim

let test_runs_in_order () =
  let sim = S.create () in
  let log = ref [] in
  S.schedule sim ~delay:20 (fun _ -> log := "b" :: !log);
  S.schedule sim ~delay:10 (fun _ -> log := "a" :: !log);
  S.schedule sim ~delay:30 (fun _ -> log := "c" :: !log);
  S.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "time advanced" 30 (S.now sim)

let test_nested_scheduling () =
  let sim = S.create () in
  let fired = ref 0 in
  S.schedule sim ~delay:5 (fun sim ->
      S.schedule sim ~delay:5 (fun _ -> fired := S.now sim));
  Alcotest.(check int) "nothing run yet" 0 (S.events sim);
  S.run sim;
  Alcotest.(check int) "nested event time" 10 !fired;
  Alcotest.(check int) "both events counted" 2 (S.events sim)

let test_until_bound () =
  let sim = S.create () in
  let fired = ref false in
  S.schedule sim ~delay:50 ignore;
  S.schedule sim ~delay:100 (fun _ -> fired := true);
  S.run ~until:50 sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "pending" 1 (S.pending sim);
  Alcotest.(check int) "only the event at the bound counted" 1 (S.events sim);
  S.run sim;
  Alcotest.(check bool) "fired on resume" true !fired;
  Alcotest.(check int) "counts across runs" 2 (S.events sim)

let test_stop () =
  let sim = S.create () in
  let count = ref 0 in
  let rec tick sim =
    incr count;
    if !count = 3 then S.stop sim else S.schedule sim ~delay:1 tick
  in
  S.schedule sim ~delay:1 tick;
  S.schedule sim ~delay:10 ignore;
  S.run sim;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "the stopping event counted, not the pending one" 3
    (S.events sim)

let test_negative_delay_clamped () =
  let sim = S.create () in
  let at = ref (-1) in
  S.schedule sim ~delay:5 (fun sim ->
      S.schedule sim ~delay:(-10) (fun sim -> at := S.now sim));
  S.run sim;
  Alcotest.(check int) "clamped to now" 5 !at

let test_schedule_at () =
  let sim = S.create () in
  let at = ref 0 in
  S.schedule_at sim ~time:42 (fun sim -> at := S.now sim);
  S.run sim;
  Alcotest.(check int) "absolute time" 42 !at

let test_time_never_goes_backward () =
  let sim = S.create () in
  let monotone = ref true in
  let last = ref 0 in
  for i = 0 to 99 do
    S.schedule sim ~delay:(100 - i) (fun sim ->
        if S.now sim < !last then monotone := false;
        last := S.now sim)
  done;
  S.run sim;
  Alcotest.(check bool) "monotone" true !monotone

let () =
  Alcotest.run "sim"
    [
      ( "unit",
        [
          Alcotest.test_case "runs in order" `Quick test_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "until bound" `Quick test_until_bound;
          Alcotest.test_case "stop" `Quick test_stop;
          Alcotest.test_case "negative delay clamped" `Quick test_negative_delay_clamped;
          Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "monotone time" `Quick test_time_never_goes_backward;
        ] );
    ]
