(* The --cgroups and --chaos spec syntax: the shared lexical layer
   (Mem.Spec_syntax), and a corpus of specs taken from the README, CI,
   the golden rules, the perfbench harness and the other tests, each
   pinned to its parsed value and its canonical rendering.  The
   rendering feeds Runner.fingerprint, so a change to any printed byte
   here orphans cached results and journals. *)

module Mcg = Mem.Memcg
module C = Repro_core.Chaos
module S = Mem.Spec_syntax

(* Every field of a parsed spec, floats to 17 digits, so two values
   print alike only if they are equal. *)
let show_amount = function
  | S.Pages p -> Printf.sprintf "P%d" p
  | S.Frac f -> Printf.sprintf "F%.17g" f

let show_opt f = function None -> "-" | Some x -> f x

let show_threads rs =
  String.concat "+" (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) rs)

let show_memcg (s : Mcg.spec) =
  String.concat " "
    (List.map
       (fun (g : Mcg.group_spec) ->
         Printf.sprintf "[%s threads=%s low=%s high=%s max=%s]" g.g_name
           (show_threads g.g_threads) (show_opt show_amount g.g_low)
           (show_opt show_amount g.g_high) (show_opt show_amount g.g_max))
       s.groups
    @ [
        Printf.sprintf "proactive=%s psi=%d"
          (show_opt
             (fun (p : Mcg.proactive_spec) ->
               Printf.sprintf "(%d,%.17g,%s)" p.p_interval_ns p.p_threshold
                 (show_amount p.p_step))
             s.proactive)
          s.psi_interval_ns;
      ])

let show_injector = function
  | C.Hotplug h ->
    Printf.sprintf "[hotplug at=%d shrink=%s restore=%s]" h.h_at
      (show_amount h.h_shrink) (show_opt string_of_int h.h_restore)
  | C.Degrade d ->
    Printf.sprintf "[degrade at=%d for=%d latency=%.17g errors=%.17g wear=%.17g]"
      d.d_at d.d_for d.d_latency d.d_errors d.d_wear
  | C.Churn c ->
    Printf.sprintf "[churn at=%d cg=%s low=%s high=%s max=%s]" c.c_at c.c_cg
      (show_opt show_amount c.c_low) (show_opt show_amount c.c_high)
      (show_opt show_amount c.c_max)
  | C.Burst b ->
    Printf.sprintf "[burst at=%d for=%d threads=%s]" b.b_at b.b_for
      (show_threads b.b_threads)
  | C.Corrupt { x_at } -> Printf.sprintf "[corrupt at=%d]" x_at

let show_chaos (s : C.spec) = String.concat " " (List.map show_injector s.injectors)

(* (spec, parsed value, spec_to_string) *)
let cgroups_corpus =
  [
    ( "app:threads=0-1,high=25%;bg:threads=2-3,low=20%",
      "[app threads=0-1 low=- high=F0.25 max=-] [bg threads=2-3 low=F0.20000000000000001 high=- max=-] proactive=- psi=100000000",
      "app:threads=0-1,high=25%;bg:threads=2-3,low=20%" );
    ( "a:threads=0-3,max=40%",
      "[a threads=0-3 low=- high=- max=F0.40000000000000002] proactive=- psi=100000000",
      "a:threads=0-3,max=40%" );
    ( "hot:threads=0-1,max=40%;bg:threads=2+4-5,low=15%,high=200",
      "[hot threads=0-1 low=- high=- max=F0.40000000000000002] [bg threads=2-2+4-5 low=F0.14999999999999999 high=P200 max=-] proactive=- psi=100000000",
      "hot:threads=0-1,max=40%;bg:threads=2+4-5,low=15%,high=200" );
    ( "a:threads=0,max=32;proactive:interval=50ms,threshold=0.2,step=2%;psi:interval=10ms",
      "[a threads=0-0 low=- high=- max=P32] proactive=(50000000,0.20000000000000001,F0.02) psi=10000000",
      "a:threads=0,max=32;proactive:interval=50000000,threshold=0.2,step=2%;psi:interval=10000000" );
    ( "hot:threads=0-1,max=40%;bg:threads=2-5,low=15%;proactive:interval=50ms,threshold=0.2,step=2%",
      "[hot threads=0-1 low=- high=- max=F0.40000000000000002] [bg threads=2-5 low=F0.14999999999999999 high=- max=-] proactive=(50000000,0.20000000000000001,F0.02) psi=100000000",
      "hot:threads=0-1,max=40%;bg:threads=2-5,low=15%;proactive:interval=50000000,threshold=0.2,step=2%" );
    ( "hot:threads=0-1,max=40%;bg:threads=2-5,low=15%",
      "[hot threads=0-1 low=- high=- max=F0.40000000000000002] [bg threads=2-5 low=F0.14999999999999999 high=- max=-] proactive=- psi=100000000",
      "hot:threads=0-1,max=40%;bg:threads=2-5,low=15%" );
    ( "proactive:interval=100ms,threshold=0.1,step=1%",
      "proactive=(100000000,0.10000000000000001,F0.01) psi=100000000",
      "proactive:interval=100000000,threshold=0.1,step=1%" );
    ( "app:threads=0-1,high=20%;bg:threads=2-3,low=10%;proactive:interval=100ms,threshold=0.3,step=1%",
      "[app threads=0-1 low=- high=F0.20000000000000001 max=-] [bg threads=2-3 low=F0.10000000000000001 high=- max=-] proactive=(100000000,0.29999999999999999,F0.01) psi=100000000",
      "app:threads=0-1,high=20%;bg:threads=2-3,low=10%;proactive:interval=100000000,threshold=0.3,step=1%" );
    ( "app:threads=0-1,max=50%",
      "[app threads=0-1 low=- high=- max=F0.5] proactive=- psi=100000000",
      "app:threads=0-1,max=50%" );
    ( "a:threads=0;psi:interval=10ms",
      "[a threads=0-0 low=- high=- max=-] proactive=- psi=10000000",
      "a:threads=0;psi:interval=10000000" );
    ( "a:threads=1-1+3,low=0,high=4096,max=100%;b_2-x:threads=2",
      "[a threads=1-1+3-3 low=P0 high=P4096 max=F1] [b_2-x threads=2-2 low=- high=- max=-] proactive=- psi=100000000",
      "a:threads=1+3,low=0,high=4096,max=100%;b_2-x:threads=2" );
    ( " a : threads = 0-1 , max = 12.5% ; ; b:threads=2 , ",
      "[a threads=0-1 low=- high=- max=F0.125] [b threads=2-2 low=- high=- max=-] proactive=- psi=100000000",
      "a:threads=0-1,max=12.5%;b:threads=2" );
    ( "a:threads=0;proactive:interval=1500000,step=64",
      "[a threads=0-0 low=- high=- max=-] proactive=(1500000,0.10000000000000001,P64) psi=100000000",
      "a:threads=0;proactive:interval=1500000,threshold=0.1,step=64" );
    ( "a:threads=0;psi:interval=1.5s;proactive:interval=250us,threshold=1,step=0%",
      "[a threads=0-0 low=- high=- max=-] proactive=(250000,1,F0) psi=1500000000",
      "a:threads=0;proactive:interval=250000,threshold=1,step=0%;psi:interval=1500000000" );
    ( "a:threads=0;psi:interval=100ms",
      "[a threads=0-0 low=- high=- max=-] proactive=- psi=100000000",
      "a:threads=0" );
  ]

let chaos_corpus =
  [
    ( "hotplug:at=1s,shrink=10%,restore=2s",
      "[hotplug at=1000000000 shrink=F0.10000000000000001 restore=2000000000]",
      "hotplug:at=1s,shrink=10%,restore=2s" );
    ( "burst:at=2s,for=3s,threads=0-3",
      "[burst at=2000000000 for=3000000000 threads=0-3]",
      "burst:at=2s,for=3s,threads=0-3" );
    ( "hotplug:at=20s,shrink=40%,restore=40s",
      "[hotplug at=20000000000 shrink=F0.40000000000000002 restore=40000000000]",
      "hotplug:at=20s,shrink=40%,restore=40s" );
    ( "hotplug:at=5s,shrink=40%,restore=15s;degrade:at=20s,for=8s,latency=8x",
      "[hotplug at=5000000000 shrink=F0.40000000000000002 restore=15000000000] [degrade at=20000000000 for=8000000000 latency=8 errors=0 wear=0]",
      "hotplug:at=5s,shrink=40%,restore=15s;degrade:at=20s,for=8s,latency=8x" );
    ( "hotplug:at=50ms,shrink=30%,restore=150ms;degrade:at=200ms,for=100ms,latency=4x;burst:at=350ms,for=50ms",
      "[hotplug at=50000000 shrink=F0.29999999999999999 restore=150000000] [degrade at=200000000 for=100000000 latency=4 errors=0 wear=0] [burst at=350000000 for=50000000 threads=]",
      "hotplug:at=50ms,shrink=30%,restore=150ms;degrade:at=200ms,for=100ms,latency=4x;burst:at=350ms,for=50ms" );
    ( "burst:at=1ms,for=10ms,threads=0-1;burst:at=5ms,for=2ms,threads=2-3",
      "[burst at=1000000 for=10000000 threads=0-1] [burst at=5000000 for=2000000 threads=2-3]",
      "burst:at=1ms,for=10ms,threads=0-1;burst:at=5ms,for=2ms,threads=2-3" );
    ( "degrade:at=3s,for=10s,latency=8x,errors=0.01",
      "[degrade at=3000000000 for=10000000000 latency=8 errors=0.01 wear=0]",
      "degrade:at=3s,for=10s,latency=8x,errors=0.01" );
    ( "churn:at=2s,cg=app,max=40%",
      "[churn at=2000000000 cg=app low=- high=- max=F0.40000000000000002]",
      "churn:at=2s,cg=app,max=40%" );
    ( "corrupt:at=1s",
      "[corrupt at=1000000000]",
      "corrupt:at=1s" );
    ( "degrade:at=5ms,for=2ms,latency=4x",
      "[degrade at=5000000 for=2000000 latency=4 errors=0 wear=0]",
      "degrade:at=5ms,for=2ms,latency=4x" );
    ( "burst:at=5ms,for=2ms;corrupt:at=1s",
      "[burst at=5000000 for=2000000 threads=] [corrupt at=1000000000]",
      "burst:at=5ms,for=2ms;corrupt:at=1s" );
    ( "hotplug:at=0,shrink=1",
      "[hotplug at=0 shrink=P1 restore=-]",
      "hotplug:at=0,shrink=1" );
    ( "degrade:at=1500us,for=2.5ms,errors=0.5,wear=0.25",
      "[degrade at=1500000 for=2500000 latency=1 errors=0.5 wear=0.25]",
      "degrade:at=1500us,for=2500us,errors=0.5,wear=0.25" );
    ( "churn:at=1000,cg=db,low=10,high=50%,max=100;burst:at=999,for=1,threads=0+2-3+5-5",
      "[churn at=1000 cg=db low=P10 high=F0.5 max=P100] [burst at=999 for=1 threads=0-0+2-3+5-5]",
      "churn:at=1us,cg=db,low=10,high=50%,max=100;burst:at=999,for=1,threads=0+2-3+5" );
    ( " hotplug : at=1ms , shrink=10 ; ; corrupt:at=7",
      "[hotplug at=1000000 shrink=P10 restore=-] [corrupt at=7]",
      "hotplug:at=1ms,shrink=10;corrupt:at=7" );
    ( "degrade:at=1ms,for=1ms,latency=1.5x,errors=0,wear=0.001",
      "[degrade at=1000000 for=1000000 latency=1.5 errors=0 wear=0.001]",
      "degrade:at=1ms,for=1ms,latency=1.5x,wear=0.001" );
    ( "churn:at=2s,cg=app,max=40%;churn:at=4s,cg=app,max=60%",
      "[churn at=2000000000 cg=app low=- high=- max=F0.40000000000000002] [churn at=4000000000 cg=app low=- high=- max=F0.59999999999999998]",
      "churn:at=2s,cg=app,max=40%;churn:at=4s,cg=app,max=60%" );
  ]

let pinned ~parse ~show ~print (spec, want_value, want_printed) () =
  match parse spec with
  | Error e -> Alcotest.failf "%S rejected: %s" spec e
  | Ok v ->
    Alcotest.(check string) (spec ^ " parses to") want_value (show v);
    Alcotest.(check string) (spec ^ " prints as") want_printed (print v);
    (match parse want_printed with
    | Error e -> Alcotest.failf "rendering %S rejected: %s" want_printed e
    | Ok v' -> Alcotest.(check string) (want_printed ^ " reparses to") want_value (show v'))

let corpus_cases name ~parse ~show ~print corpus =
  List.mapi
    (fun i case ->
      Alcotest.test_case (Printf.sprintf "%s %02d" name i) `Quick
        (pinned ~parse ~show ~print case))
    corpus

(* ------------------------------------------------------------------ *)
(* The shared lexical layer itself                                     *)

let value ?(col = 0) text = { S.key = "k"; col; text }

let result = Alcotest.(result int string)

let test_columns () =
  match S.segments "  a : k = v ,, ; ;b" with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok [ a; b ] ->
    Alcotest.(check (pair int string)) "first segment" (2, "a") (a.S.start, a.S.cls);
    (match a.S.fields with
    | [ v ] -> Alcotest.(check (triple string int string)) "field" ("k", 10, "v") (v.S.key, v.S.col, v.S.text)
    | _ -> Alcotest.fail "want one field");
    Alcotest.(check (pair int string)) "second segment" (18, "b") (b.S.start, b.S.cls);
    Alcotest.(check int) "no fields" 0 (List.length b.S.fields)
  | Ok segs -> Alcotest.failf "want two segments, got %d" (List.length segs)

let test_times () =
  let t ?(zero_ok = false) text = S.time ~zero_ok (value text) in
  Alcotest.check result "plain ns" (Ok 1500) (t "1500");
  Alcotest.check result "float us" (Ok 1500) (t "1.5us");
  Alcotest.check result "truncated" (Ok 1) (t "0.0015us");
  Alcotest.check result "zero where allowed" (Ok 0) (t ~zero_ok:true "0ms");
  Alcotest.check result "zero" (Error "1:1: k: must be positive") (t "0");
  Alcotest.check result "under 1ns even where 0 is allowed"
    (Error "1:1: k: time \"0.0005us\" is under 1ns")
    (t ~zero_ok:true "0.0005us");
  Alcotest.check result "past max_int" (Error "1:1: k: time \"1e300s\" out of range") (t "1e300s");
  Alcotest.check result "infinite" (Error "1:1: k: time \"infs\" out of range") (t "infs");
  Alcotest.check result "nan" (Error "1:1: k: bad time \"nanms\"") (t "nanms");
  Alcotest.(check (list string)) "printed in the largest exact unit"
    [ "0"; "999"; "1us"; "1500us"; "2ms"; "3s" ]
    (List.map S.time_to_string [ 0; 999; 1_000; 1_500_000; 2_000_000; 3_000_000_000 ])

let test_amounts () =
  let amount text = Result.map show_amount (S.amount (value text)) in
  let r = Alcotest.(result string string) in
  Alcotest.check r "pages" (Ok "P64") (amount "64");
  Alcotest.check r "percent" (Ok "F0.25") (amount "25%");
  Alcotest.check r "infinite percent" (Error "1:1: k: bad percentage \"inf%\"") (amount "inf%");
  Alcotest.check r "negative" (Error "1:1: k: negative amount \"-1\"") (amount "-1");
  Alcotest.(check int) "fraction of capacity" 250 (S.resolve ~capacity:1000 (S.Frac 0.25));
  Alcotest.(check int) "saturates" max_int (S.resolve ~capacity:1000 (S.Frac 1e300))

(* Floats print with %g's six digits unless more are needed to read the
   same value back: specs that parse apart must print apart. *)
let test_floats () =
  let amount text = S.amount_to_string (Result.get_ok (S.amount (value text))) in
  Alcotest.(check (list string)) "six digits when they read back"
    [ "45%"; "0.5%"; "12.3457%"; "100%"; "1e+06%" ]
    (List.map amount [ "45%"; "0.5%"; "12.3457%"; "100%"; "1e6%" ]);
  Alcotest.(check (list string)) "more digits when they do not"
    [ "12.345671%"; "33.333333333333336%" ]
    (List.map amount [ "12.345671%"; "33.333333333333336%" ]);
  Alcotest.(check (list string)) "plain floats"
    [ "0.1"; "0.1234567"; "0.1234568"; "8"; "1e-07"; "0.30000000000000004" ]
    (List.map S.float_to_string [ 0.1; 0.1234567; 0.1234568; 8.0; 1e-7; 0.1 +. 0.2 ]);
  List.iter
    (fun text ->
      let parsed = S.amount (value text) in
      let printed = S.amount_to_string (Result.get_ok parsed) in
      Alcotest.(check bool) (text ^ " reads back") true (S.amount (value printed) = parsed))
    [ "45%"; "7%"; "12.345671%"; "33.333333333333336%"; "0.0123456789012345%" ]

let test_threads () =
  let r = Alcotest.(result string string) in
  let threads text = Result.map S.threads_to_string (S.threads (value ~col:4 text)) in
  Alcotest.check r "ranges" (Ok "0-1+4+6-7") (threads "0-1 + 4-4 +6-7");
  Alcotest.check r "inverted" (Error "1:8: k: bad thread range \"3-1\"") (threads "0+ 3-1");
  Alcotest.check r "empty" (Error "1:5: k: empty thread list") (threads "+")

let () =
  Alcotest.run "spec_syntax"
    [
      ( "lexical layer",
        [
          Alcotest.test_case "columns" `Quick test_columns;
          Alcotest.test_case "times" `Quick test_times;
          Alcotest.test_case "amounts" `Quick test_amounts;
          Alcotest.test_case "floats" `Quick test_floats;
          Alcotest.test_case "threads" `Quick test_threads;
        ] );
      ( "cgroups corpus",
        corpus_cases "cgroups" ~parse:Mcg.parse_spec ~show:show_memcg
          ~print:Mcg.spec_to_string cgroups_corpus );
      ( "chaos corpus",
        corpus_cases "chaos" ~parse:C.parse_spec ~show:show_chaos
          ~print:C.spec_to_string chaos_corpus );
    ]
