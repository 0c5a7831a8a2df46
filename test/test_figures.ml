(* Figure-model checks at the fast profile: the typed cells each builder
   produces, the grid a builder reads, and the generic CSV rule.  The
   printed tables are covered byte for byte by the golden rules in
   test/dune (fig1-fast.out, fig-all-fast.out and its CSVs). *)

module F = Repro_core.Figures
module R = Repro_core.Runner
module Rep = Repro_core.Report

let ctx =
  R.make_ctx ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 1 } ()

let build n = List.hd (F.build ctx [ F.paper n ])

let ratio = function Rep.Ratio x -> x | _ -> Alcotest.fail "expected a ratio cell"

let text = function Rep.Text s -> s | _ -> Alcotest.fail "expected a text cell"

let printed f = List.filter (fun t -> not t.Rep.export_only) f.Rep.tables

let test_cell_metrics () =
  let c =
    F.cell ctx ~workload:R.Tpch ~policy:Policy.Registry.Clock ~ratio:0.5 ~swap:R.Ssd
  in
  Alcotest.(check bool) "perf positive" true (c.F.perf > 0.0);
  Alcotest.(check bool) "faults positive" true (c.F.mean_faults > 0.0);
  Alcotest.(check int) "one trial" 1 (List.length c.F.results)

let test_ycsb_cell_uses_latency () =
  let c =
    F.cell ctx ~workload:(R.Ycsb Workload.Ycsb.C) ~policy:Policy.Registry.Clock
      ~ratio:0.5 ~swap:R.Ssd
  in
  (* The fig-1 metric for YCSB is mean request latency in ns: far larger
     than any plausible runtime-in-seconds number. *)
  Alcotest.(check bool) "metric is a latency" true (c.F.perf > 1_000.0)

let test_fig1_data () =
  match (build 1).Rep.tables with
  | [ t ] ->
    Alcotest.(check int) "five workloads" 5 (List.length t.Rep.rows);
    List.iter
      (function
        | [ name; _; perf; _; faults ] ->
          let name = text name in
          let perf = ratio perf and faults = ratio faults in
          Alcotest.(check bool) (name ^ " perf ratio sane") true (perf > 0.2 && perf < 5.0);
          Alcotest.(check bool) (name ^ " fault ratio sane") true
            (faults > 0.2 && faults < 5.0)
        | _ -> Alcotest.fail "fig1 rows have five columns")
      t.Rep.rows
  | _ -> Alcotest.fail "fig1 is one table"

let test_fig4_data () =
  let tables = (build 4).Rep.tables in
  (* 5 workloads x 5 variants *)
  Alcotest.(check int) "tables" 5 (List.length tables);
  List.iter
    (fun t ->
      Alcotest.(check int) "variants" 5 (List.length t.Rep.rows);
      (* The default-MG-LRU rows normalize to exactly 1. *)
      List.iter
        (function
          | [ variant; perf; _ ] when text variant = "mglru" ->
            Alcotest.(check (float 1e-9)) "self-normalized" 1.0 (ratio perf)
          | _ -> ())
        t.Rep.rows)
    tables

let test_fig9_fig10_data () =
  List.iter
    (fun n ->
      match (build n).Rep.tables with
      | [ t ] ->
        let mglru =
          match List.find_index (( = ) "mglru") t.Rep.header with
          | Some i -> i
          | None -> Alcotest.fail "no mglru column"
        in
        Alcotest.(check int) "rows" 5 (List.length t.Rep.rows);
        List.iter
          (fun row ->
            Alcotest.(check int) "workload + six specs" 7 (List.length row);
            Alcotest.(check (float 1e-9)) "base" 1.0 (ratio (List.nth row mglru)))
          t.Rep.rows
      | _ -> Alcotest.failf "fig%d is one table" n)
    [ 9; 10 ]

let test_fig11_data () =
  match (build 11).Rep.tables with
  | [ t ] ->
    Alcotest.(check int) "five workloads" 5 (List.length t.Rep.rows);
    List.iter
      (function
        | [ name; rt; faults ] ->
          let name = text name in
          Alcotest.(check bool) (name ^ ": zram faster") true (ratio rt < 1.0);
          Alcotest.(check bool) (name ^ ": faults not reduced") true (ratio faults > 0.8)
        | _ -> Alcotest.fail "fig11 rows have three columns")
      t.Rep.rows
  | _ -> Alcotest.fail "fig11 is one table"

(* One trial per cell: a regression needs two points, so r2 renders "-"
   instead of raising.  The cells are warm from the fig1/fig4 cases. *)
let test_joint_single_trial () =
  List.iter
    (fun n ->
      let f = build n in
      let tables = printed f in
      Alcotest.(check int) (Printf.sprintf "fig%d: two workloads" n) 2 (List.length tables);
      List.iter
        (fun t ->
          List.iter
            (fun row ->
              Alcotest.(check bool) "r2 is a dash" true
                (List.nth row (List.length row - 1) = Rep.Dash))
            t.Rep.rows)
        tables;
      (* The export-only points: one per (policy, trial). *)
      let points = List.filter (fun t -> t.Rep.export_only) f.Rep.tables in
      Alcotest.(check int) "point tables" 2 (List.length points);
      List.iter2
        (fun p t ->
          Alcotest.(check int) "one point per policy" (List.length t.Rep.rows)
            (List.length p.Rep.rows))
        points tables)
    [ 2; 5 ]

(* The grids each figure read before builders recorded their own,
   pinned here.  The recorded grid must hold the same cells, in the same
   order: registry order is the order these crosses enumerate, and the
   experiment log (so trace files) follows it. *)
let cross workloads policies ratios swaps =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun p -> List.concat_map (fun r -> List.map (fun s -> (w, p, r, s)) swaps) ratios)
        policies)
    workloads

let pinned_grid n =
  let open Policy.Registry in
  let ycsb = List.map (fun v -> R.Ycsb v) Workload.Ycsb.[ A; B; C ] in
  let batch = [ R.Tpch; R.Pagerank ] in
  let cvm = [ Clock; Mglru_default ] in
  let variants = [ Mglru_default; Gen14; Scan_all; Scan_none; Scan_rand 0.5 ] in
  match n with
  | 1 -> cross R.all_workloads cvm [ 0.5 ] [ R.Ssd ]
  | 2 -> cross batch cvm [ 0.5 ] [ R.Ssd ]
  | 3 -> cross ycsb cvm [ 0.5 ] [ R.Ssd ]
  | 4 -> cross R.all_workloads variants [ 0.5 ] [ R.Ssd ]
  | 5 -> cross batch variants [ 0.5 ] [ R.Ssd ]
  | 6 -> cross R.all_workloads all_paper_specs [ 0.75; 0.9 ] [ R.Ssd ]
  | 7 -> cross batch all_paper_specs [ 0.5; 0.75; 0.9 ] [ R.Ssd ]
  | 8 -> cross ycsb cvm [ 0.75; 0.9 ] [ R.Ssd ]
  | 9 | 10 -> cross R.all_workloads all_paper_specs [ 0.5 ] [ R.Zram ]
  | 11 -> cross R.all_workloads [ Mglru_default ] [ 0.5 ] [ R.Ssd; R.Zram ]
  | 12 -> cross ycsb cvm [ 0.5 ] [ R.Zram ]
  | n -> Alcotest.failf "no pinned grid for figure %d" n

let test_grid_matches_pinned () =
  let key (w, p, r, s) =
    Printf.sprintf "%s/%s/%g/%s" (R.workload_kind_name w) (Policy.Registry.cache_key p) r
      (R.swap_name s)
  in
  List.iter
    (fun n ->
      Alcotest.(check (list string))
        (Printf.sprintf "figure %d grid" n)
        (List.map key (pinned_grid n))
        (List.map key (F.grid (F.paper n))))
    F.all_figures

(* The recorded grid covers every cell the builder reads: once it is
   prefetched, building computes nothing more. *)
let test_grid_covers_build () =
  List.iter
    (fun n ->
      F.prefetch ctx [ F.paper n ];
      let before = R.cached_results ctx in
      ignore (build n);
      Alcotest.(check int)
        (Printf.sprintf "figure %d: no new trials" n)
        before (R.cached_results ctx))
    [ 1; 11 ]

let test_build_bounds () =
  let before = R.cached_results ctx in
  Alcotest.check_raises "figure 0" (Invalid_argument "Figures.paper: no figure 0")
    (fun () -> ignore (F.build ctx (List.map F.paper [ 1; 0 ])));
  Alcotest.check_raises "figure 13" (Invalid_argument "Figures.paper: no figure 13")
    (fun () -> ignore (F.build ctx (List.map F.paper [ 13 ])));
  Alcotest.(check int) "nothing ran" before (R.cached_results ctx)

let read_lines path =
  let inc = open_in path in
  let rec go acc =
    match input_line inc with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in inc;
  lines

let test_csv_quoting () =
  let path = Filename.temp_file "csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro_core.Csv_export.write ~path ~header:[ "a"; "b" ]
        [ [ "x,y"; "he said \"hi\"" ]; [ "plain"; "1" ] ];
      Alcotest.(check (list string))
        "quoted correctly"
        [ "a,b"; "\"x,y\",\"he said \"\"hi\"\"\""; "plain,1" ]
        (read_lines path))

(* The generic table -> CSV rule: caption columns, then the header;
   tables sharing a stem share a file; export-only tables are written. *)
let test_write_figure () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "figcsv-test" in
  let table caption stem ?(export_only = false) rows =
    { Rep.caption; stem; header = [ "policy"; "v" ]; rows; export_only }
  in
  let fig =
    {
      Rep.title = "t";
      before = [];
      after = [];
      tables =
        [
          table [ ("ratio", "ratio 50%") ] "a" [ [ Rep.Text "clock"; Rep.Ratio 1.25 ] ];
          table [ ("ratio", "ratio 75%") ] "a" [ [ Rep.Text "mglru"; Rep.Ratio Float.nan ] ];
          table [ ("ratio", "ratio 50%") ] "b" ~export_only:true
            [ [ Rep.Text "x,y"; Rep.Count 1234567. ]; [ Rep.Text "z"; Rep.Dash ] ];
        ];
    }
  in
  let paths = Repro_core.Csv_export.write_figure ~dir fig in
  Alcotest.(check (list string)) "one file per stem"
    [ Filename.concat dir "a.csv"; Filename.concat dir "b.csv" ]
    paths;
  Alcotest.(check (list string)) "a.csv"
    [ "ratio,policy,v"; "ratio 50%,clock,1.25"; "ratio 75%,mglru,failed" ]
    (read_lines (List.nth paths 0));
  Alcotest.(check (list string)) "b.csv"
    [ "ratio,policy,v"; "ratio 50%,\"x,y\",1234567"; "ratio 50%,z,-" ]
    (read_lines (List.nth paths 1));
  List.iter Sys.remove paths;
  Sys.rmdir dir

(* The readahead study runs its own machines, outside the cached
   runner; they must still be the run's machines (scaled costs, fault
   plan, audits), with only the window changed and captures off. *)
let test_readahead_config () =
  let ctx =
    R.make_ctx
      ~profile:{ R.trials = 1; ycsb_trials = 1; fast = true; scale = 4 }
      ~fault_plan:Swapdev.Faulty_device.light ~audit_every_ns:5_000_000 ()
  in
  let cfg =
    Repro_core.Ablation.readahead_config ctx ~footprint:1000 ~window:8
  in
  let module M = Repro_core.Machine in
  Alcotest.(check bool) "scaled costs" true
    (cfg.M.costs = Mem.Costs.experiment ~scale:4);
  Alcotest.(check bool) "light fault plan" true
    (cfg.M.fault_plan = Swapdev.Faulty_device.light);
  Alcotest.(check int) "audit cadence" 5_000_000 cfg.M.audit_every_ns;
  Alcotest.(check int) "window" 8 cfg.M.readahead;
  Alcotest.(check int) "half the footprint" 500 cfg.M.capacity_frames;
  Alcotest.(check int) "seed" 4242 cfg.M.seed;
  Alcotest.(check bool) "captures off" true (cfg.M.obs = Obs.off)

let () =
  Alcotest.run "figures"
    [
      ( "data",
        [
          (* First: a warm cache would hide a cell the grid misses. *)
          Alcotest.test_case "grid covers build" `Slow test_grid_covers_build;
          Alcotest.test_case "cell metrics" `Slow test_cell_metrics;
          Alcotest.test_case "ycsb latency metric" `Slow test_ycsb_cell_uses_latency;
          Alcotest.test_case "fig1" `Slow test_fig1_data;
          Alcotest.test_case "fig4" `Slow test_fig4_data;
          Alcotest.test_case "fig2/fig5 at one trial" `Slow test_joint_single_trial;
          Alcotest.test_case "fig9/fig10" `Slow test_fig9_fig10_data;
          Alcotest.test_case "fig11" `Slow test_fig11_data;
          Alcotest.test_case "grid matches pinned" `Quick test_grid_matches_pinned;
          Alcotest.test_case "build bounds" `Quick test_build_bounds;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          Alcotest.test_case "csv figure rule" `Quick test_write_figure;
          Alcotest.test_case "readahead config" `Quick test_readahead_config;
        ] );
    ]
