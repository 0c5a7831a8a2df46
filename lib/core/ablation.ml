let workloads = [ Runner.Tpch; Runner.Pagerank ]

let header =
  "configuration"
  :: List.concat_map
       (fun w ->
         [ Runner.workload_kind_name w ^ " rt"; Runner.workload_kind_name w ^ " faults" ])
       workloads

(* One row: a label, then (mean runtime, mean faults) per workload. *)
let row label cells =
  Report.Text label
  :: List.concat_map (fun (rt, faults) -> [ Report.Seconds rt; Report.Count faults ]) cells

let figure ~title ~stem rows after =
  { Report.title; before = []; tables = [ Report.make_table ~stem ~header rows ]; after }

(* A failed trial turns the cell's means into NaN, which the formatters
   render as "failed" — the sweep's other cells still print. *)
let policy_row (get : Figures.lookup) label policy =
  row label
    (List.map
       (fun workload ->
         let c = get ~workload ~policy ~ratio:0.5 ~swap:Runner.Ssd in
         (Figures.mean_runtime c, c.Figures.mean_faults))
       workloads)

let mglru_rows get ~label_of configs =
  List.map (fun c -> policy_row get (label_of c) (Policy.Registry.Mglru_custom c)) configs

let generations get =
  let configs =
    List.map
      (fun max_gens -> { Policy.Mglru.default_config with Policy.Mglru.max_gens })
      [ 2; 4; 8; 16; 1 lsl 14 ]
  in
  figure ~title:"Ablation: generation-window cap (SSD, 50%)" ~stem:"ablate_generations"
    (policy_row get "clock (2 lists)" Policy.Registry.Clock
    :: mglru_rows get
         ~label_of:(fun c -> Printf.sprintf "mglru max_gens=%d" c.Policy.Mglru.max_gens)
         configs)
    [
      "Paper SV-B: the cap barely moves the means because promotion and";
      "eviction rules are unchanged - only the recency resolution grows.";
    ]

let bloom_density get =
  let configs =
    List.map
      (fun shift ->
        { Policy.Mglru.default_config with Policy.Mglru.bloom_density_shift = shift })
      [ 0; 1; 3; 5 ]
  in
  figure ~title:"Ablation: Bloom-filter admission density (SSD, 50%)" ~stem:"ablate_bloom"
    (mglru_rows get
       ~label_of:(fun c ->
         Printf.sprintf "density >= 1/%d of region" (1 lsl c.Policy.Mglru.bloom_density_shift))
       configs)
    [
      "Shift 0 admits only fully-accessed regions (filter nearly empty);";
      "large shifts admit everything (converging on Scan-All behaviour).";
    ]

let spatial_scan get =
  figure ~title:"Ablation: eviction-side spatial scan (SSD, 50%)" ~stem:"ablate_spatial"
    (List.map
       (fun (label, spatial_scan) ->
         policy_row get label
           (Policy.Registry.Mglru_custom { Policy.Mglru.default_config with spatial_scan }))
       [ ("look-around on", true); ("look-around off", false) ])
    [
      "Without the look-around, every rescue costs a full rmap walk - the";
      "Clock cost structure the paper says MG-LRU amortizes (SIII-C).";
    ]

(* The run's own machine (scaled costs, faults, audits, cgroups, chaos)
   with only the readahead window changed.  Captures stay off: these
   trials never enter the result store, so nothing could write them. *)
let readahead_config ctx ~footprint ~window =
  {
    (Runner.machine_config ctx
       ~capacity_frames:(Runner.capacity_for ~footprint ~ratio:0.5)
       ~seed:4242)
    with
    Machine.readahead = window;
  }

let readahead ctx =
  (* Readahead is a machine knob, so bypass the cached runner.  The
     (window, workload) grid still runs through the domain pool: results
     come back in input order, so the table is schedule-independent. *)
  let windows = [ 0; 2; 8; 32 ] in
  let grid =
    List.concat_map
      (fun window -> List.map (fun kind -> (window, kind)) workloads)
      windows
  in
  let run_one (window, kind) =
    let workload = Runner.make_workload ctx kind ~trial:0 in
    let cfg =
      readahead_config ctx ~footprint:(Workload.Chunk.packed_footprint workload)
        ~window
    in
    let r =
      Machine.run cfg
        ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
        ~workload
    in
    (float_of_int r.Machine.runtime_ns /. 1e9, float_of_int r.Machine.major_faults)
  in
  let results =
    Engine.Pool.with_pool
      ~jobs:(min (Runner.jobs ctx) (List.length grid))
      (fun pool -> Engine.Pool.map_list pool run_one grid)
  in
  let per_window = List.length workloads in
  figure ~title:"Ablation: swap readahead window (machine-level, SSD, 50%)"
    ~stem:"ablate_readahead"
    (List.mapi
       (fun i window ->
         row (Printf.sprintf "window=%d" window)
           (List.filteri (fun j _ -> j / per_window = i) results))
       windows)
    [
      "Sequential regions benefit; the per-zone success heuristic keeps";
      "random regions from being polluted even at large windows.";
    ]

let scan_probability get =
  let configs =
    List.map
      (fun p -> Policy.Mglru.with_mode (Policy.Mglru.Scan_rand p) Policy.Mglru.default_config)
      [ 0.1; 0.25; 0.5; 0.75; 0.9 ]
  in
  figure ~title:"Ablation: Scan-Rand probability (SSD, 50%)" ~stem:"ablate_scan_rand"
    (mglru_rows get
       ~label_of:(fun c ->
         match c.Policy.Mglru.scan_mode with
         | Policy.Mglru.Scan_rand p -> Printf.sprintf "p=%.2f" p
         | _ -> "?")
       configs)
    [
      "The paper fixes p=0.5 and asks (SVI-C) whether principled randomness";
      "can replace the Bloom filter outright.";
    ]

type study = Cached of Figures.builder | Direct of (Runner.ctx -> Report.figure)

let studies =
  [
    ("generations", Cached generations);
    ("bloom", Cached bloom_density);
    ("spatial", Cached spatial_scan);
    ("readahead", Direct readahead);
    ("scan-rand", Cached scan_probability);
  ]

let names = List.map fst studies

let build ctx names =
  let chosen =
    List.map
      (fun name ->
        match List.assoc_opt name studies with
        | Some s -> s
        | None -> invalid_arg (Printf.sprintf "Ablation.build: no study %S" name))
      names
  in
  (* One prefetch over every cached study's grid, as for the figures;
     the direct studies run their own pool when reached. *)
  Figures.prefetch ctx (List.filter_map (function Cached b -> Some b | Direct _ -> None) chosen);
  List.map (function Cached b -> b (Figures.cell ctx) | Direct run -> run ctx) chosen
