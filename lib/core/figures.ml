type cell = {
  workload : Runner.workload_kind;
  policy : Policy.Registry.spec;
  ratio : float;
  swap : Runner.swap_medium;
  outcomes : Runner.trial_outcome list;
  results : Machine.stored list;  (** the [Done] outcomes, in trial order *)
  failed : int;
  perf : float;
  mean_faults : float;
}

(* The figure-1 performance metric: total runtime for the batch
   workloads, mean request latency for YCSB (paper Fig. 1 caption).  The
   latency sum is an exact int; see DESIGN §4 on sums past 2^53. *)
let perf_of workload results =
  match workload with
  | Runner.Tpch | Runner.Pagerank -> Runner.mean_runtime_s results
  | Runner.Ycsb _ | Runner.Fleet _ ->
    let lats = List.concat_map (fun r -> Machine.[ r.read_latencies; r.write_latencies ]) results in
    let total f = List.fold_left (fun n l -> n + f l) 0 lats in
    let n = total Structures.Latencies.count in
    if n = 0 then 0.0
    else float_of_int (total Structures.Latencies.sum) /. float_of_int n

(* A cell with any failed trial carries NaN aggregates: arithmetic on
   them stays NaN, and the formatters render NaN as "failed", so a
   failure anywhere in a comparison poisons exactly the derived numbers
   it would have skewed — never a silently partial mean. *)
let cell ctx ~workload ~policy ~ratio ~swap =
  let outcomes = Runner.try_cell ctx ~workload ~policy ~ratio ~swap in
  let results =
    List.filter_map
      (function Runner.Done r -> Some r | Runner.Failed _ -> None)
      outcomes
  in
  let failed = List.length outcomes - List.length results in
  {
    workload;
    policy;
    ratio;
    swap;
    outcomes;
    results;
    failed;
    perf = (if failed > 0 then Float.nan else perf_of workload results);
    mean_faults =
      (if failed > 0 then Float.nan else Runner.mean_faults results);
  }

type lookup =
  workload:Runner.workload_kind ->
  policy:Policy.Registry.spec ->
  ratio:float ->
  swap:Runner.swap_medium ->
  cell

type builder = lookup -> Report.figure

let mean_runtime c = if c.failed > 0 then Float.nan else Runner.mean_runtime_s c.results

let wname = Runner.workload_kind_name

let pname = Policy.Registry.name

let variants = Policy.Registry.[ Mglru_default; Gen14; Scan_all; Scan_none; Scan_rand 0.5 ]

let all_specs = Policy.Registry.all_paper_specs

let ratio_default = 0.5

let clock_vs_mglru = Policy.Registry.[ Clock; Mglru_default ]

let batch_workloads = [ Runner.Tpch; Runner.Pagerank ]

let norm x base = x /. Float.max 1e-9 base

(* Full table row for a cell whose statistics cannot be computed. *)
let failed_row label ncols =
  Report.Text label :: List.init ncols (fun _ -> Report.Text Report.failed_marker)

let table = Report.make_table

let by_workload workload = ("workload", wname workload)

let by_ratio title ratio =
  ("ratio", Printf.sprintf "%s %.0f%%" title (ratio *. 100.0))

(* ------------------------------------------------------------------ *)

let fig1 (get : lookup) =
  let rows =
    List.map
      (fun workload ->
        let at policy = get ~workload ~policy ~ratio:ratio_default ~swap:Runner.Ssd in
        let clock = at Policy.Registry.Clock in
        let mglru = at Policy.Registry.Mglru_default in
        let base = Report.Ratio (if clock.failed > 0 then Float.nan else 1.0) in
        Report.
          [
            Text (wname workload);
            base;
            Ratio (norm mglru.perf clock.perf);
            base;
            Ratio (norm mglru.mean_faults clock.mean_faults);
          ])
      Runner.all_workloads
  in
  {
    Report.title = "Figure 1: MG-LRU vs Clock, SSD swap, 50% capacity-footprint";
    before = [ "Mean performance and faults normalized to Clock-LRU (lower is better)." ];
    tables =
      [
        table ~stem:"fig1"
          ~header:[ "workload"; "clock perf"; "mglru perf"; "clock faults"; "mglru faults" ]
          rows;
      ];
    after =
      [
        "Paper shape: MG-LRU matches or outperforms Clock on every workload here,";
        "via a reduction in swapping (fewer faults).";
      ];
  }

(* ------------------------------------------------------------------ *)

(* A regression needs two points: with one trial r2 renders "-". *)
let joint_row c =
  if c.failed > 0 then failed_row (pname c.policy) 7
  else begin
    let rt = Runner.runtimes_s c.results in
    let fl = Runner.faults c.results in
    let srt = Stats.Summary.of_array rt in
    let sfl = Stats.Summary.of_array fl in
    let r2 =
      if Array.length rt < 2 then Report.Dash
      else Report.Fixed (3, (Stats.Regression.fit ~x:fl ~y:rt).Stats.Regression.r2)
    in
    Report.
      [
        Text (pname c.policy);
        Seconds srt.Stats.Summary.mean;
        Seconds srt.Stats.Summary.min;
        Seconds srt.Stats.Summary.max;
        Ratio (Stats.Summary.spread srt);
        Count sfl.Stats.Summary.mean;
        Fixed (3, Stats.Summary.cv sfl);
        r2;
      ]
  end

(* The per-trial (runtime, faults) points the paper scatters. *)
let point_rows c =
  List.mapi
    (fun trial o ->
      let runtime_s, faults =
        match o with
        | Runner.Done r ->
          (float_of_int r.Machine.runtime_ns /. 1e9, float_of_int r.Machine.major_faults)
        | Runner.Failed _ -> (Float.nan, Float.nan)
      in
      Report.
        [ Text (pname c.policy); Text (string_of_int trial); Seconds runtime_s; Count faults ])
    c.outcomes

let joint_tables (get : lookup) ~stem ~policies =
  List.concat_map
    (fun workload ->
      let cells =
        List.map
          (fun policy -> get ~workload ~policy ~ratio:ratio_default ~swap:Runner.Ssd)
          policies
      in
      let caption = [ by_workload workload ] in
      [
        table ~caption ~stem
          ~header:
            [ "policy"; "mean rt"; "min rt"; "max rt"; "spread"; "mean faults"; "fault CV";
              "r2(rt~faults)" ]
          (List.map joint_row cells);
        table ~caption ~export_only:true ~stem:(stem ^ "_points")
          ~header:[ "policy"; "trial"; "runtime_s"; "major_faults" ]
          (List.concat_map point_rows cells);
      ])
    batch_workloads

let fig2 get =
  {
    Report.title = "Figure 2: joint runtime/fault distributions (SSD, 50%)";
    before = [];
    tables = joint_tables get ~stem:"fig2" ~policies:clock_vs_mglru;
    after =
      [
        "Paper shape: TPC-H runtime is a nearly perfect linear function of its";
        "fault count (r2 > 0.98) with a ~3x fastest-to-slowest spread; PageRank";
        "runtime decorrelates from faults, and MG-LRU adds variance that Clock";
        "does not show.";
      ];
  }

(* ------------------------------------------------------------------ *)

let tail_rows label lat =
  if Structures.Latencies.count lat = 0 then
    [ Report.Text label :: List.init 6 (fun _ -> Report.Dash) ]
  else
    let t = Stats.Percentile.tail_of_runs lat in
    [
      Report.Text label
      :: List.map (fun ns -> Report.Ns ns) Stats.Percentile.[ t.p50; t.p90; t.p99; t.p999; t.p9999; t.max ];
    ]

let tail_tables (get : lookup) ?(caption = []) ~stem ~swap ~ratio () =
  List.map
    (fun variant ->
      let workload = Runner.Ycsb variant in
      let rows =
        List.concat_map
          (fun policy ->
            let c = get ~workload ~policy ~ratio ~swap in
            let read = pname policy ^ " read" and write = pname policy ^ " write" in
            if c.failed > 0 then [ failed_row read 6; failed_row write 6 ]
            else
              tail_rows read (Runner.pooled_read_latencies c.results)
              @ tail_rows write (Runner.pooled_write_latencies c.results))
          clock_vs_mglru
      in
      table ~caption:(caption @ [ by_workload workload ]) ~stem
        ~header:[ "policy/op"; "p50"; "p90"; "p99"; "p99.9"; "p99.99"; "max" ]
        rows)
    Workload.Ycsb.[ A; B; C ]

let fig3 get =
  {
    Report.title = "Figure 3: YCSB tail latencies (SSD, 50%)";
    before = [];
    tables = tail_tables get ~stem:"fig3_tails" ~swap:Runner.Ssd ~ratio:ratio_default ();
    after =
      [
        "Paper shape: MG-LRU trades higher read tails (20-40% at p99.99) for";
        "lower write tails (Clock 10-50% higher past p99).";
      ];
  }

(* ------------------------------------------------------------------ *)

let fig4 (get : lookup) =
  let tables =
    List.map
      (fun workload ->
        let at policy = get ~workload ~policy ~ratio:ratio_default ~swap:Runner.Ssd in
        let base = at Policy.Registry.Mglru_default in
        let rows =
          List.map
            (fun policy ->
              let c = at policy in
              Report.
                [
                  Text (pname policy);
                  Ratio (norm c.perf base.perf);
                  Ratio (norm c.mean_faults base.mean_faults);
                ])
            variants
        in
        table ~caption:[ by_workload workload ] ~stem:"fig4"
          ~header:[ "variant"; "perf"; "faults" ] rows)
      Runner.all_workloads
  in
  {
    Report.title = "Figure 4: MG-LRU parameter variants (SSD, 50%)";
    before = [ "Mean performance and faults normalized to default MG-LRU." ];
    tables;
    after =
      [
        "Paper shape: on TPC-H, Scan-None improves on default MG-LRU by >20%";
        "while Scan-All degrades it by >60%; the ordering roughly inverts on";
        "PageRank; all variants tie on YCSB's zipfian traffic.";
      ];
  }

let fig5 get =
  {
    Report.title = "Figure 5: variant joint runtime/fault distributions (SSD, 50%)";
    before = [];
    tables = joint_tables get ~stem:"fig5" ~policies:variants;
    after =
      [
        "Paper shape: TPC-H keeps its linear faults->runtime relation for every";
        "variant, with Scan-All on a steeper slope (straggler threads); PageRank";
        "stays decorrelated.";
      ];
  }

(* ------------------------------------------------------------------ *)

let fig6 (get : lookup) =
  let tables =
    List.map
      (fun ratio ->
        let rows =
          List.map
            (fun workload ->
              let at policy = get ~workload ~policy ~ratio ~swap:Runner.Ssd in
              let base = at Policy.Registry.Mglru_default in
              let per_spec =
                List.map (fun policy -> Report.Ratio (norm (at policy).perf base.perf)) all_specs
              in
              let p_value =
                match workload with
                | Runner.Tpch | Runner.Pagerank ->
                  let clock = at Policy.Registry.Clock in
                  if clock.failed > 0 || base.failed > 0 then Report.Fixed (3, Float.nan)
                  else begin
                    let a = Runner.runtimes_s clock.results in
                    let b = Runner.runtimes_s base.results in
                    if Array.length a > 1 && Array.length b > 1 then
                      Report.Fixed (3, (Stats.Ttest.welch a b).Stats.Ttest.p_value)
                    else Report.Dash
                  end
                | Runner.Ycsb _ | Runner.Fleet _ -> Report.Dash
              in
              (Report.Text (wname workload) :: per_spec) @ [ p_value ])
            Runner.all_workloads
        in
        table ~caption:[ by_ratio "capacity-footprint ratio" ratio ] ~stem:"fig6"
          ~header:(("workload" :: List.map pname all_specs) @ [ "p(clock=mglru)" ])
          rows)
      [ 0.75; 0.9 ]
  in
  {
    Report.title = "Figure 6: mean performance at 75% and 90% capacity (SSD)";
    before = [ "Normalized to default MG-LRU at the same ratio; Welch p-value vs MG-LRU." ];
    tables;
    after =
      [
        "Paper shape: every policy lands within a few percent; Clock beats";
        "MG-LRU by a small (2-5%) but statistically significant margin in some";
        "cells, inverting the 50% result.";
      ];
  }

let fig7 (get : lookup) =
  let tables =
    List.concat_map
      (fun ratio ->
        List.map
          (fun workload ->
            let at policy = get ~workload ~policy ~ratio ~swap:Runner.Ssd in
            let base = at Policy.Registry.Mglru_default in
            let rows =
              List.map
                (fun policy ->
                  let c = at policy in
                  if base.failed > 0 || c.failed > 0 then failed_row (pname policy) 5
                  else begin
                    let fl =
                      Array.map (fun x -> norm x base.mean_faults) (Runner.faults c.results)
                    in
                    let q1, q2, q3 = Stats.Percentile.quartiles fl in
                    let s = Stats.Summary.of_array fl in
                    Report.Text (pname policy)
                    :: List.map
                         (fun x -> Report.Fixed (2, x))
                         [ s.Stats.Summary.min; q1; q2; q3; s.Stats.Summary.max ]
                  end)
                all_specs
            in
            table
              ~caption:[ by_ratio "ratio" ratio; by_workload workload ]
              ~stem:"fig7_box"
              ~header:[ "policy"; "min"; "q1"; "median"; "q3"; "max" ]
              rows)
          batch_workloads)
      [ 0.5; 0.75; 0.9 ]
  in
  {
    Report.title = "Figure 7: fault distributions across capacities (SSD)";
    before =
      [
        "Quartiles/min/max of per-trial fault counts, normalized to the mean of";
        "default MG-LRU at the same ratio.";
      ];
    tables;
    after =
      [
        "Paper shape: at 75% PageRank shows rare outlier executions with up to";
        "~6x the mean fault count under every MG-LRU configuration, while the";
        "interquartile range stays tight; Clock's distribution stays narrow.";
      ];
  }

let fig8 get =
  {
    Report.title = "Figure 8: YCSB tail latencies at 75% and 90% capacity (SSD)";
    before = [];
    tables =
      List.concat_map
        (fun ratio ->
          tail_tables get ~caption:[ by_ratio "ratio" ratio ] ~stem:"fig8_tails"
            ~swap:Runner.Ssd ~ratio ())
        [ 0.75; 0.9 ];
    after =
      [
        "Paper shape: Clock keeps lower read tails; write-tail comparisons become";
        "workload-dependent as capacity grows and read tails converge.";
      ];
  }

(* ------------------------------------------------------------------ *)

let zram_norm_table (get : lookup) ~stem ~metric =
  let rows =
    List.map
      (fun workload ->
        let at policy = get ~workload ~policy ~ratio:ratio_default ~swap:Runner.Zram in
        let base = metric (at Policy.Registry.Mglru_default) in
        Report.Text (wname workload)
        :: List.map (fun policy -> Report.Ratio (norm (metric (at policy)) base)) all_specs)
      Runner.all_workloads
  in
  table ~stem ~header:("workload" :: List.map pname all_specs) rows

let fig9 get =
  {
    Report.title = "Figure 9: mean performance with ZRAM swap (50%)";
    before = [ "Performance normalized to default MG-LRU (ZRAM, 50%)." ];
    tables = [ zram_norm_table get ~stem:"fig9" ~metric:(fun c -> c.perf) ];
    after = [ "Paper shape: Clock matches MG-LRU on every workload except PageRank." ];
  }

let fig10 get =
  {
    Report.title = "Figure 10: mean faults with ZRAM swap (50%)";
    before = [ "Faults normalized to default MG-LRU (ZRAM, 50%)." ];
    tables = [ zram_norm_table get ~stem:"fig10" ~metric:(fun c -> c.mean_faults) ];
    after =
      [
        "Paper shape: fault counts track the runtime result - Clock faults as";
        "much as MG-LRU everywhere but PageRank.";
      ];
  }

let fig11 (get : lookup) =
  let rows =
    List.map
      (fun workload ->
        let at swap =
          get ~workload ~policy:Policy.Registry.Mglru_default ~ratio:ratio_default ~swap
        in
        let ssd = at Runner.Ssd in
        let zram = at Runner.Zram in
        Report.
          [
            Text (wname workload);
            Ratio (norm (mean_runtime zram) (mean_runtime ssd));
            Ratio (norm zram.mean_faults ssd.mean_faults);
          ])
      Runner.all_workloads
  in
  {
    Report.title = "Figure 11: ZRAM vs SSD - change in runtime and faults (MG-LRU, 50%)";
    before = [];
    tables =
      [ table ~stem:"fig11" ~header:[ "workload"; "runtime zram/ssd"; "faults zram/ssd" ] rows ];
    after =
      [
        "Paper shape: regular-access workloads run several times faster on ZRAM";
        "yet fault substantially more (PageRank ~5x faster, ~3x the faults);";
        "YCSB fault counts stay roughly flat.";
      ];
  }

let fig12 get =
  {
    Report.title = "Figure 12: YCSB tail latencies with ZRAM swap (50%)";
    before = [];
    tables = tail_tables get ~stem:"fig12_tails" ~swap:Runner.Zram ~ratio:ratio_default ();
    after =
      [
        "Paper shape: MG-LRU's p99.99 tails inflate 2-5x over Clock for both";
        "reads and writes - Clock strictly wins the tail in this configuration.";
      ];
  }

(* ------------------------------------------------------------------ *)

(* Not a paper figure: every paper policy's mean runtime and faults at
   each capacity ratio, for one workload and swap medium. *)
let capacity_sweep ~workload ~swap (get : lookup) =
  let ratios = [ 0.5; 0.75; 0.9 ] in
  let percent r = Printf.sprintf "%.0f%%" (r *. 100.0) in
  let rows =
    List.map
      (fun policy ->
        let cells = List.map (fun ratio -> get ~workload ~policy ~ratio ~swap) ratios in
        (Report.Text (pname policy) :: List.map (fun c -> Report.Seconds (mean_runtime c)) cells)
        @ List.map (fun c -> Report.Count c.mean_faults) cells)
      all_specs
  in
  {
    Report.title = Printf.sprintf "Capacity sweep: %s on %s" (wname workload) (Runner.swap_name swap);
    before = [];
    tables =
      [
        table ~stem:"sweep"
          ~header:
            (("policy" :: List.map (fun r -> percent r ^ " rt") ratios)
            @ List.map (fun r -> percent r ^ " faults") ratios)
          rows;
      ];
    after = [];
  }

(* ------------------------------------------------------------------ *)

let builders = [| fig1; fig2; fig3; fig4; fig5; fig6; fig7; fig8; fig9; fig10; fig11; fig12 |]

let all_figures = List.init (Array.length builders) (fun i -> i + 1)

let paper n =
  if n < 1 || n > Array.length builders then
    invalid_arg (Printf.sprintf "Figures.paper: no figure %d" n);
  builders.(n - 1)

(* The grid is whatever the builder reads: run it once against a lookup
   that records each key and answers with a failed stub, so no
   simulation runs.  Sorting into registry order keeps the experiment
   log — and the trace files and failure summary replayed from it —
   independent of the order a builder reads its cells. *)
let grid (build : builder) =
  let seen = ref [] in
  let record ~workload ~policy ~ratio ~swap =
    seen := (workload, policy, ratio, swap) :: !seen;
    { workload; policy; ratio; swap; outcomes = []; results = []; failed = 1;
      perf = Float.nan; mean_faults = Float.nan }
  in
  ignore (build record);
  let rank l x = Option.value (List.find_index (( = ) x) l) ~default:max_int in
  let key ((w, p, r, s) as c) = ((rank Runner.all_workloads w, rank all_specs p, r, s), c) in
  List.sort_uniq (fun a b -> compare (key a) (key b)) !seen

let prefetch ctx builders =
  Runner.prefetch ctx
    (List.concat_map
       (fun b ->
         List.concat_map
           (fun (workload, policy, ratio, swap) ->
             Runner.cell_exps ctx ~workload ~policy ~ratio ~swap)
           (grid b))
       builders)

let build ctx builders =
  (* One bulk prefetch across the union of the figures' grids keeps the
     domain pool saturated instead of draining at each figure boundary;
     the builders then read the warm cache serially. *)
  prefetch ctx builders;
  List.map (fun b -> b (cell ctx)) builders
