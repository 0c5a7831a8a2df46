(* The [repro chaos] resilience report: calibrate each cell's runtime
   with a traced baseline trial, inject one transient class into the
   [0.3R, 0.55R] window, and measure degradation and recovery from the
   deterministic trace stream.  Every number comes from cached trials
   read back serially, so the report is byte-identical across --jobs. *)

let default_classes = [ "hotplug"; "degrade"; "churn" ]

let ms = 1_000_000

(* Window edges snap to whole milliseconds so the spec strings in the
   report stay readable ("12ms", not "12345678ns"). *)
let round_to_ms t = max ms (t / ms * ms)

(* The limit-churn class needs a cgroup to churn: one group covering
   every thread of the workload, initially unlimited. *)
let app_cgroups nthreads : Mem.Memcg.spec =
  {
    groups =
      [
        {
          Mem.Memcg.g_name = "app";
          g_threads = [ (0, max 0 (nthreads - 1)) ];
          g_low = None;
          g_high = None;
          g_max = None;
        };
      ];
    proactive = None;
    psi_interval_ns = 100_000_000;
  }

(* One synthesized spec per (class, calibrated runtime).  The window is
   [w_start, w_end); churn is a pair of instantaneous limit rewrites at
   the window edges (clamp to half capacity, then release). *)
let spec_for ~klass ~w_start ~w_end : Chaos.spec =
  match klass with
  | "hotplug" ->
    {
      Chaos.injectors =
        [
          Chaos.Hotplug
            { h_at = w_start; h_shrink = Mem.Spec_syntax.Frac 0.4; h_restore = Some w_end };
        ];
    }
  | "degrade" ->
    {
      Chaos.injectors =
        [
          Chaos.Degrade
            {
              d_at = w_start;
              d_for = w_end - w_start;
              d_latency = 8.0;
              d_errors = 0.02;
              d_wear = 0.0;
            };
        ];
    }
  | "churn" ->
    {
      Chaos.injectors =
        [
          Chaos.Churn
            {
              c_at = w_start;
              c_cg = "app";
              c_low = None;
              c_high = None;
              c_max = Some (Mem.Spec_syntax.Frac 0.5);
            };
          Chaos.Churn
            {
              c_at = w_end;
              c_cg = "app";
              c_low = None;
              c_high = None;
              c_max = Some (Mem.Spec_syntax.Frac 1.0);
            };
        ];
    }
  | k -> raise (Invalid_argument (Printf.sprintf "no chaos class %S" k))

(* Demand-fault (swap read) completions from the traced event stream:
   (t_ns, latency_ns) in emit order. *)
let fault_events (r : Machine.stored) =
  match r.Machine.trace with
  | None -> [||]
  | Some cap ->
    let out = ref [] in
    Array.iter
      (fun (t, ev) ->
        match ev with
        | Obs.Swap_read { latency_ns; failed = false; _ } -> out := (t, latency_ns) :: !out
        | _ -> ())
      cap.Obs.events;
    Array.of_list (List.rev !out)

(* The latencies of the faults completed in [lo, hi), sealed. *)
let window events ~lo ~hi =
  let lat = Structures.Latencies.create () in
  Array.iter (fun (t, ns) -> if t >= lo && t < hi then Structures.Latencies.push lat ns) events;
  Structures.Latencies.seal lat

(* Events per second over [lo, hi). *)
let rate events ~lo ~hi =
  let n = Array.fold_left (fun n (t, _) -> if t >= lo && t < hi then n + 1 else n) 0 events in
  if hi <= lo then 0.0 else float_of_int n /. (float_of_int (hi - lo) /. 1e9)

(* Time from the end of the window until the first slice whose fault
   rate is back within 25% of the pre-window steady state; NaN if the
   run ends still degraded. *)
let recovery_ns events ~w_end ~runtime ~slice ~pre_rate =
  let target = (pre_rate *. 1.25) +. 1e-9 in
  let rec scan k =
    let lo = w_end + (k * slice) in
    if lo >= runtime then Float.nan
    else
      let hi = min runtime (lo + slice) in
      if rate events ~lo ~hi <= target then float_of_int (lo - w_end)
      else scan (k + 1)
  in
  scan 0

let fms ns =
  Report.Text (if Float.is_nan ns then Report.failed_marker else Printf.sprintf "%.1fms" (ns /. 1e6))

let run ctx ~classes ~workloads ~policies ~ratio ~swap =
  List.iter
    (fun klass ->
      if not (List.mem klass default_classes) then
        invalid_arg (Printf.sprintf "no chaos class %S" klass))
    classes;
  (* Every trial is traced; the ctx's other captures ride along.
     Baseline trials calibrate R per cell; shared across classes. *)
  let obs = { (Runner.obs ctx) with Obs.trace = true; sample_every_ns = 0 } in
  let base_ctx = Runner.derive ~obs ~chaos:None ctx in
  let cells =
    List.concat_map
      (fun w -> List.map (fun p -> (w, p)) policies)
      workloads
  in
  Runner.prefetch base_ctx
    (List.map
       (fun (workload, policy) ->
         { Runner.workload; policy; ratio; swap; trial = 0 })
       cells);
  (* Each cell contributes one note (its spec, or why it failed) and
     one row. *)
  let measure klass (workload, policy) =
    let exp = { Runner.workload; policy; ratio; swap; trial = 0 } in
    let name =
      Printf.sprintf "%s/%s" (Runner.workload_kind_name workload) (Policy.Registry.name policy)
    in
    let failed_row =
      Report.Text name :: Report.Text Report.failed_marker :: List.init 6 (fun _ -> Report.Dash)
    in
    match Runner.try_exp base_ctx exp with
    | Runner.Failed { reason; _ } ->
      (Printf.sprintf "%s: baseline failed: %s" name reason, failed_row)
    | Runner.Done base -> (
      let runtime = base.Machine.runtime_ns in
      let w_start = round_to_ms (runtime * 3 / 10) in
      let w_end = max (w_start + ms) (round_to_ms (runtime * 55 / 100)) in
      let spec = spec_for ~klass ~w_start ~w_end in
      let cgroups =
        if klass = "churn" then
          Some
            (app_cgroups
               (Workload.Chunk.packed_threads (Runner.make_workload ctx workload ~trial:0)))
        else Runner.cgroups ctx
      in
      let cctx = Runner.derive ~obs ~cgroups ~chaos:(Some spec) ctx in
      match Runner.try_exp cctx exp with
      | Runner.Failed { reason; _ } ->
        ( Printf.sprintf "%s under %s: failed: %s" name (Chaos.spec_to_string spec) reason,
          failed_row )
      | Runner.Done r ->
        let ev = fault_events r in
        let pre_rate = rate ev ~lo:0 ~hi:w_start in
        let slice = max ms (runtime / 64) in
        let q lats x =
          Report.Ns (if lats = [||] then Float.nan else Stats.Percentile.quantile_ns lats x)
        in
        let during = window ev ~lo:w_start ~hi:w_end in
        ( Printf.sprintf "%s: --chaos '%s'%s" name (Chaos.spec_to_string spec)
            (match r.Machine.chaos with
            | Some s -> Printf.sprintf "  (%s)" (Chaos.summary_to_string s)
            | None -> ""),
          [
            Report.Text name;
            q (window ev ~lo:0 ~hi:w_start) 0.99;
            q during 0.99;
            q during 0.999;
            q (window ev ~lo:w_end ~hi:r.Machine.runtime_ns) 0.99;
            fms (recovery_ns ev ~w_end ~runtime:r.Machine.runtime_ns ~slice ~pre_rate);
            Report.Int (Machine.count r Obs.Vmstat.oom_kill);
            Report.Int (Machine.count r Obs.Vmstat.poisoned_reads);
          ] ))
  in
  List.map
    (fun klass ->
      let notes, rows = List.split (List.map (measure klass) cells) in
      {
        Report.title =
          Printf.sprintf "Chaos: %s transients at %.0f%% / %s" klass (ratio *. 100.0)
            (Runner.swap_name swap);
        before = notes;
        tables =
          [
            Report.make_table ~stem:("chaos_" ^ klass)
              ~header:
                [
                  "cell"; "pre p99"; "during p99"; "during p999"; "post p99";
                  "recovery"; "oom"; "poison";
                ]
              rows;
          ];
        after = [];
      })
    classes
