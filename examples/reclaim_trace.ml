(* Reclaim tracing: run one MG-LRU trial with the observability layer
   on, then walk the capture directly — no files involved.

     dune exec examples/reclaim_trace.exe

   The same capture is what `repro run --trace t.jsonl --sample-every
   50000000 --samples s.csv` serializes; this example shows the typed
   in-process view: per-kind event counts, the generation occupancy
   time series, and the direct-reclaim latency histogram. *)

let () =
  let hot = Array.init 64 (fun i -> i) in
  let stream pass =
    Array.init 480 (fun i -> 64 + (((pass * 480) + i) mod 960))
  in
  let steps =
    List.concat_map (fun pass -> [ hot; stream pass; hot ]) [ 0; 1; 2; 3; 4; 5 ]
  in
  let workload = Workload.Trace.of_page_lists ~footprint:1024 steps in

  let base = Repro_core.Machine.default_config ~capacity_frames:512 ~seed:42 in
  let config =
    { base with Repro_core.Machine.obs =
        { Obs.off with trace = true; sample_every_ns = 20_000_000 } }
  in
  let result =
    Repro_core.Machine.run config
      ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), workload))
  in

  let capture =
    match result.Repro_core.Machine.trace with
    | Some c -> c
    | None -> failwith "telemetry was enabled; expected a capture"
  in

  (* 1. Event counts by kind. *)
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun (_, ev) ->
      let k = Obs.kind_name ev in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    capture.Obs.events;
  Printf.printf "%d event(s) over %.3f simulated seconds:\n"
    (Array.length capture.Obs.events)
    (float_of_int result.Repro_core.Machine.runtime_ns /. 1e9);
  Repro_core.Report.(
    print_table
      (make_table ~stem:"events" ~header:[ "kind"; "events" ]
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
         |> List.sort (fun (_, a) (_, b) -> compare b a)
         |> List.map (fun (k, v) -> [ Text k; Int v ]))));
  print_newline ();

  (* 2. Generation occupancy over time: the MG-LRU gauges sampled every
     20 simulated ms.  gen_age0 is the youngest generation. *)
  print_endline "time series (youngest three generations, pages):";
  Repro_core.Report.(
    print_table
      (make_table ~stem:"samples"
         ~header:[ "t_ms"; "gen_age0"; "gen_age1"; "gen_age2"; "resident" ]
         (Array.to_list capture.Obs.samples
         |> List.map (fun (t_ns, metrics) ->
                let get k = Fixed (0, try List.assoc k metrics with Not_found -> 0.0) in
                [
                  Fixed (1, float_of_int t_ns /. 1e6);
                  get "policy.gen_age0";
                  get "policy.gen_age1";
                  get "policy.gen_age2";
                  get "resident";
                ]))));
  print_newline ();

  (* 3. Direct-reclaim episode latency (log-binned histogram). *)
  let h = capture.Obs.reclaim_hist in
  if Stats.Histogram.count h > 0 then begin
    Printf.printf "direct reclaim: %d episode(s)\n" (Stats.Histogram.count h);
    List.iter
      (fun q ->
        Printf.printf "  p%-4g %10.0f ns\n" (q *. 100.0)
          (Stats.Histogram.quantile h q))
      [ 0.5; 0.9; 0.99 ];
    Printf.printf "  max  %10.0f ns\n" (Stats.Histogram.max_seen h)
  end
  else print_endline "no direct-reclaim episodes (memory never tight enough)"
