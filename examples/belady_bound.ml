(* Belady bound: how far from offline-optimal are the online policies on
   a zipfian reference string?

     dune exec examples/belady_bound.exe

   OPT needs the future, so it runs as a trace simulation; the online
   numbers come from cache simulations of the same trace. *)

let () =
  let n_pages = 2_000 in
  let capacity = 400 in
  let accesses = 120_000 in
  let zipf = Workload.Zipf.create ~n:n_pages ~exponent:0.9 in
  let rng = Engine.Rng.create 17 in
  let trace = Array.init accesses (fun _ -> Workload.Zipf.sample zipf rng) in
  let opt = Policy.Belady.simulate ~capacity ~trace in
  let lru = Policy.Belady.lru_simulate ~capacity ~trace in
  let fifo = Policy.Belady.fifo_simulate ~capacity ~trace in
  let miss r =
    float_of_int r.Policy.Belady.faults /. float_of_int r.Policy.Belady.accesses
  in
  let rows =
    List.map
      (fun (name, r) ->
        Repro_core.Report.
          [
            Text name;
            Count (float_of_int r.Policy.Belady.faults);
            Text (Printf.sprintf "%.2f%%" (100.0 *. miss r));
            Ratio (miss r /. miss opt);
          ])
      [ ("belady-opt", opt); ("lru", lru); ("fifo", fifo) ]
  in
  Repro_core.Report.print_figure
    {
      Repro_core.Report.title =
        Printf.sprintf "Belady bound: zipf(0.9) over %d pages, capacity %d" n_pages capacity;
      before = [];
      tables =
        [
          Repro_core.Report.make_table ~stem:"belady_bound"
            ~header:[ "policy"; "faults"; "miss rate"; "vs OPT" ]
            rows;
        ];
      after =
        [
          "On stationary zipfian traffic LRU buys little over FIFO - the";
          "observation behind the paper's remark (SV-B) that KV caches ship FIFO";
          "variants, and why every MG-LRU variant ties on YCSB.";
        ];
    }
