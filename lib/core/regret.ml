(* Belady regret scoreboard: every policy's demand-fault count over the
   offline optimum, per workload x pressure cell.

   The reference trace for a cell is derived by dry-running a fresh
   workload instance of the same (workload, trial) seed the runner uses,
   so Belady sees exactly the page-reference string the online policies
   face.  Threads are interleaved round-robin at chunk granularity with
   barrier rendezvous — a deterministic, policy-independent serialization
   (the machine's actual interleaving depends on timing, which is itself
   policy-dependent and therefore unusable as a reference).

   The denominator is Belady's refetch count (faults minus cold misses):
   cold misses are zero-fill minor faults in the machine and cost no
   device read, while [Machine.trial.major_faults] — the numerator —
   counts demand device reads only.  Regret ~1.0 is optimal; readahead
   can push a policy slightly below the bound since OPT here models pure
   demand paging. *)

type cell = {
  c_workload : Runner.workload_kind;
  c_policy : Policy.Registry.spec;
  c_ratio : float;
  c_trials : int;
  c_failed : int;
  c_policy_faults : float; (* mean major faults; NaN if all trials failed *)
  c_belady_faults : float; (* mean Belady refetches *)
  c_regret : float; (* c_policy_faults / c_belady_faults *)
}

let default_policies =
  [
    Policy.Registry.Clock;
    Policy.Registry.Mglru_default;
    Policy.Registry.S3_fifo;
    Policy.Registry.Sieve;
    Policy.Registry.Perceptron;
  ]

let default_workloads = [ Runner.Tpch; Runner.Pagerank ]
let default_ratios = [ 0.5; 0.9 ]

(* ------------------------------------------------------------------ *)
(* Reference trace                                                     *)

(* Dry-run a fresh workload instance into a page-reference string:
   threads interleaved round-robin at chunk granularity, rendezvousing
   at barriers.  Consumes the instance. *)
let reference_trace (w : Workload.Chunk.packed) =
  let threads = Workload.Chunk.packed_threads w in
  let finished = Array.make threads false in
  let blocked = Array.make threads false in
  let buf = ref (Array.make 4096 0) in
  let len = ref 0 in
  let push page =
    if !len = Array.length !buf then begin
      let nb = Array.make (2 * !len) 0 in
      Array.blit !buf 0 nb 0 !len;
      buf := nb
    end;
    !buf.(!len) <- page;
    incr len
  in
  let live () = Array.exists not finished in
  let progress = ref true in
  while live () && !progress do
    progress := false;
    for tid = 0 to threads - 1 do
      if (not finished.(tid)) && not blocked.(tid) then begin
        (match Workload.Chunk.packed_next w ~tid with
        | Workload.Chunk.Finished -> finished.(tid) <- true
        | Workload.Chunk.Barrier -> blocked.(tid) <- true
        | Workload.Chunk.Chunk c ->
          Workload.Chunk.iter_pages push c.Workload.Chunk.pages);
        progress := true
      end
    done;
    (* Release the barrier once every live thread has reached it. *)
    if Array.for_all2 (fun f b -> f || b) finished blocked then
      Array.fill blocked 0 threads false
  done;
  Array.sub !buf 0 !len

(* ------------------------------------------------------------------ *)
(* Scoreboard                                                          *)

let compute ctx ~workloads ~policies ~ratios ~swap =
  (* Fill the runner cache across domains first; everything after reads
     back serially, so output is byte-identical for every jobs value. *)
  let exps =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun ratio ->
            List.concat_map
              (fun policy ->
                Runner.cell_exps ctx ~workload ~policy ~ratio ~swap)
              policies)
          ratios)
      workloads
  in
  Runner.prefetch ctx exps;
  (* Belady refetches per (workload, trial, ratio); the trace is derived
     once per (workload, trial) and shared across ratios. *)
  let traces = Hashtbl.create 8 in
  let trace_for workload ~trial =
    let key = (Runner.workload_kind_name workload, trial) in
    match Hashtbl.find_opt traces key with
    | Some tf -> tf
    | None ->
      let w = Runner.make_workload ctx workload ~trial in
      let footprint = Workload.Chunk.packed_footprint w in
      let tf = (reference_trace w, footprint) in
      Hashtbl.add traces key tf;
      tf
  in
  let belady = Hashtbl.create 16 in
  let belady_for workload ~trial ~ratio =
    let key = (Runner.workload_kind_name workload, trial, ratio) in
    match Hashtbl.find_opt belady key with
    | Some v -> v
    | None ->
      let trace, footprint = trace_for workload ~trial in
      let r =
        Policy.Belady.simulate ~capacity:(Runner.capacity_for ~footprint ~ratio) ~trace
      in
      let v = float_of_int (r.Policy.Belady.faults - r.Policy.Belady.cold_faults) in
      Hashtbl.add belady key v;
      v
  in
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun ratio ->
          List.map
            (fun policy ->
              let c = Figures.cell ctx ~workload ~policy ~ratio ~swap in
              let trials = List.length c.Figures.outcomes in
              (* A partial mean: the trials column shows how many
                 failed. *)
              let policy_faults =
                if c.Figures.results = [] then Float.nan
                else Runner.mean_faults c.Figures.results
              in
              let belady_faults =
                let sum = ref 0.0 in
                for trial = 0 to trials - 1 do
                  sum := !sum +. belady_for workload ~trial ~ratio
                done;
                !sum /. float_of_int (max 1 trials)
              in
              {
                c_workload = workload;
                c_policy = policy;
                c_ratio = ratio;
                c_trials = trials;
                c_failed = c.Figures.failed;
                c_policy_faults = policy_faults;
                c_belady_faults = belady_faults;
                c_regret =
                  (if belady_faults > 0.0 then policy_faults /. belady_faults
                   else Float.nan);
              })
            policies)
        ratios)
    workloads

(* Without a Belady refetch the ratio has no value: a clean cell shows
   "-", a cell with failed trials stays "failed". *)
let regret_cell c =
  if c.c_belady_faults = 0.0 && c.c_failed = 0 then Report.Dash
  else Report.Fixed (2, c.c_regret)

let figure ~swap cells =
  let rows =
    List.map
      (fun c ->
        Report.
          [
            Text (Runner.workload_kind_name c.c_workload);
            Fixed (2, c.c_ratio);
            Text (Policy.Registry.name c.c_policy);
            Text
              (Policy.Registry.kind_label
                 (Policy.Registry.describe c.c_policy).Policy.Registry.d_kind);
            Count c.c_policy_faults;
            Count c.c_belady_faults;
            regret_cell c;
            Text
              (if c.c_failed = 0 then string_of_int c.c_trials
               else Printf.sprintf "%d(-%d)" c.c_trials c.c_failed);
          ])
      cells
  in
  {
    Report.title = Printf.sprintf "Belady regret scoreboard (swap=%s)" (Runner.swap_name swap);
    before =
      [
        "regret = mean demand faults / mean Belady refetches on the same \
         reference trace; 1.00 is optimal";
      ];
    tables =
      [
        Report.make_table ~stem:"regret"
          ~header:
            [ "workload"; "ratio"; "policy"; "kind"; "faults"; "belady"; "regret"; "trials" ]
          rows;
      ];
    after = [];
  }
