(* The [repro fuzz] soak driver.  Configurations are derived from the
   iteration-seeded RNG, run through the oracles (completion, invariant
   audits, jobs 1-vs-4 identity, journal round-trip + warm start, resume
   isolation), and failures shrink greedily to a minimal deterministic
   repro line.  The driver itself never consults wall time or a global
   RNG: iteration i of seed s is the same configuration and verdict
   everywhere. *)

type config = {
  fz_workload : Runner.workload_kind;
  fz_policy : Policy.Registry.spec;
  fz_ratio : float;
  fz_swap : Runner.swap_medium;
  fz_faults : string;
  fz_cgroups : string option;
  fz_chaos : string option;
}

(* ------------------------------------------------------------------ *)
(* Encoding.  Space-separated k=v tokens; the cgroup and chaos spec    *)
(* grammars are space-free, so the line re-splits unambiguously.       *)
(* ------------------------------------------------------------------ *)

let config_to_string c =
  String.concat " "
    ([
       "w=" ^ Runner.workload_kind_name c.fz_workload;
       "p=" ^ Policy.Registry.name c.fz_policy;
       Printf.sprintf "r=%g" c.fz_ratio;
       "s=" ^ Runner.swap_name c.fz_swap;
       "f=" ^ c.fz_faults;
     ]
    @ (match c.fz_cgroups with Some s -> [ "cg=" ^ s ] | None -> [])
    @ (match c.fz_chaos with Some s -> [ "ch=" ^ s ] | None -> []))

let config_of_string line =
  let default =
    {
      fz_workload = Runner.Tpch;
      fz_policy = Policy.Registry.Clock;
      fz_ratio = 0.5;
      fz_swap = Runner.Ssd;
      fz_faults = "none";
      fz_cgroups = None;
      fz_chaos = None;
    }
  in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))
  in
  let rec go cfg = function
    | [] -> Ok cfg
    | tok :: rest -> (
      match String.index_opt tok '=' with
      | None -> err "malformed token %S (expected k=v)" tok
      | Some i -> (
        let k = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match k with
        | "w" -> (
          match Runner.workload_of_name v with
          | Some w -> go { cfg with fz_workload = w } rest
          | None -> err "unknown workload %S" v)
        | "p" -> (
          match Policy.Registry.of_name v with
          | Some p -> go { cfg with fz_policy = p } rest
          | None -> err "unknown policy %S" v)
        | "r" -> (
          match float_of_string_opt v with
          | Some r when r > 0.0 && r <= 1.5 -> go { cfg with fz_ratio = r } rest
          | _ -> err "bad ratio %S" v)
        | "s" -> (
          match Runner.swap_of_name v with
          | Some s -> go { cfg with fz_swap = s } rest
          | None -> err "unknown swap medium %S" v)
        | "f" -> (
          match Swapdev.Faulty_device.plan_of_name v with
          | Some _ -> go { cfg with fz_faults = v } rest
          | None -> err "unknown fault plan %S" v)
        | "cg" -> (
          match Mem.Memcg.parse_spec v with
          | Ok _ -> go { cfg with fz_cgroups = Some v } rest
          | Error e -> err "bad cgroups spec: %s" e)
        | "ch" -> (
          match Chaos.parse_spec v with
          | Ok _ -> go { cfg with fz_chaos = Some v } rest
          | Error e -> err "bad chaos spec: %s" e)
        | _ -> err "unknown key %S" k))
  in
  go default tokens

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

exception Fail of string * string

let fail oracle fmt = Printf.ksprintf (fun s -> raise (Fail (oracle, s))) fmt

(* Short trials: 2 per cell, fast workloads, 25 ms audit cadence. *)
let profile = { Runner.trials = 2; ycsb_trials = 2; fast = true; scale = 1 }

let mk_ctx ?(audit_every_ns = 25_000_000) ~jobs ~obs cfg =
  let fault_plan =
    match Swapdev.Faulty_device.plan_of_name cfg.fz_faults with
    | Some p -> p
    | None -> failwith (Printf.sprintf "unknown fault plan %S" cfg.fz_faults)
  in
  let parse what p =
    Option.map (fun s ->
        match p s with
        | Ok v -> v
        | Error e -> failwith ("bad " ^ what ^ " spec: " ^ e))
  in
  let cgroups = parse "cgroups" Mem.Memcg.parse_spec cfg.fz_cgroups in
  let chaos = parse "chaos" Chaos.parse_spec cfg.fz_chaos in
  Runner.make_ctx ~profile ~fault_plan ~audit_every_ns ~jobs ~obs ?cgroups
    ?chaos ()

let exps_of cfg =
  List.map
    (fun trial ->
      {
        Runner.workload = cfg.fz_workload;
        policy = cfg.fz_policy;
        ratio = cfg.fz_ratio;
        swap = cfg.fz_swap;
        trial;
      })
    [ 0; 1 ]

let record_line ctx e (r : Machine.stored) =
  Journal.record_to_line
    {
      Journal.key = Runner.record_key ctx e;
      status = Journal.Trial_ok;
      reason = "";
      result = Some r;
    }

(* [cfg] with one input changed, and the audit cadence to run it at:
   the fault plan, the chaos spec, the cgroup spec (its [app] group
   kept, which churn segments name) or the audit cadence.  Which one is
   a function of [cfg], so a soak covers all four and every verdict
   replays from the config line alone. *)
let mutant cfg =
  let flip a b v = if v = a then b else a in
  let audit = 25_000_000 in
  match Hashtbl.hash (config_to_string cfg) mod 4 with
  | 0 ->
    let f = flip "light" "none" cfg.fz_faults in
    ("fault plan", { cfg with fz_faults = f }, audit)
  | 1 ->
    let ch =
      if cfg.fz_chaos = None then Some "degrade:at=1s,for=4s,latency=8x"
      else None
    in
    ("chaos spec", { cfg with fz_chaos = ch }, audit)
  | 2 ->
    let cg = Option.value cfg.fz_cgroups ~default:"" in
    let cg = flip "app:threads=0-1,max=45%" "app:threads=0-1,max=55%" cg in
    ("cgroup spec", { cfg with fz_cgroups = Some cg }, audit)
  | _ -> ("audit cadence", cfg, audit / 2)

let check cfg =
  let exps = exps_of cfg in
  let run_all ctx =
    Runner.prefetch ctx exps;
    List.map
      (fun e ->
        match Runner.try_exp ctx e with
        | Runner.Done r -> (e, r)
        | Runner.Failed { reason; timed_out = _ } ->
          fail "complete" "trial %d raised: %s" e.Runner.trial reason)
      exps
  in
  try
    (* complete + invariants, at jobs 1 *)
    let traced = { Obs.off with Obs.trace = true } in
    let ctx1 = mk_ctx ~jobs:1 ~obs:traced cfg in
    let results = run_all ctx1 in
    List.iter
      (fun (e, r) ->
        let v = Machine.count r Obs.Vmstat.invariant_violations in
        if v > 0 then
          fail "invariants" "trial %d: %d violation(s)" e.Runner.trial v)
      results;
    (* jobs 1-vs-4 identity: journal encodings and traced event streams *)
    let ctx4 = mk_ctx ~jobs:4 ~obs:traced cfg in
    let results4 = run_all ctx4 in
    List.iter2
      (fun (e, r1) (_, r4) ->
        if record_line ctx1 e r1 <> record_line ctx1 e r4 then
          fail "jobs-identity" "trial %d: results differ between --jobs 1 and 4"
            e.Runner.trial;
        if r1.Machine.trace <> r4.Machine.trace then
          fail "jobs-identity"
            "trial %d: traced event streams differ between --jobs 1 and 4"
            e.Runner.trial)
      results results4;
    (* journal round-trip, then kill/resume via warm start *)
    let records =
      List.map
        (fun (e, r) ->
          let line = record_line ctx1 e r in
          match Journal.record_of_line line with
          | Error msg -> fail "journal-roundtrip" "decode failed: %s" msg
          | Ok rec2 ->
            if Journal.record_to_line rec2 <> line then
              fail "journal-roundtrip" "trial %d: re-encode differs"
                e.Runner.trial;
            (e, line, rec2))
        results
    in
    let ctxw = mk_ctx ~jobs:1 ~obs:Obs.off cfg in
    let journaled = List.map (fun (_, _, r) -> r) records in
    let installed = Runner.warm_start ctxw journaled in
    if installed <> List.length records then
      fail "journal-roundtrip" "warm start installed %d of %d record(s)"
        installed (List.length records);
    List.iter
      (fun (e, line, _) ->
        match Runner.try_exp ctxw e with
        | Runner.Done r when record_line ctxw e r = line -> ()
        | Runner.Done _ ->
          fail "journal-roundtrip" "trial %d: resumed record differs"
            e.Runner.trial
        | Runner.Failed { reason; _ } ->
          fail "journal-roundtrip" "trial %d: resume failed: %s" e.Runner.trial
            reason)
      records;
    if Runner.cached_results ctxw <> installed then
      fail "journal-roundtrip" "resume recomputed instead of serving the journal";
    (* resume isolation: the same records, installed into a context with
       one input changed, must never be served — each trial there equals
       a fresh compute under that context *)
    let input, mcfg, audit_every_ns = mutant cfg in
    let mk () = mk_ctx ~audit_every_ns ~jobs:1 ~obs:Obs.off mcfg in
    let resumed = mk () and fresh = mk () in
    ignore (Runner.warm_start resumed journaled);
    List.iter
      (fun e ->
        let outcome ctx =
          match Runner.try_exp ctx e with
          | Runner.Done r -> record_line fresh e r
          | Runner.Failed { reason; _ } -> reason
        in
        if outcome resumed <> outcome fresh then
          fail "resume-isolation"
            "trial %d: a record of this config was served under another %s"
            e.Runner.trial input)
      exps;
    None
  with Fail (oracle, detail) -> Some (oracle, detail)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let pick rng l = List.nth l (Engine.Rng.int rng (List.length l))

(* Segment classes are sampled distinct, so the generated specs never
   trip the parser's same-class overlap check; every sampled spec is
   re-parsed as a sanity net before use. *)
let sample_chaos rng ~with_corrupt ~has_cg =
  let classes = [ "hotplug"; "degrade"; "burst" ] @ if has_cg then [ "churn" ] else [] in
  let n = Engine.Rng.int rng 3 (* 0, 1 or 2 segments *) in
  let rec take acc pool k =
    if k = 0 || pool = [] then acc
    else
      let c = pick rng pool in
      take (c :: acc) (List.filter (fun x -> x <> c) pool) (k - 1)
  in
  let chosen = List.rev (take [] classes n) in
  let seg = function
    | "hotplug" ->
      let at = pick rng [ 2; 5; 10 ] in
      Printf.sprintf "hotplug:at=%ds,shrink=%d%%,restore=%ds" at
        (pick rng [ 25; 40; 60 ])
        (at + pick rng [ 5; 10 ])
    | "degrade" ->
      Printf.sprintf "degrade:at=%ds,for=%ds,latency=%dx,errors=%s"
        (pick rng [ 1; 3; 8 ])
        (pick rng [ 4; 10 ])
        (pick rng [ 4; 8 ])
        (pick rng [ "0"; "0.01" ])
    | "burst" ->
      Printf.sprintf "burst:at=%ds,for=%ds" (pick rng [ 1; 2; 6 ])
        (pick rng [ 2; 5 ])
    | "churn" ->
      Printf.sprintf "churn:at=%ds,cg=app,max=%d%%" (pick rng [ 2; 4 ])
        (pick rng [ 40; 60 ])
    | _ -> assert false
  in
  let segments = List.map seg chosen in
  let segments =
    if with_corrupt && Engine.Rng.bool rng 0.25 then
      segments @ [ Printf.sprintf "corrupt:at=%ds" (pick rng [ 1; 2; 3 ]) ]
    else segments
  in
  match segments with
  | [] -> None
  | segs ->
    let s = String.concat ";" segs in
    (match Chaos.parse_spec s with
    | Ok _ -> Some s
    | Error e -> failwith (Printf.sprintf "sampler produced bad spec %S: %s" s e))

let sample rng ~with_corrupt =
  let fz_workload =
    pick rng
      [
        Runner.Tpch; Runner.Pagerank; Runner.Ycsb Workload.Ycsb.A;
        Runner.Ycsb Workload.Ycsb.B;
      ]
  in
  let fz_policy =
    pick rng
      Policy.Registry.
        [ Clock; Mglru_default; Fifo; Random; Lru_exact; S3_fifo; Sieve ]
  in
  let fz_cgroups =
    (* threads 0-1 is valid for every workload (all run >= 2 threads);
       uncovered threads simply stay uncharged, like the fleet groups. *)
    if Engine.Rng.bool rng 0.4 then
      Some (Printf.sprintf "app:threads=0-1,max=%d%%" (pick rng [ 50; 60; 75 ]))
    else None
  in
  {
    fz_workload;
    fz_policy;
    fz_ratio = pick rng [ 0.4; 0.5; 0.6; 0.75; 0.9 ];
    fz_swap = pick rng [ Runner.Ssd; Runner.Zram ];
    fz_faults = pick rng [ "none"; "none"; "light" ];
    fz_cgroups;
    fz_chaos = sample_chaos rng ~with_corrupt ~has_cg:(fz_cgroups <> None);
  }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* One generation of strictly smaller candidates, most aggressive
   reductions last so single-segment drops are tried first. *)
let candidates cfg =
  let chaos_drops =
    match cfg.fz_chaos with
    | None -> []
    | Some s -> (
      match Chaos.parse_spec s with
      | Ok spec when List.length spec.Chaos.injectors > 1 ->
        List.init
          (List.length spec.Chaos.injectors)
          (fun i ->
            {
              cfg with
              fz_chaos =
                Some
                  (Chaos.spec_to_string
                     { Chaos.injectors = drop_nth spec.Chaos.injectors i });
            })
      | _ -> [])
  in
  chaos_drops
  @ (if cfg.fz_chaos <> None then [ { cfg with fz_chaos = None } ] else [])
  @ (if cfg.fz_cgroups <> None then [ { cfg with fz_cgroups = None } ] else [])
  @ (if cfg.fz_faults <> "none" then [ { cfg with fz_faults = "none" } ] else [])
  @ (if cfg.fz_swap <> Runner.Ssd then [ { cfg with fz_swap = Runner.Ssd } ]
     else [])
  @ (if Runner.workload_kind_name cfg.fz_workload <> "tpch" then
       [ { cfg with fz_workload = Runner.Tpch } ]
     else [])
  @ (if Policy.Registry.name cfg.fz_policy <> "clock" then
       [ { cfg with fz_policy = Policy.Registry.Clock } ]
     else [])
  @ if cfg.fz_ratio <> 0.5 then [ { cfg with fz_ratio = 0.5 } ] else []

let shrink cfg ~failing =
  let still_fails c =
    match check c with Some (f, _) -> f = failing | None -> false
  in
  let rec go cfg =
    match List.find_opt still_fails (candidates cfg) with
    | Some smaller -> go smaller
    | None -> cfg
  in
  go cfg

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ~seed ~iterations ~with_corrupt =
  let failures = ref 0 in
  for i = 0 to iterations - 1 do
    let rng = Engine.Rng.create (seed + (7919 * i)) in
    let cfg = sample rng ~with_corrupt in
    Printf.printf "iter %2d: %s\n%!" i (config_to_string cfg);
    match check cfg with
    | None -> Printf.printf "         ok\n%!"
    | Some (oracle, detail) ->
      incr failures;
      Printf.printf "         FAIL [%s] %s\n%!" oracle detail;
      let minimal = shrink cfg ~failing:oracle in
      Printf.printf "         minimal repro: repro fuzz --config '%s'\n%!"
        (config_to_string minimal);
      (match check minimal with
      | Some (o, d) when o = oracle ->
        Printf.printf "         repro confirmed: [%s] %s\n%!" o d
      | Some (o, d) ->
        Printf.printf "         warning: minimal config fails differently: [%s] %s\n%!"
          o d
      | None ->
        Printf.printf "         warning: minimal config no longer fails\n%!")
  done;
  if !failures = 0 then
    Printf.printf "fuzz: %d iteration(s), no failures\n%!" iterations
  else
    Printf.printf "fuzz: %d failure(s) in %d iteration(s)\n%!" !failures
      iterations;
  !failures

let replay line =
  match config_of_string line with
  | Error e ->
    Printf.eprintf "fuzz: invalid --config: %s\n%!" e;
    1
  | Ok cfg -> (
    Printf.printf "config: %s\n%!" (config_to_string cfg);
    match check cfg with
    | None ->
      Printf.printf "ok\n%!";
      0
    | Some (oracle, detail) ->
      Printf.printf "FAIL [%s] %s\n%!" oracle detail;
      1)
