type config = {
  fast_frames : int;
  slow_frames : int;
  kthread_jitter_ns : int;
  seed : int;
}

(* Fixed like Repro_core.Machine's testbed; the penalties are
   experiment-scaled (DESIGN.md "Scaling"). *)
let hw_threads = 12

let costs = Mem.Costs.experiment ~scale:1

let slow_extra_ns = 3_000_000 (* added to every slow-tier page touch *)

let hint_fault_ns = 50_000 (* cost of touching a poisoned page *)

let migrate_page_ns = 400_000 (* copy cost per migrated page *)

let hit_cpu_ns = 20

let max_runtime_ns = 50_000_000_000_000

let default_config ~fast_frames ~slow_frames ~seed =
  { fast_frames; slow_frames; kthread_jitter_ns = 50_000; seed }

type result = {
  runtime_ns : int;
  fast_touches : int;
  slow_touches : int;
  cold_touches : int;
  hint_faults : int;
  promotions : int;
  demotions : int;
  failed_promotions : int;
  fast_resident : int;
  slow_resident : int;
  per_thread_finish : int array;
  policy_stats : (string * int) list;
  policy_name : string;
}

let slow_fraction r =
  let warm = r.fast_touches + r.slow_touches in
  if warm = 0 then 0.0 else float_of_int r.slow_touches /. float_of_int warm

type t = {
  cfg : config;
  sim : Engine.Sim.t;
  drv : Workload.Driver.t;
  pt : Mem.Page_table.t;
  tier_of : int array; (* vpn -> 0 fast, 1 slow, -1 untouched *)
  poisoned : Bytes.t;
  mutable fast_used : int;
  mutable slow_used : int;
  mutable policy : Migration_intf.packed option;
  mutable fast_touches : int;
  mutable slow_touches : int;
  mutable cold_touches : int;
  mutable hint_faults : int;
  mutable promotions : int;
  mutable demotions : int;
  mutable failed_promotions : int;
}

let policy_of t =
  match t.policy with
  | Some p -> p
  | None -> invalid_arg "Tier_machine: policy not installed"

let is_poisoned t vpn = Bytes.get t.poisoned vpn = '\001'

let set_poisoned t vpn v = Bytes.set t.poisoned vpn (if v then '\001' else '\000')

(* Map a page for the first time: ask the policy where it wants it, fall
   back to whichever tier has room. *)
let place_cold t vpn =
  let (Migration_intf.Packed ((module P), p)) = policy_of t in
  let preferred = P.initial_tier p ~vpn in
  let tier =
    match preferred with
    | Migration_intf.Fast when t.fast_used < t.cfg.fast_frames -> 0
    | Migration_intf.Slow when t.slow_used < t.cfg.slow_frames -> 1
    | Migration_intf.Fast -> 1
    | Migration_intf.Slow -> 0
  in
  if tier = 0 then begin
    if t.fast_used >= t.cfg.fast_frames then failwith "Tier_machine: out of memory";
    t.fast_used <- t.fast_used + 1
  end
  else begin
    if t.slow_used >= t.cfg.slow_frames then failwith "Tier_machine: out of memory";
    t.slow_used <- t.slow_used + 1
  end;
  t.tier_of.(vpn) <- tier;
  (* Dummy identity mapping so accessed/dirty bits live in a real PTE. *)
  Mem.Page_table.set t.pt vpn (Mem.Pte.mapped ~pfn:vpn ~file_backed:false);
  P.on_placed p ~vpn
    (if tier = 0 then Migration_intf.Fast else Migration_intf.Slow);
  (* Fast tier filling up is this machine's memory-pressure signal. *)
  if t.fast_used >= t.cfg.fast_frames then Workload.Driver.wake_kthreads t.drv

let touch t ~(cpu_acc : int ref) ~vpn ~write =
  (match t.tier_of.(vpn) with
  | -1 ->
    t.cold_touches <- t.cold_touches + 1;
    cpu_acc := !cpu_acc + costs.Mem.Costs.fault_trap_ns;
    place_cold t vpn
  | 0 ->
    t.fast_touches <- t.fast_touches + 1;
    cpu_acc := !cpu_acc + hit_cpu_ns
  | _ ->
    t.slow_touches <- t.slow_touches + 1;
    cpu_acc := !cpu_acc + hit_cpu_ns + slow_extra_ns);
  if is_poisoned t vpn then begin
    set_poisoned t vpn false;
    t.hint_faults <- t.hint_faults + 1;
    cpu_acc := !cpu_acc + hint_fault_ns;
    let (Migration_intf.Packed ((module P), p)) = policy_of t in
    let tier = if t.tier_of.(vpn) = 0 then Migration_intf.Fast else Migration_intf.Slow in
    P.on_hint_fault p ~vpn tier ~write
  end;
  let pte = Mem.Page_table.get t.pt vpn in
  let pte = Mem.Pte.set_accessed pte in
  let pte = if write then Mem.Pte.set_dirty pte else pte in
  Mem.Page_table.set t.pt vpn pte

(* The driver's per-segment hook; this machine never blocks a thread. *)
let segment t (c : Workload.Chunk.t) ~first ~last ~cpu_acc =
  for i = first to last - 1 do
    let write = c.Workload.Chunk.write && i >= c.Workload.Chunk.read_prefix in
    touch t ~cpu_acc ~vpn:(Workload.Chunk.page_at c.Workload.Chunk.pages i) ~write
  done

let run cfg ~policy ~workload =
  let footprint = Workload.Chunk.packed_footprint workload in
  if cfg.fast_frames + cfg.slow_frames < footprint then
    invalid_arg "Tier_machine.run: tiers smaller than the footprint";
  let rng = Engine.Rng.create cfg.seed in
  let sim = Engine.Sim.create () in
  let drv =
    Workload.Driver.create ~sim
      ~cpu:(Engine.Cpu.create ~hw_threads)
      ~rng ~barrier_ns:costs.Mem.Costs.barrier_ns
      ~kthread_jitter_ns:cfg.kthread_jitter_ns ~barrier_groups:None
      workload
  in
  let t =
    {
      cfg;
      sim;
      drv;
      pt =
        Mem.Page_table.create ~region_size:costs.Mem.Costs.region_size
          ~pages:footprint ();
      tier_of = Array.make footprint (-1);
      poisoned = Bytes.make footprint '\000';
      fast_used = 0;
      slow_used = 0;
      policy = None;
      fast_touches = 0;
      slow_touches = 0;
      cold_touches = 0;
      hint_faults = 0;
      promotions = 0;
      demotions = 0;
      failed_promotions = 0;
    }
  in
  let promote ~vpn =
    if t.tier_of.(vpn) = 1 && t.fast_used < cfg.fast_frames then begin
      t.tier_of.(vpn) <- 0;
      t.fast_used <- t.fast_used + 1;
      t.slow_used <- t.slow_used - 1;
      t.promotions <- t.promotions + 1;
      true
    end
    else begin
      if t.tier_of.(vpn) = 1 then t.failed_promotions <- t.failed_promotions + 1;
      false
    end
  in
  let demote ~vpn =
    if t.tier_of.(vpn) = 0 && t.slow_used < cfg.slow_frames then begin
      t.tier_of.(vpn) <- 1;
      t.fast_used <- t.fast_used - 1;
      t.slow_used <- t.slow_used + 1;
      t.demotions <- t.demotions + 1;
      true
    end
    else false
  in
  let env =
    {
      Migration_intf.costs;
      pt = t.pt;
      rng = Engine.Rng.split rng;
      now = (fun () -> Engine.Sim.now t.sim);
      tier_of =
        (fun vpn ->
          match t.tier_of.(vpn) with
          | 0 -> Some Migration_intf.Fast
          | 1 -> Some Migration_intf.Slow
          | _ -> None);
      fast_free = (fun () -> cfg.fast_frames - t.fast_used);
      slow_free = (fun () -> cfg.slow_frames - t.slow_used);
      fast_capacity = cfg.fast_frames;
      migrate_cost_ns = migrate_page_ns;
      promote;
      demote;
      poison = (fun ~vpn -> set_poisoned t vpn true);
      unpoison = (fun ~vpn -> set_poisoned t vpn false);
    }
  in
  let packed = policy env in
  t.policy <- Some packed;
  let (Migration_intf.Packed ((module P), p)) = packed in
  Workload.Driver.start drv
    {
      Workload.Driver.segment =
        (fun ~tid:_ c ~first ~last ~cursor:_ ~cpu_acc ->
          segment t c ~first ~last ~cpu_acc);
      low_memory = (fun () -> false);
      request_done = (fun ~tid:_ _ ~latency_ns:_ -> ());
      thread_exit = (fun ~tid:_ -> ());
    }
    (P.kthreads p);
  Engine.Sim.run ~until:max_runtime_ns t.sim;
  {
    runtime_ns = Workload.Driver.runtime_ns drv;
    fast_touches = t.fast_touches;
    slow_touches = t.slow_touches;
    cold_touches = t.cold_touches;
    hint_faults = t.hint_faults;
    promotions = t.promotions;
    demotions = t.demotions;
    failed_promotions = t.failed_promotions;
    fast_resident = t.fast_used;
    slow_resident = t.slow_used;
    per_thread_finish = Workload.Driver.per_thread_finish drv;
    policy_stats = P.stats p;
    policy_name = P.policy_name;
  }
