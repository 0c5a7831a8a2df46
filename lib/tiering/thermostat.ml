(** Thermostat-style sampled page poisoning (Agarwal & Wenisch,
    ASPLOS'17; paper §II-C).

    Epoch-based: each epoch poisons a random sample of pages in both
    tiers and counts the hint faults their regions take.  At the end of
    an epoch, slow-tier regions whose sampled pages faulted are deemed
    hot and promoted wholesale; fast-tier regions whose samples stayed
    silent are demoted — hotness classification at huge-page (region)
    granularity with a bounded, tunable sampling cost, exactly the
    "sampled page poisoning + hotness thresholds" recipe the paper
    attributes to Thermostat and MTM. *)

let sample_frac = 0.05 (* fraction of each region sampled per epoch *)

let epoch_ns = 50_000_000

let promote_budget = 16 (* max regions promoted per epoch *)

let demote_headroom = 0.02 (* keep this fraction of fast frames free *)

(* Arm samples -> let an epoch of traffic hit them -> classify and
   migrate -> repeat. *)
type phase = Arm | Wait | Apply

type t = {
  env : Migration_intf.env;
  region_faults : int array;  (* hint faults per region this epoch *)
  region_sampled : int array; (* samples armed per region this epoch *)
  mutable phase : phase;
  mutable epochs : int;
  mutable promoted_regions : int;
  mutable demoted_regions : int;
  mutable samples_armed : int;
}

let policy_name = "thermostat"

let create (env : Migration_intf.env) =
  let regions = Mem.Page_table.regions env.Migration_intf.pt in
  {
    env;
    region_faults = Array.make regions 0;
    region_sampled = Array.make regions 0;
    phase = Arm;
    epochs = 0;
    promoted_regions = 0;
    demoted_regions = 0;
    samples_armed = 0;
  }

let initial_tier t ~vpn:_ =
  if t.env.Migration_intf.fast_free () > 0 then Migration_intf.Fast
  else Migration_intf.Slow

let on_placed _t ~vpn:_ _tier = ()

let region_of t vpn = Mem.Page_table.region_of t.env.Migration_intf.pt vpn

let on_hint_fault t ~vpn _tier ~write:_ =
  let r = region_of t vpn in
  t.region_faults.(r) <- t.region_faults.(r) + 1

(* Arm this epoch's samples: a random subset of every region. *)
let arm_samples t (work : int ref) =
  let pt = t.env.Migration_intf.pt in
  let c = t.env.Migration_intf.costs in
  Array.fill t.region_faults 0 (Array.length t.region_faults) 0;
  Array.fill t.region_sampled 0 (Array.length t.region_sampled) 0;
  for r = 0 to Mem.Page_table.regions pt - 1 do
    Mem.Page_table.iter_region pt r (fun vpn _pte ->
        if
          t.env.Migration_intf.tier_of vpn <> None
          && Engine.Rng.bool t.env.Migration_intf.rng sample_frac
        then begin
          t.env.Migration_intf.poison ~vpn;
          work := !work + c.Mem.Costs.pte_scan_ns;
          t.region_sampled.(r) <- t.region_sampled.(r) + 1;
          t.samples_armed <- t.samples_armed + 1
        end)
  done

(* Migrate whole regions by sampled hotness. *)
let apply_epoch t (work : int ref) =
  let pt = t.env.Migration_intf.pt in
  let regions = Mem.Page_table.regions pt in
  let region_tier r =
    (* Classify a region by its first placed page. *)
    let tier = ref None in
    Mem.Page_table.iter_region pt r (fun vpn _ ->
        if !tier = None then tier := t.env.Migration_intf.tier_of vpn);
    !tier
  in
  let migrate_region r ~promote =
    let moved = ref 0 in
    Mem.Page_table.iter_region pt r (fun vpn _ ->
        let ok =
          if promote then
            t.env.Migration_intf.tier_of vpn = Some Migration_intf.Slow
            && t.env.Migration_intf.promote ~vpn
          else
            t.env.Migration_intf.tier_of vpn = Some Migration_intf.Fast
            && t.env.Migration_intf.demote ~vpn
        in
        if ok then begin
          incr moved;
          work := !work + t.env.Migration_intf.migrate_cost_ns
        end);
    !moved > 0
  in
  (* Hot slow regions wanting promotion, hottest first. *)
  let hot =
    List.init regions (fun r -> r)
    |> List.filter (fun r ->
           t.region_faults.(r) > 0 && region_tier r = Some Migration_intf.Slow)
    |> List.sort (fun a b -> compare t.region_faults.(b) t.region_faults.(a))
  in
  (* Demote first: silent sampled fast regions make room for the hot
     ones (plus the standing headroom). *)
  let region_size = Mem.Page_table.region_size pt in
  let wanted =
    min promote_budget (List.length hot) * region_size
    + max 1
        (int_of_float
           (float_of_int t.env.Migration_intf.fast_capacity
           *. demote_headroom))
  in
  let r = ref 0 in
  while t.env.Migration_intf.fast_free () < wanted && !r < regions do
    if
      t.region_sampled.(!r) > 0
      && t.region_faults.(!r) = 0
      && region_tier !r = Some Migration_intf.Fast
    then
      if migrate_region !r ~promote:false then
        t.demoted_regions <- t.demoted_regions + 1;
    incr r
  done;
  (* Now promote the hottest regions into the freed space. *)
  List.iteri
    (fun i r ->
      if i < promote_budget && t.env.Migration_intf.fast_free () > 0 then
        if migrate_region r ~promote:true then
          t.promoted_regions <- t.promoted_regions + 1)
    hot

let kthread t () =
  match t.phase with
  | Arm ->
    let work = ref 1_000 in
    arm_samples t work;
    t.phase <- Wait;
    Migration_intf.Work !work
  | Wait ->
    t.phase <- Apply;
    Migration_intf.Sleep epoch_ns
  | Apply ->
    t.epochs <- t.epochs + 1;
    let work = ref 1_000 in
    apply_epoch t work;
    t.phase <- Arm;
    Migration_intf.Work !work

let kthreads t = [ { Migration_intf.kname = "thermostat"; kstep = kthread t } ]

let stats t =
  [
    ("epochs", t.epochs);
    ("samples_armed", t.samples_armed);
    ("promoted_regions", t.promoted_regions);
    ("demoted_regions", t.demoted_regions);
  ]
