type t = {
  env : Policy_intf.env;
  mutable evictions : int;
  mutable refaults : int;
}

let policy_name = "random"

let create env = { env; evictions = 0; refaults = 0 }

let on_page_mapped t ~pfn:_ ~vpn:_ ~refault ~file_backed:_ ~speculative:_ =
  if refault then t.refaults <- t.refaults + 1

let on_page_touched _t ~pfn:_ ~write:_ = ()

(* Rejection-sample a mapped, evictable frame; bounded then linear
   fallback.  With cgroups off [evictable] is constant [true], so the
   RNG draw sequence is unchanged. *)
let pick_victim t ~force =
  let frames = t.env.Policy_intf.frames in
  let n = t.env.Policy_intf.total_frames in
  let ok pfn =
    Mem.Frame_table.is_mapped frames pfn
    && t.env.Policy_intf.evictable ~pfn ~force
  in
  let rec sample tries =
    if tries = 0 then None
    else begin
      let pfn = Engine.Rng.int t.env.Policy_intf.rng n in
      if ok pfn then Some pfn else sample (tries - 1)
    end
  in
  match sample 64 with
  | Some pfn -> Some pfn
  | None ->
    let rec linear pfn =
      if pfn >= n then None else if ok pfn then Some pfn else linear (pfn + 1)
    in
    linear 0

let evict_one t ~force (stats : Policy_intf.reclaim_stats) =
  match pick_victim t ~force with
  | None -> false
  | Some pfn ->
    stats.scanned <- stats.scanned + 1;
    stats.cpu_ns <- stats.cpu_ns + 100;
    Obs.Prof.charge_phase t.env.Policy_intf.prof Obs.Prof.Evict_scan 100;
    t.env.Policy_intf.reclaim_page ~pfn;
    t.evictions <- t.evictions + 1;
    stats.freed <- stats.freed + 1;
    true

let shrink t ~want ~force stats =
  let continue_ = ref true in
  while stats.Policy_intf.freed < want && !continue_ do
    continue_ := evict_one t ~force stats
  done

let direct_reclaim t ~want =
  let stats = Policy_intf.fresh_stats () in
  shrink t ~want ~force:false stats;
  if stats.Policy_intf.freed = 0 then
    shrink t ~want ~force:true stats;
  stats

let kswapd t () =
  let env = t.env in
  if env.Policy_intf.free_count () >= env.Policy_intf.high_watermark then
    Policy_intf.Sleep_until_woken
  else begin
    let stats = Policy_intf.fresh_stats () in
    shrink t ~want:32 ~force:false stats;
    if stats.Policy_intf.freed = 0 then Policy_intf.Sleep_until_woken
    else Policy_intf.Work (max stats.Policy_intf.cpu_ns 500)
  end

let kthreads t = [ { Policy_intf.kname = "kswapd"; kstep = kswapd t } ]

let stats t = [ ("evictions", t.evictions); ("refaults", t.refaults) ]

let gauges t =
  [
    ("free_frames", float_of_int (t.env.Policy_intf.free_count ()));
    ("evictions", float_of_int t.evictions);
    ("refaults", float_of_int t.refaults);
  ]

let check_invariants _t = ()
