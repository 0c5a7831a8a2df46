type t = {
  env : Policy_intf.env;
  order : Structures.Dlist.t; (* list 0: head = most recent *)
  mutable evictions : int;
  mutable refaults : int;
}

let policy_name = "lru-exact"

let create env =
  {
    env;
    order = Structures.Dlist.create ~nodes:env.Policy_intf.total_frames ~lists:1;
    evictions = 0;
    refaults = 0;
  }

let on_page_mapped t ~pfn ~vpn:_ ~refault ~file_backed:_ ~speculative:_ =
  if refault then t.refaults <- t.refaults + 1;
  Structures.Dlist.move_head t.order ~list:0 ~node:pfn

let on_page_touched t ~pfn ~write:_ =
  Structures.Dlist.move_head t.order ~list:0 ~node:pfn

let evict_one t ~force (stats : Policy_intf.reclaim_stats) =
  let pfn = Structures.Dlist.pop_tail_node t.order 0 in
  if pfn < 0 then false
  else begin
    stats.scanned <- stats.scanned + 1;
    stats.cpu_ns <- stats.cpu_ns + t.env.Policy_intf.costs.Mem.Costs.list_op_ns;
    Obs.Prof.charge_phase t.env.Policy_intf.prof Obs.Prof.Evict_scan
      t.env.Policy_intf.costs.Mem.Costs.list_op_ns;
    if Mem.Frame_table.is_mapped t.env.Policy_intf.frames pfn then
      if t.env.Policy_intf.evictable ~pfn ~force then begin
        t.env.Policy_intf.reclaim_page ~pfn;
        t.evictions <- t.evictions + 1;
        stats.freed <- stats.freed + 1
      end
      else
        (* Cgroup gate: rotate to the MRU end; recency order among
           evictable pages is preserved. *)
        Structures.Dlist.move_head t.order ~list:0 ~node:pfn;
    true
  end

(* Bounded like fifo: rotation can cycle the list under cgroups; the
   budget never binds when they are off. *)
let shrink t ~want ~force stats =
  let budget = ref ((2 * t.env.Policy_intf.total_frames) + 8) in
  let continue_ = ref true in
  while stats.Policy_intf.freed < want && !continue_ && !budget > 0 do
    continue_ := evict_one t ~force stats;
    decr budget
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
    ("list_len", float_of_int (Structures.Dlist.size t.order 0));
    ("evictions", float_of_int t.evictions);
    ("refaults", float_of_int t.refaults);
  ]

let check_invariants t = Structures.Dlist.check_invariants t.order
