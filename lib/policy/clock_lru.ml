module Prof = Obs.Prof

let scan_batch = 32 (* pages examined per kswapd step *)

let inactive_ratio = 2 (* keep inactive >= active / ratio *)

let active = 0
let inactive = 1

type t = {
  env : Policy_intf.env;
  lists : Structures.Dlist.t;
  mutable refaults : int;
  mutable evictions : int;
  mutable active_scans : int;
  mutable inactive_scans : int;
  mutable rotations : int;
}

let policy_name = "clock"

let create env =
  {
    env;
    lists = Structures.Dlist.create ~nodes:env.Policy_intf.total_frames ~lists:2;
    refaults = 0;
    evictions = 0;
    active_scans = 0;
    inactive_scans = 0;
    rotations = 0;
  }

let active_size t = Structures.Dlist.size t.lists active

let inactive_size t = Structures.Dlist.size t.lists inactive

let on_page_mapped t ~pfn ~vpn:_ ~refault ~file_backed:_ ~speculative =
  if refault then t.refaults <- t.refaults + 1;
  (* The classic kernel adds newly mapped anonymous pages to the active
     list; speculative readahead pages start inactive. *)
  let list = if speculative then inactive else active in
  Structures.Dlist.move_head t.lists ~list ~node:pfn

let on_page_touched _t ~pfn:_ ~write:_ = ()

let costs t = t.env.Policy_intf.costs

let vm t = t.env.Policy_intf.vmstat

(* Examine one active-tail page: accessed -> rotate to head, else demote.
   The scan loops read the frame owner through the unboxed accessors
   ([-1] sentinels) so examining a page allocates nothing. *)
let deactivate_one t (stats : Policy_intf.reclaim_stats) =
  let pfn = Structures.Dlist.tail_node t.lists active in
  if pfn < 0 then false
  else begin
    stats.scanned <- stats.scanned + 1;
    stats.rmap_walks <- stats.rmap_walks + 1;
    stats.cpu_ns <- stats.cpu_ns + (costs t).Mem.Costs.rmap_walk_ns;
    Prof.charge_phase t.env.Policy_intf.prof Prof.Rmap_walk
      (costs t).Mem.Costs.rmap_walk_ns;
    t.active_scans <- t.active_scans + 1;
    let frames = t.env.Policy_intf.frames in
    let vpn = Mem.Frame_table.owner_vpn frames pfn in
    if vpn < 0 then begin
      (* Raced with an unmap; drop from our lists. *)
      Structures.Dlist.remove t.lists ~node:pfn;
      true
    end
    else begin
      let pt = t.env.Policy_intf.pt in
      let pte = Mem.Page_table.get pt vpn in
      stats.cpu_ns <- stats.cpu_ns + (costs t).Mem.Costs.list_op_ns;
      Prof.charge_phase t.env.Policy_intf.prof Prof.Evict_scan
        (costs t).Mem.Costs.list_op_ns;
      if Mem.Pte.accessed pte then begin
        Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
        Structures.Dlist.move_head t.lists ~list:active ~node:pfn;
        t.rotations <- t.rotations + 1
      end
      else begin
        Structures.Dlist.move_head t.lists ~list:inactive ~node:pfn;
        Obs.Vmstat.incr (vm t) Obs.Vmstat.pgdeactivate;
        if Obs.enabled t.env.Policy_intf.obs then
          Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
            (Obs.Demote { pfn })
      end;
      true
    end
  end

let rebalance t stats =
  let continue_ = ref true in
  while
    !continue_
    && active_size t > 0
    && inactive_size t * inactive_ratio < active_size t
  do
    continue_ := deactivate_one t stats
  done

(* Examine one inactive-tail page: accessed -> second chance, else evict. *)
let evict_one t ~force (stats : Policy_intf.reclaim_stats) =
  let pfn = Structures.Dlist.tail_node t.lists inactive in
  if pfn < 0 then `Empty
  else begin
    stats.scanned <- stats.scanned + 1;
    stats.rmap_walks <- stats.rmap_walks + 1;
    stats.cpu_ns <- stats.cpu_ns + (costs t).Mem.Costs.rmap_walk_ns;
    Prof.charge_phase t.env.Policy_intf.prof Prof.Rmap_walk
      (costs t).Mem.Costs.rmap_walk_ns;
    t.inactive_scans <- t.inactive_scans + 1;
    let frames = t.env.Policy_intf.frames in
    let vpn = Mem.Frame_table.owner_vpn frames pfn in
    if vpn < 0 then begin
      Structures.Dlist.remove t.lists ~node:pfn;
      `Scanned
    end
    else begin
      let pt = t.env.Policy_intf.pt in
      let pte = Mem.Page_table.get pt vpn in
      stats.cpu_ns <- stats.cpu_ns + (costs t).Mem.Costs.list_op_ns;
      Prof.charge_phase t.env.Policy_intf.prof Prof.Evict_scan
        (costs t).Mem.Costs.list_op_ns;
      if Mem.Pte.accessed pte && not force then begin
        Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
        Structures.Dlist.move_head t.lists ~list:active ~node:pfn;
        stats.promoted <- stats.promoted + 1;
        (* The kernel's pgactivate: a second chance is a promotion back
           to the active list.  MG-LRU's generational promotions count
           under [mglru_promoted] instead, so this counter isolates the
           active/inactive ping-pong the paper attributes to Clock. *)
        Obs.Vmstat.incr (vm t) Obs.Vmstat.pgactivate;
        if Obs.enabled t.env.Policy_intf.obs then
          Obs.emit t.env.Policy_intf.obs ~t_ns:(t.env.Policy_intf.now ())
            (Obs.Promote { pfn; reason = Obs.Second_chance });
        `Scanned
      end
      else if not (t.env.Policy_intf.evictable ~pfn ~force) then begin
        (* Cgroup gate: rotate back to the inactive head instead of
           evicting; the scan budget keeps the pass bounded. *)
        Structures.Dlist.move_head t.lists ~list:inactive ~node:pfn;
        `Protected
      end
      else begin
        Structures.Dlist.remove t.lists ~node:pfn;
        t.env.Policy_intf.reclaim_page ~pfn;
        t.evictions <- t.evictions + 1;
        stats.freed <- stats.freed + 1;
        `Freed
      end
    end
  end

let shrink t ~want ~force stats =
  rebalance t stats;
  let budget = ref (Int.max (2 * scan_batch) (4 * want)) in
  while stats.Policy_intf.freed < want && !budget > 0 do
    (match evict_one t ~force stats with
    | `Empty ->
      (* Nothing inactive: pull from the active list directly. *)
      if not (deactivate_one t stats) then budget := 0
    | `Protected ->
      (* A protected-only inactive list must not starve the pass:
         rotation cycles the same shielded pages between head and tail
         forever, so feed fresh active pages in behind them. *)
      ignore (deactivate_one t stats)
    | `Scanned | `Freed -> ());
    decr budget
  done

let direct_reclaim t ~want =
  let stats = Policy_intf.fresh_stats () in
  shrink t ~want ~force:false stats;
  if stats.Policy_intf.freed = 0 then
    (* Priority escalation: ignore accessed bits rather than deadlock. *)
    shrink t ~want ~force:true stats;
  Obs.Vmstat.add (vm t) Obs.Vmstat.pgscan_direct stats.Policy_intf.scanned;
  stats

let kswapd t () =
  let env = t.env in
  if env.Policy_intf.free_count () >= env.Policy_intf.high_watermark then
    Policy_intf.Sleep_until_woken
  else begin
    let stats = Policy_intf.fresh_stats () in
    shrink t ~want:scan_batch ~force:false stats;
    Obs.Vmstat.add (vm t) Obs.Vmstat.pgscan_kswapd stats.Policy_intf.scanned;
    if stats.Policy_intf.freed = 0 && stats.Policy_intf.scanned = 0 then
      Policy_intf.Sleep_until_woken
    else Policy_intf.Work (Int.max stats.Policy_intf.cpu_ns 1_000)
  end

let kthreads t = [ { Policy_intf.kname = "kswapd"; kstep = kswapd t } ]

let stats t =
  [
    ("active", active_size t);
    ("inactive", inactive_size t);
    ("refaults", t.refaults);
    ("evictions", t.evictions);
    ("active_scans", t.active_scans);
    ("inactive_scans", t.inactive_scans);
    ("rotations", t.rotations);
  ]

let gauges t =
  [
    ("active", float_of_int (active_size t));
    ("inactive", float_of_int (inactive_size t));
    ("refaults", float_of_int t.refaults);
    ("rotations", float_of_int t.rotations);
  ]

let check_invariants t = Structures.Dlist.check_invariants t.lists
