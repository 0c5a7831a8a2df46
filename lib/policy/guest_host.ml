(* Host adapter: runs a Hooks.V1 guest behind the privileged
   Policy_intf.S contract.

   The host keeps every capability the hook API withholds: it owns the
   accessed-bit scanner, validates each eviction nomination against the
   frame table and the cgroup [evictable] gate before calling
   [reclaim_page], and prices every guest interaction (dispatch
   trampoline + metered context queries) into the same CPU channels
   builtins use — [reclaim_stats.cpu_ns] for direct reclaim, kthread
   [Work] for background scanning — tagging it with the Hook_* profiler
   phases.  Fault-path dispatches have no CPU channel of their own, so
   their cost is accrued as a debt and flushed into the next channel. *)

module V1 = Hooks.V1

let h_fault = 0
let h_access = 1
let h_tick = 2
let h_evict = 3

(* Simulated-time gap between accessed-bit scan batches; mirrors the
   cadence of a kswapd-style walker rather than a hot loop. *)
let scan_interval_ns = 2_000_000

module Host (G : V1.GUEST) = struct
  type t = {
    env : Policy_intf.env;
    guest : G.t;
    meter : V1.meter;
    hook_calls : int array; (* indexed by h_* *)
    hook_ns : int array;
    mutable deferred_fault_ns : int;
    mutable offered : int;
    mutable accepted : int;
    mutable rejected : int; (* mapped but gate-refused; re-injected *)
    mutable invalid : int; (* out of range / unmapped / stale *)
    mutable fallback_freed : int;
    mutable samples : int;
    mutable ticks : int;
    mutable scan_cursor : int;
    mutable fallback_cursor : int;
    mutable next_scan_ns : int;
  }

  let policy_name = G.name

  let create (env : Policy_intf.env) =
    (match V1.negotiate ~guest_version:G.api_version with
    | Ok _ -> ()
    | Error msg -> failwith (G.name ^ ": " ^ msg));
    let meter = V1.fresh_meter () in
    let frames = env.Policy_intf.frames in
    let n = env.Policy_intf.total_frames in
    let page ~pfn =
      meter.V1.page_queries <- meter.V1.page_queries + 1;
      let vpn =
        if pfn < 0 || pfn >= n then -1 else Mem.Frame_table.owner_vpn frames pfn
      in
      if vpn < 0 then None
      else
        let pte = Mem.Page_table.get env.Policy_intf.pt vpn in
        if not (Mem.Pte.present pte) then None
        else
          Some
            {
              V1.accessed = Mem.Pte.accessed pte;
              dirty = Mem.Pte.dirty pte;
              file_backed = Mem.Pte.file_backed pte;
            }
    in
    let evictable_hint ~pfn =
      meter.V1.evictable_queries <- meter.V1.evictable_queries + 1;
      pfn >= 0 && pfn < n && env.Policy_intf.evictable ~pfn ~force:false
    in
    let ctx =
      {
        V1.now = env.Policy_intf.now;
        free_count = env.Policy_intf.free_count;
        total_frames = n;
        low_watermark = env.Policy_intf.low_watermark;
        high_watermark = env.Policy_intf.high_watermark;
        page;
        evictable_hint;
        rand = (fun bound -> Engine.Rng.int env.Policy_intf.rng bound);
      }
    in
    (* Queries made during [init] stay in the meter and fold into the
       first dispatch's price — setup is not free either. *)
    {
      env;
      guest = G.init ctx;
      meter;
      hook_calls = Array.make 4 0;
      hook_ns = Array.make 4 0;
      deferred_fault_ns = 0;
      offered = 0;
      accepted = 0;
      rejected = 0;
      invalid = 0;
      fallback_freed = 0;
      samples = 0;
      ticks = 0;
      scan_cursor = 0;
      fallback_cursor = 0;
      next_scan_ns = 0;
    }

  let query_ns t =
    V1.drain_meter t.meter
      ~page_ns:t.env.Policy_intf.costs.Mem.Costs.pte_scan_ns
      ~evictable_ns:t.env.Policy_intf.costs.Mem.Costs.list_op_ns

  (* Price one hook dispatch: trampoline plus whatever context queries
     the guest made inside it. *)
  let dispatched t idx f =
    let r = f () in
    let ns = t.env.Policy_intf.costs.Mem.Costs.hook_dispatch_ns + query_ns t in
    t.hook_calls.(idx) <- t.hook_calls.(idx) + 1;
    t.hook_ns.(idx) <- t.hook_ns.(idx) + ns;
    (r, ns)

  let add t (stats : Policy_intf.reclaim_stats) ~phase ns =
    stats.Policy_intf.cpu_ns <- stats.Policy_intf.cpu_ns + ns;
    Obs.Prof.charge_phase t.env.Policy_intf.prof phase ns

  let flush_deferred t stats =
    if t.deferred_fault_ns > 0 then begin
      add t stats ~phase:Obs.Prof.Hook_fault t.deferred_fault_ns;
      t.deferred_fault_ns <- 0
    end

  let fault_hook t ~pfn ~key ~refault ~file_backed ~speculative ~reinserted =
    let (), ns =
      dispatched t h_fault (fun () ->
          G.on_fault t.guest
            { V1.pfn; key; refault; file_backed; speculative; reinserted })
    in
    ns

  let on_page_mapped t ~pfn ~vpn ~refault ~file_backed ~speculative =
    let ns =
      fault_hook t ~pfn ~key:vpn ~refault ~file_backed ~speculative
        ~reinserted:false
    in
    t.deferred_fault_ns <- t.deferred_fault_ns + ns

  let on_page_touched _t ~pfn:_ ~write:_ = ()

  let reinject t stats pfn =
    let vpn = Mem.Frame_table.owner_vpn t.env.Policy_intf.frames pfn in
    if vpn >= 0 then begin
      let pte = Mem.Page_table.get t.env.Policy_intf.pt vpn in
      let ns =
        fault_hook t ~pfn ~key:vpn ~refault:false
          ~file_backed:(Mem.Pte.file_backed pte) ~speculative:false
          ~reinserted:true
      in
      add t stats ~phase:Obs.Prof.Hook_fault ns
    end

  let evict_round t ~want ~force (stats : Policy_intf.reclaim_stats) =
    let cands, ns = dispatched t h_evict (fun () -> G.evict_request t.guest ~want) in
    add t stats ~phase:Obs.Prof.Hook_evict ns;
    List.iter
      (fun pfn ->
        t.offered <- t.offered + 1;
        stats.Policy_intf.scanned <- stats.Policy_intf.scanned + 1;
        (* Host validation is real work: one list op per nomination. *)
        add t stats ~phase:Obs.Prof.Hook_evict
          t.env.Policy_intf.costs.Mem.Costs.list_op_ns;
        if
          pfn < 0
          || pfn >= t.env.Policy_intf.total_frames
          || not (Mem.Frame_table.is_mapped t.env.Policy_intf.frames pfn)
        then t.invalid <- t.invalid + 1
        else if t.env.Policy_intf.evictable ~pfn ~force then begin
          t.env.Policy_intf.reclaim_page ~pfn;
          t.accepted <- t.accepted + 1;
          stats.Policy_intf.freed <- stats.Policy_intf.freed + 1
        end
        else begin
          t.rejected <- t.rejected + 1;
          reinject t stats pfn
        end)
      cands

  (* Failsafe: forward progress must not depend on guest quality.  When
     the guest nominates nothing freeable, sweep the frame table
     linearly (priced like a pte scan) and free evictable frames
     directly.  The guest's stale entries wash out later as invalid
     nominations. *)
  let host_fallback t ~want ~force (stats : Policy_intf.reclaim_stats) =
    let n = t.env.Policy_intf.total_frames in
    let examined = ref 0 in
    while stats.Policy_intf.freed < want && !examined < n do
      let pfn = t.fallback_cursor in
      t.fallback_cursor <- (t.fallback_cursor + 1) mod n;
      incr examined;
      stats.Policy_intf.scanned <- stats.Policy_intf.scanned + 1;
      stats.Policy_intf.pte_scans <- stats.Policy_intf.pte_scans + 1;
      add t stats ~phase:Obs.Prof.Evict_scan
        t.env.Policy_intf.costs.Mem.Costs.pte_scan_ns;
      if
        Mem.Frame_table.is_mapped t.env.Policy_intf.frames pfn
        && t.env.Policy_intf.evictable ~pfn ~force
      then begin
        t.env.Policy_intf.reclaim_page ~pfn;
        t.fallback_freed <- t.fallback_freed + 1;
        stats.Policy_intf.freed <- stats.Policy_intf.freed + 1
      end
    done

  let direct_reclaim t ~want =
    let stats = Policy_intf.fresh_stats () in
    flush_deferred t stats;
    let rounds = ref 0 in
    let progress = ref true in
    while stats.Policy_intf.freed < want && !progress && !rounds < 8 do
      let before = stats.Policy_intf.freed in
      evict_round t ~want:(want - before) ~force:false stats;
      progress := stats.Policy_intf.freed > before;
      incr rounds
    done;
    if stats.Policy_intf.freed = 0 then evict_round t ~want ~force:true stats;
    if stats.Policy_intf.freed = 0 then
      host_fallback t ~want:(max want 1) ~force:true stats;
    Obs.Vmstat.add t.env.Policy_intf.vmstat Obs.Vmstat.pgscan_direct
      stats.Policy_intf.scanned;
    stats

  let sample_batch t (stats : Policy_intf.reclaim_stats) =
    let env = t.env in
    let n = env.Policy_intf.total_frames in
    if n > 0 then begin
      let batch = min n (max 64 (n / 32)) in
      for _ = 1 to batch do
        let pfn = t.scan_cursor in
        t.scan_cursor <- (t.scan_cursor + 1) mod n;
        stats.Policy_intf.pte_scans <- stats.Policy_intf.pte_scans + 1;
        add t stats ~phase:Obs.Prof.Pte_scan
          env.Policy_intf.costs.Mem.Costs.pte_scan_ns;
        let vpn = Mem.Frame_table.owner_vpn env.Policy_intf.frames pfn in
        if vpn >= 0 then begin
          let pt = env.Policy_intf.pt in
          let pte = Mem.Page_table.get pt vpn in
          if Mem.Pte.present pte && Mem.Pte.accessed pte then begin
            Mem.Page_table.set pt vpn (Mem.Pte.clear_accessed pte);
            t.samples <- t.samples + 1;
            let (), ns =
              dispatched t h_access (fun () ->
                  G.on_access_sample t.guest
                    { V1.pfn; dirty = Mem.Pte.dirty pte })
            in
            add t stats ~phase:Obs.Prof.Hook_access ns
          end
        end
      done
    end;
    t.ticks <- t.ticks + 1;
    let (), ns = dispatched t h_tick (fun () -> G.on_scan_tick t.guest) in
    add t stats ~phase:Obs.Prof.Hook_tick ns

  let guest_scan t () =
    let env = t.env in
    let now = env.Policy_intf.now () in
    let pressure =
      env.Policy_intf.free_count () < env.Policy_intf.low_watermark
    in
    if (not pressure) && t.deferred_fault_ns = 0 && now < t.next_scan_ns then
      Policy_intf.Sleep (t.next_scan_ns - now)
    else begin
      let stats = Policy_intf.fresh_stats () in
      flush_deferred t stats;
      if now >= t.next_scan_ns then begin
        sample_batch t stats;
        t.next_scan_ns <- now + scan_interval_ns
      end;
      if pressure then begin
        evict_round t ~want:32 ~force:false stats;
        if stats.Policy_intf.freed = 0 then
          evict_round t ~want:32 ~force:true stats
      end;
      (* The guest's background walker is its kswapd: candidate
         examinations on this thread count as kswapd scan work. *)
      Obs.Vmstat.add env.Policy_intf.vmstat Obs.Vmstat.pgscan_kswapd
        stats.Policy_intf.scanned;
      Policy_intf.Work (max stats.Policy_intf.cpu_ns 500)
    end

  let kthreads t = [ { Policy_intf.kname = "guest_scan"; kstep = guest_scan t } ]

  let stats t =
    let hook name idx =
      [ (name ^ "_calls", t.hook_calls.(idx)); (name ^ "_ns", t.hook_ns.(idx)) ]
    in
    hook "hook_fault" h_fault
    @ hook "hook_access" h_access
    @ hook "hook_tick" h_tick
    @ hook "hook_evict" h_evict
    @ [
        ("evict_offered", t.offered);
        ("evict_accepted", t.accepted);
        ("evict_rejected", t.rejected);
        ("evict_invalid", t.invalid);
        ("host_fallback_freed", t.fallback_freed);
        ("access_samples", t.samples);
        ("scan_ticks", t.ticks);
      ]
    @ List.map (fun (k, v) -> ("guest." ^ k, v)) (G.stats t.guest)

  let gauges t =
    ("hook_ns_total", float_of_int (Array.fold_left ( + ) 0 t.hook_ns))
    :: ("hook_calls_total", float_of_int (Array.fold_left ( + ) 0 t.hook_calls))
    :: ("deferred_fault_ns", float_of_int t.deferred_fault_ns)
    :: List.map (fun (k, v) -> ("guest." ^ k, v)) (G.gauges t.guest)

  let check_invariants t =
    if t.deferred_fault_ns < 0 then failwith "guest_host: negative deferred ns";
    Array.iter
      (fun ns -> if ns < 0 then failwith "guest_host: negative hook ns")
      t.hook_ns;
    if t.accepted + t.fallback_freed < 0 then
      failwith "guest_host: negative eviction counters"
end
