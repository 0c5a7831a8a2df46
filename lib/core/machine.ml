module Prof = Obs.Prof
module Driver = Workload.Driver

type swap_kind = Ssd | Zram

type config = {
  capacity_frames : int;
  swap : swap_kind;
  costs : Mem.Costs.t;
  readahead : int;
  barrier_groups : int array option;
  kthread_jitter_ns : int;
      (** mean scheduling delay between kernel-thread steps; the
          OS-noise term the paper blames for scan-timing variance *)
  seed : int;
  fault_plan : Swapdev.Faulty_device.plan;
  io_max_retries : int;
  audit_every_ns : int;
  obs : Obs.config;
      (** every telemetry channel (trace, samples, profiler, region
          monitor); Obs.off records nothing, byte-identical results *)
  cancel : Engine.Cancel.t;
  cgroups : Mem.Memcg.spec option;
      (** memory cgroups (None = single global pool, the pre-cgroup
          behaviour, byte-identical to builds without the controller) *)
  chaos : Chaos.spec option;
      (** runtime-transient injection schedule (None = no injectors,
          byte-identical to builds without the chaos layer) *)
}

(* The testbed's fixed values (paper §IV; DESIGN §4). *)
let hw_threads = 12 (* i7-8700: 6 cores, 12 threads *)

let direct_reclaim_batch = 8 (* pages a direct-reclaim call asks for *)

let hit_cpu_ns = 20 (* per-page compute on a resident touch *)

let minor_fault_ns = 1_000 (* zero-fill fault; also a chaos page copy *)

(* Base of the exponential transient-I/O retry backoff; the memcg
   memory.high throttle grows from the same base. *)
let io_retry_backoff_ns = 100_000

let max_runtime_ns = 50_000_000_000_000 (* safety stop *)

let default_config ~capacity_frames ~seed =
  {
    capacity_frames;
    costs = Mem.Costs.experiment ~scale:1;
    swap = Ssd;
    readahead = 8;
    barrier_groups = None;
    kthread_jitter_ns = 50_000;
    seed;
    fault_plan = Swapdev.Faulty_device.none;
    io_max_retries = 4;
    audit_every_ns = 0;
    obs = Obs.off;
    cancel = Engine.Cancel.never;
    cgroups = None;
    chaos = None;
  }

type 'lat trial = {
  runtime_ns : int;
  major_faults : int;
  minor_faults : int;
  read_latencies : 'lat;
  write_latencies : 'lat;
  per_thread_finish : int array;
  cpu_busy_ns : int;
  policy_stats : (string * int) list;
  policy_name : string;
  resident_at_end : int;
  counters : Obs.Vmstat.capture;
  memcg : Mem.Memcg.summary option;
  chaos : Chaos.summary option;
  trace : Obs.capture option;
  profile : Obs.Prof.capture option;
  heatmap : Mem.Damon.capture option;
}

type result = int array trial

type stored = Structures.Latencies.runs trial

let count r i = Obs.Vmstat.count r.counters i

type t = {
  cfg : config;
  obs : Obs.t;
  prof : Obs.Prof.t;
  (* Every event counter (see Obs.Vmstat) and the workingset eviction
     clock.  A bump is one array store, so the hot paths never branch
     on configuration. *)
  vm : Obs.Vmstat.t;
  ws : Mem.Workingset.t;
  sim : Engine.Sim.t;
  cpu : Engine.Cpu.t;
  drv : Driver.t; (* threads, barriers, kthreads; see Workload.Driver *)
  pt : Mem.Page_table.t;
  frames : Mem.Frame_table.t;
  mem : Mem.Phys_mem.t;
  swap : Swapdev.Swap_manager.t;
  workload : Workload.Chunk.packed;
  mutable policy : Policy.Policy_intf.packed option;
  (* Per vpn: clean swap-cache slot, faulting and owning threads, and
     the pinned and readahead-pending flags (see Page_state). *)
  pages : Page_state.t;
  read_lat : Structures.Latencies.t;
  write_lat : Structures.Latencies.t;
  (* Direct-reclaim context: reclaim_page behaves differently when the
     eviction runs synchronously on a faulting thread, at the thread's
     [direct_now] rather than the event's time. *)
  mutable in_direct : bool;
  mutable direct_now : int;
  mutable direct_stall_until : int;
  mutable direct_cpu_extra : int;
  (* Success-adaptive swap readahead, like the kernel's per-VMA scheme:
     each address-space zone keeps its own window, shrunk when its
     speculatively-read pages get evicted untouched. *)
  ra_window : int array; (* per zone *)
  ra_hits : int array;
  ra_misses : int array;
  (* Per-thread residency feeds OOM victim selection. *)
  thread_rss : int array;  (* tid -> resident pages it faulted in *)
  (* Memory cgroups; None = no containment, zero behavioural change. *)
  mcg : Mem.Memcg.t option;
  mutable mcg_target : int option; (* reclaim scoped to this cgroup *)
  mutable mcg_breach_low : bool;
  mutable mcg_unproductive : int;
  (* last-resort override of memory.low: armed only after two whole
     direct-reclaim calls in a row freed nothing — the second already
     ran the policy's force escalation (ignoring accessed bits) against
     unprotected memory only, so a second zero means nothing outside
     the protected cgroups is reclaimable *)
  (* Chaos injector state: empty when [cfg.chaos] is [None]. *)
  chaos_knobs : Swapdev.Degraded_device.knobs option;
  mutable chaos_offlined : int list; (* offlined pfns, most recent first *)
  mutable chaos_last : string; (* last applied injection, for audit context *)
}

let ra_zone_pages = 512

let ra_zone vpn = vpn / ra_zone_pages

let ra_adapt t z =
  if t.ra_hits.(z) + t.ra_misses.(z) >= 32 then begin
    if t.ra_hits.(z) > 2 * t.ra_misses.(z) then
      t.ra_window.(z) <- Int.min t.cfg.readahead (t.ra_window.(z) + 1)
    else if t.ra_misses.(z) > t.ra_hits.(z) then
      t.ra_window.(z) <- Int.max 1 (t.ra_window.(z) / 2);
    t.ra_hits.(z) <- 0;
    t.ra_misses.(z) <- 0
  end

let ra_note_hit t vpn =
  if Page_state.ra_pending t.pages vpn then begin
    Page_state.set_ra_pending t.pages vpn false;
    let z = ra_zone vpn in
    t.ra_hits.(z) <- t.ra_hits.(z) + 1;
    ra_adapt t z
  end

let ra_note_evicted t vpn =
  if Page_state.ra_pending t.pages vpn then begin
    Page_state.set_ra_pending t.pages vpn false;
    let z = ra_zone vpn in
    t.ra_misses.(z) <- t.ra_misses.(z) + 1;
    ra_adapt t z
  end

let policy_of t =
  match t.policy with
  | Some p -> p
  | None -> invalid_arg "Machine: policy not installed"

let on_mapped t ~pfn ~vpn ~refault ~file_backed ~speculative =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  P.on_page_mapped p ~pfn ~vpn ~refault ~file_backed ~speculative

let on_touched t ~pfn ~write =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  P.on_page_touched p ~pfn ~write

let wake_kthreads t = Driver.wake_kthreads t.drv

let killed t tid = Driver.killed t.drv tid

let rss_page_mapped t ~tid ~vpn =
  Page_state.set_faulted_by t.pages vpn tid;
  Page_state.set_owner t.pages vpn tid;
  t.thread_rss.(tid) <- t.thread_rss.(tid) + 1;
  match t.mcg with
  | Some mg -> Mem.Memcg.charge mg ~tid ~vpn
  | None -> ()

let rss_page_unmapped t ~vpn =
  let tid = Page_state.faulted_by t.pages vpn in
  if tid >= 0 then begin
    t.thread_rss.(tid) <- t.thread_rss.(tid) - 1;
    Page_state.set_faulted_by t.pages vpn (-1)
  end;
  match t.mcg with
  | Some mg -> Mem.Memcg.uncharge mg ~vpn
  | None -> ()

(* The cgroup gate policies consult before detaching an eviction
   candidate.  A targeted pass (memory.high/max enforcement, the
   proactive probe) only touches the target cgroup's pages — hard, not
   overridden by [force].  Outside a targeted pass, memory.low shields a
   cgroup under its protection; the policy's [force] escalation (which
   also ignores accessed bits) may breach it only after an entire
   direct-reclaim call — force pass included — freed nothing, mirroring
   how the kernel overrides protection only when nothing else is
   reclaimable. *)
let evictable t ~pfn ~force =
  match t.mcg with
  | None -> true
  | Some mg ->
    let vpn = Mem.Frame_table.owner_vpn t.frames pfn in
    if vpn < 0 then true
    else
      let cg = Mem.Memcg.cg_of_page mg vpn in
      if cg < 0 then true
      else (
        match t.mcg_target with
        | Some target -> cg = target
        | None ->
          (force && t.mcg_breach_low) || not (Mem.Memcg.low_protected mg cg))

let mcg_stall t ~tid ~t0 ~t1 =
  match t.mcg with
  | Some mg -> Mem.Memcg.stall mg ~tid ~t0 ~t1
  | None -> ()

(* Per-cgroup memory.stat slices of the vmstat counters.  Fault-side
   counters attribute to the faulting thread's cgroup; reclaim-side
   counters ([pgsteal], [pswpout]) to the cgroup charged for the page
   being evicted, like the kernel's lruvec accounting. *)
let mcg_vm t ~tid i =
  match t.mcg with Some mg -> Mem.Memcg.vm_bump mg ~tid i | None -> ()

let mcg_vm_page t ~vpn i =
  match t.mcg with Some mg -> Mem.Memcg.vm_bump_page mg ~vpn i | None -> ()

(* The machine unmaps, writes back and frees a frame on the policy's
   behalf.  Clean pages with a retained swap-cache copy are dropped
   without I/O; dirty (or never-swapped) pages cost a device write,
   which stalls the faulting thread when reclaim is direct.  A write
   that fails permanently (even after retries and slot remapping) pins
   the page in memory: it cannot leave until the OOM killer tears its
   owner down. *)
let reclaim_page t ~pfn =
  let vpn = Mem.Frame_table.owner_vpn t.frames pfn in
  if vpn >= 0 then begin
    let pte = Mem.Page_table.get t.pt vpn in
    if Mem.Pte.present pte && not (Page_state.pinned t.pages vpn) then begin
      let retained = Page_state.retained t.pages vpn in
      let now = if t.in_direct then t.direct_now else Engine.Sim.now t.sim in
      let needs_writeback = Mem.Pte.dirty pte || retained < 0 in
      let slot =
        if needs_writeback then begin
          if retained >= 0 then begin
            Swapdev.Swap_manager.release t.swap ~slot:retained;
            Page_state.set_retained t.pages vpn (-1)
          end;
          let klass = Workload.Chunk.packed_klass t.workload vpn in
          let slot =
            Swapdev.Swap_manager.swap_out_slot t.swap ~now ~klass ~page_key:vpn
          in
          let io_cpu = Swapdev.Swap_manager.last_cpu_ns t.swap in
          if t.in_direct then begin
            t.direct_stall_until <-
              Int.max t.direct_stall_until
                (Swapdev.Swap_manager.last_finish_ns t.swap);
            t.direct_cpu_extra <- t.direct_cpu_extra + io_cpu;
            Prof.charge_phase t.prof Prof.Evict_scan io_cpu
          end
          else
            Engine.Cpu.charge_tagged t.cpu
              ~phase:(Prof.phase_index Prof.Evict_scan) io_cpu;
          slot
        end
        else retained
      in
      if slot < 0 then begin
        (* Writeback failed for good: the page stays resident and
           becomes unreclaimable. *)
        Page_state.set_pinned t.pages vpn true;
        Obs.Vmstat.incr t.vm Obs.Vmstat.writeback_failures
      end
      else begin
        Obs.Vmstat.incr t.vm Obs.Vmstat.pgsteal;
        mcg_vm_page t ~vpn Mem.Memcg.st_pgsteal;
        if needs_writeback then mcg_vm_page t ~vpn Mem.Memcg.st_pswpout;
        (* Leave a shadow entry behind, like the kernel's
           workingset_eviction: the eviction-clock snapshot plus the
           accessed bit, consumed when the page refaults. *)
        Mem.Page_table.set_shadow t.pt vpn
          (Mem.Workingset.note_eviction t.ws
             ~was_active:(Mem.Pte.accessed pte));
        Mem.Page_table.set t.pt vpn (Mem.Pte.to_swapped pte ~slot);
        Page_state.set_retained t.pages vpn (-1);
        ra_note_evicted t vpn;
        rss_page_unmapped t ~vpn;
        Mem.Frame_table.clear_owner t.frames ~pfn;
        Mem.Phys_mem.free t.mem pfn;
        if Obs.enabled t.obs then
          Obs.emit t.obs ~t_ns:now (Obs.Evict { vpn; dirty = needs_writeback })
      end
    end
  end

let map_page t ~tid ~pfn ~vpn ~refault ~write ~demand =
  let file_backed = Workload.Chunk.packed_file_backed t.workload vpn in
  Mem.Frame_table.set_owner t.frames ~pfn ~vpn;
  let pte = Mem.Pte.mapped ~pfn ~file_backed in
  let pte = if demand then Mem.Pte.set_accessed pte else pte in
  let pte = if write then Mem.Pte.set_dirty pte else pte in
  Mem.Page_table.set t.pt vpn pte;
  rss_page_mapped t ~tid ~vpn;
  on_mapped t ~pfn ~vpn ~refault ~file_backed ~speculative:(not demand);
  if demand then on_touched t ~pfn ~write

(* Model the OOM killer: pick the live thread with the largest resident
   share — restricted to cgroup [cg] when the kill is scoped — terminate
   it, and tear down *all* of its address space: resident pages are
   freed without writeback (their contents die with the thread, pinned
   or not), swap-cache copies and the slots of its swapped-out pages are
   released, and every reverse-map entry is cleared.  Returns false only
   if no eligible live thread remains. *)
let oom_kill ?cg t =
  let eligible tid =
    match (cg, t.mcg) with
    | Some c, Some mg -> Mem.Memcg.cg_of_thread mg tid = c
    | _ -> true
  in
  let victim = ref (-1) in
  for tid = 0 to Driver.threads t.drv - 1 do
    if Driver.live t.drv tid && eligible tid then
      if !victim < 0 || t.thread_rss.(tid) > t.thread_rss.(!victim) then
        victim := tid
  done;
  if !victim < 0 then false
  else begin
    let v = !victim in
    Obs.Vmstat.incr t.vm Obs.Vmstat.oom_kill;
    let discarded = ref 0 in
    for vpn = 0 to Mem.Page_table.pages t.pt - 1 do
      if Page_state.owner t.pages vpn = v then begin
        let pte = Mem.Page_table.get t.pt vpn in
        if Mem.Pte.present pte then begin
          let pfn = Mem.Pte.pfn pte in
          let retained = Page_state.retained t.pages vpn in
          if retained >= 0 then begin
            Swapdev.Swap_manager.release t.swap ~slot:retained;
            Page_state.set_retained t.pages vpn (-1)
          end;
          Mem.Page_table.set t.pt vpn Mem.Pte.empty;
          Mem.Frame_table.clear_owner t.frames ~pfn;
          Mem.Phys_mem.free t.mem pfn;
          Page_state.set_pinned t.pages vpn false;
          Page_state.set_ra_pending t.pages vpn false;
          (match t.mcg with
          | Some mg -> Mem.Memcg.uncharge mg ~vpn
          | None -> ());
          incr discarded
        end
        else if Mem.Pte.swapped pte then begin
          (* The PR-1 killer leaked these: a victim's swapped-out pages
             kept their slots (and rmap entries) forever.  Release the
             slot and empty the PTE so the audit's slot-conservation
             check holds after every kill. *)
          Swapdev.Swap_manager.release t.swap ~slot:(Mem.Pte.swap_slot pte);
          Mem.Page_table.set t.pt vpn Mem.Pte.empty;
          (* The page's contents die with the thread: a later fault on
             this vpn is a fresh minor fault, not a refault, so drop
             the pending shadow entry. *)
          Mem.Page_table.clear_shadow t.pt vpn;
          incr discarded
        end;
        Page_state.set_faulted_by t.pages vpn (-1);
        Page_state.set_owner t.pages vpn (-1)
      end
    done;
    t.thread_rss.(v) <- 0;
    Driver.kill t.drv v;
    Prof.mark t.prof ~tid:v ~now:(Engine.Sim.now t.sim) Prof.Oom_kill;
    let discarded = !discarded in
    Obs.Vmstat.add t.vm Obs.Vmstat.oom_discarded_pages discarded;
    Obs.emit t.obs ~t_ns:(Engine.Sim.now t.sim)
      (Obs.Oom_kill { tid = v; discarded });
    (match t.mcg with
    | Some mg ->
      let vcg = Mem.Memcg.cg_of_thread mg v in
      Mem.Memcg.note_oom mg vcg;
      Mem.Memcg.thread_exit mg ~tid:v ~now:(Engine.Sim.now t.sim);
      Obs.emit t.obs ~t_ns:(Engine.Sim.now t.sim)
        (Obs.Cgroup_oom { cg = Mem.Memcg.name mg vcg; tid = v; discarded })
    | None -> ());
    true
  end

(* One synchronous reclaim episode on a faulting thread: run the policy
   for [want] frames and charge its CPU, plus any writeback it waits on,
   to the thread by advancing [cursor].  The whole episode is a memory
   stall, like the kernel's psi_memstall_enter around
   try_to_free_pages.  Returns the policy's stats. *)
let direct_reclaim t ~tid ~want ~(cursor : int ref) =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  Obs.Vmstat.incr t.vm Obs.Vmstat.direct_reclaims;
  t.in_direct <- true;
  t.direct_now <- !cursor;
  t.direct_stall_until <- !cursor;
  t.direct_cpu_extra <- 0;
  (* Scope the episode: attribution accrued inside it is consumed by its
     own aggregate charge below, not by the segment-end flush (and vice
     versa). *)
  let saved_pending = Prof.suspend_pending t.prof in
  Prof.begin_phase t.prof ~now:!cursor Prof.Evict_scan;
  let stats = P.direct_reclaim p ~want in
  t.in_direct <- false;
  let cpu = stats.Policy.Policy_intf.cpu_ns + t.direct_cpu_extra in
  Engine.Cpu.charge t.cpu cpu;
  Prof.resume_pending t.prof saved_pending;
  let before = !cursor in
  let cpu_wall = Engine.Cpu.scale t.cpu cpu in
  cursor := Int.max (!cursor + cpu_wall) t.direct_stall_until;
  Prof.end_phase t.prof ~now:(before + cpu_wall);
  Prof.wait t.prof ~tid ~now:!cursor Prof.Writeback_wait
    (!cursor - before - cpu_wall);
  mcg_stall t ~tid ~t0:before ~t1:!cursor;
  Obs.Vmstat.add t.vm Obs.Vmstat.direct_reclaim_ns (!cursor - before);
  wake_kthreads t;
  stats

(* Allocation slow path: reclaim synchronously on the faulting thread.
   When reclaim cannot free memory, degrade through the OOM killer
   rather than aborting the trial; [-1] means the faulting thread itself
   was chosen and its fault must unwind. *)
let alloc_frame t ~tid ~(cursor : int ref) =
  let pfn = Mem.Phys_mem.alloc_pfn t.mem in
  if pfn >= 0 then begin
    if Mem.Phys_mem.below_low t.mem then wake_kthreads t;
    pfn
  end
  else begin
    let rec retry attempts =
      if killed t tid then -1
      else if attempts > 64 then
        if oom_kill t && not (killed t tid) then begin
          let pfn = Mem.Phys_mem.alloc_pfn t.mem in
          if pfn >= 0 then pfn else retry 0
        end
        else -1
      else begin
        if t.mcg <> None then t.mcg_breach_low <- t.mcg_unproductive >= 2;
        let before = !cursor in
        let want = direct_reclaim_batch in
        let stats = direct_reclaim t ~tid ~want ~cursor in
        if Obs.enabled t.obs then
          Obs.emit t.obs ~t_ns:before
            (Obs.Reclaim
               {
                 want;
                 freed = stats.Policy.Policy_intf.freed;
                 scanned = stats.Policy.Policy_intf.scanned;
                 latency_ns = !cursor - before;
               });
        if t.mcg <> None then
          t.mcg_unproductive <-
            (if stats.Policy.Policy_intf.freed = 0 then t.mcg_unproductive + 1
             else 0);
        let pfn = Mem.Phys_mem.alloc_pfn t.mem in
        if pfn >= 0 then pfn else retry (attempts + 1)
      end
    in
    let frame = retry 0 in
    t.mcg_breach_low <- false;
    t.mcg_unproductive <- 0;
    frame
  end

(* A reclaim episode scoped to [cg] through [mcg_target] and reported as
   a [Cgroup_reclaim] trace event (so untargeted Reclaim telemetry stays
   comparable across configurations).  Returns the pages freed. *)
let memcg_direct_reclaim t ~tid ~cg ~want ~(cursor : int ref) =
  let before = !cursor in
  t.mcg_target <- Some cg;
  let stats = direct_reclaim t ~tid ~want ~cursor in
  t.mcg_target <- None;
  (match t.mcg with
  | Some mg ->
    Obs.emit t.obs ~t_ns:before
      (Obs.Cgroup_reclaim
         {
           cg = Mem.Memcg.name mg cg;
           want;
           freed = stats.Policy.Policy_intf.freed;
           scanned = stats.Policy.Policy_intf.scanned;
           latency_ns = !cursor - before;
         })
  | None -> ());
  stats.Policy.Policy_intf.freed

(* memory.max: a charge may not cross the hard cap.  Reclaim inside the
   cgroup until the charge fits; when a whole pass stops making progress
   (everything left is pinned or the group is thrashing faster than it
   writes back), degrade through a *scoped* OOM kill and re-check.  The
   machine-wide killer in the allocation slow path is this same
   mechanism with [cg = None] — the root-cgroup degenerate case. *)
let memcg_enforce_max t ~tid ~(cursor : int ref) =
  match t.mcg with
  | None -> ()
  | Some mg ->
    let cg = Mem.Memcg.cg_of_thread mg tid in
    let rec enforce stalled_passes =
      if (not (killed t tid)) && Mem.Memcg.over_max mg cg ~extra:1 then begin
        if stalled_passes >= 8 then begin
          if oom_kill t ~cg then enforce 0
          (* else: nothing left to kill in the group; let the charge
             through rather than deadlocking the machine. *)
        end
        else begin
          let want =
            Mem.Memcg.max_overage mg cg ~extra:1 + direct_reclaim_batch
          in
          let usage_before = Mem.Memcg.usage mg cg in
          ignore (memcg_direct_reclaim t ~tid ~cg ~want ~cursor);
          (* Progress is measured in usage, not the policy's freed count:
             a writeback that fails permanently pins the page and frees
             nothing even though the policy counted it. *)
          enforce
            (if Mem.Memcg.usage mg cg < usage_before then 0
             else stalled_passes + 1)
        end
      end
    in
    enforce 0

(* memory.high: over the soft cap the thread keeps running but pays —
   first one bounded targeted-reclaim attempt, then an exponentially
   growing stall (PR-1's transient-I/O backoff curve, in simulated
   time) for as long as the group stays over. *)
let memcg_after_charge t ~tid ~(cursor : int ref) =
  match t.mcg with
  | None -> ()
  | Some mg ->
    let cg = Mem.Memcg.cg_of_thread mg tid in
    if Mem.Memcg.over_high mg cg then begin
      let want =
        Int.min (Mem.Memcg.high_overage mg cg) direct_reclaim_batch
      in
      if want > 0 then
        ignore (memcg_direct_reclaim t ~tid ~cg ~want ~cursor)
    end;
    let d = Mem.Memcg.throttle_ns mg ~tid ~base_ns:io_retry_backoff_ns in
    if d > 0 then begin
      let t0 = !cursor in
      cursor := !cursor + d;
      Mem.Memcg.stall mg ~tid ~t0 ~t1:!cursor;
      Prof.wait t.prof ~tid ~now:!cursor Prof.Writeback_wait d;
      Obs.emit t.obs ~t_ns:t0
        (Obs.Throttle
           {
             tid;
             cg = Mem.Memcg.name mg cg;
             usage = Mem.Memcg.usage mg cg;
             high = Mem.Memcg.high mg cg;
             stall_ns = d;
           })
    end

(* Asynchronous targeted reclaim for the proactive probe: kswapd-like
   (CPU charged to the contention model, writebacks overlap, nobody
   stalls), but scoped to one cgroup. *)
let memcg_background_reclaim t ~cg ~want ~now =
  let (Policy.Policy_intf.Packed ((module P), p)) = policy_of t in
  t.mcg_target <- Some cg;
  let stats = P.direct_reclaim p ~want in
  t.mcg_target <- None;
  Engine.Cpu.charge_tagged t.cpu
    ~phase:(Prof.phase_index Prof.Evict_scan)
    stats.Policy.Policy_intf.cpu_ns;
  (match t.mcg with
  | Some mg ->
    Obs.emit t.obs ~t_ns:now
      (Obs.Cgroup_reclaim
         {
           cg = Mem.Memcg.name mg cg;
           want;
           freed = stats.Policy.Policy_intf.freed;
           scanned = stats.Policy.Policy_intf.scanned;
           latency_ns = 0;
         })
  | None -> ());
  wake_kthreads t

(* Workingset refault accounting at swap-in, mirroring the kernel's
   workingset_refault(): consume the shadow entry left at eviction,
   classify the refault distance against memory size, and count.  Runs
   for demand and readahead swap-ins alike — the kernel classifies on
   swap-cache insertion, before anyone touches the page — and before
   the I/O outcome is known, so even a poisoned read was a refault. *)
let note_refault t ~tid ~vpn ~now =
  let shadow = Mem.Page_table.shadow t.pt vpn in
  if shadow = Mem.Workingset.no_shadow then begin
    Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_shadow_miss;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~t_ns:now
        (Obs.Workingset_refault
           {
             vpn;
             distance = -1;
             shadow = false;
             activated = false;
             restored = false;
           })
  end
  else begin
    let r = Mem.Workingset.classify t.ws ~shadow in
    Mem.Page_table.clear_shadow t.pt vpn;
    Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_refault;
    Obs.Vmstat.note_refault_distance t.vm r.Mem.Workingset.distance;
    mcg_vm t ~tid Mem.Memcg.st_ws_refault;
    if r.Mem.Workingset.activated then begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_activate;
      mcg_vm t ~tid Mem.Memcg.st_ws_activate
    end;
    if r.Mem.Workingset.restored then begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.workingset_restore;
      mcg_vm t ~tid Mem.Memcg.st_ws_restore
    end;
    if Obs.enabled t.obs then
      Obs.emit t.obs ~t_ns:now
        (Obs.Workingset_refault
           {
             vpn;
             distance = r.Mem.Workingset.distance;
             shadow = true;
             activated = r.Mem.Workingset.activated;
             restored = r.Mem.Workingset.restored;
           })
  end

(* Opportunistic swap-in of the sequential neighbours of a demand fault,
   like the kernel's swap readahead cluster.  Only when memory is easy:
   readahead must never trigger reclaim. *)
let readahead t ~tid ~(cursor : int ref) vpn =
  let n = Int.min t.cfg.readahead t.ra_window.(ra_zone vpn) in
  if n > 1 && Mem.Phys_mem.free_count t.mem > n + Mem.Phys_mem.low_watermark t.mem
  then begin
    let limit = Int.min (vpn + n - 1) (Mem.Page_table.pages t.pt - 1) in
    let stop = ref false in
    for v = vpn + 1 to limit do
      if not !stop then begin
        let pte = Mem.Page_table.get t.pt v in
        if Mem.Pte.swapped pte then begin
          let pfn = Mem.Phys_mem.alloc_pfn t.mem in
          if pfn < 0 then stop := true
          else begin
            let slot = Mem.Pte.swap_slot pte in
            Swapdev.Swap_manager.swap_in_slot t.swap ~now:!cursor ~slot;
            (* Tagged: this I/O submit cost is charged here and nowhere
               else, so it must not consume pending attribution. *)
            Engine.Cpu.charge_tagged t.cpu
              ~phase:(Prof.phase_index Prof.Fault_handling)
              (Swapdev.Swap_manager.last_cpu_ns t.swap);
            if Swapdev.Swap_manager.last_failed t.swap then begin
              (* Speculative read failed: abandon the cluster.  The page
                 stays swapped; a demand fault will retry (and poison it
                 if the slot really is gone). *)
              Mem.Phys_mem.free t.mem pfn;
              stop := true
            end
            else begin
              note_refault t ~tid ~vpn:v ~now:!cursor;
              mcg_vm t ~tid Mem.Memcg.st_pswpin;
              Page_state.set_retained t.pages v slot;
              Page_state.set_ra_pending t.pages v true;
              map_page t ~tid ~pfn ~vpn:v ~refault:true ~write:false ~demand:false
            end
          end
        end
      end
    done
  end

let handle_fault t ~tid ~(cursor : int ref) ~(cpu_acc : int ref) ~vpn ~write =
  Prof.begin_phase t.prof ~now:!cursor Prof.Fault_handling;
  Obs.Vmstat.incr t.vm Obs.Vmstat.pgfault;
  mcg_vm t ~tid Mem.Memcg.st_pgfault;
  cpu_acc := !cpu_acc + t.cfg.costs.Mem.Costs.fault_trap_ns;
  (* The hard cap is enforced before the machine even looks for a free
     frame: a cgroup at memory.max must make room inside itself (or
     sacrifice one of its own) no matter how much global memory is
     free.  May kill [tid]. *)
  memcg_enforce_max t ~tid ~cursor;
  let pfn = if killed t tid then -1 else alloc_frame t ~tid ~cursor in
  (* pfn < 0: the faulting thread lost the OOM lottery *)
  if pfn >= 0 then begin
    (* Attribute the trap cost after the allocation so the pending
       amount cannot be consumed by a direct-reclaim episode's
       aggregate charge; it flushes with [cpu_acc] at segment end. *)
    Prof.charge_phase t.prof Prof.Fault_handling
      t.cfg.costs.Mem.Costs.fault_trap_ns;
    let pte = Mem.Page_table.get t.pt vpn in
    if Mem.Pte.swapped pte then begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.pgmajfault;
      mcg_vm t ~tid Mem.Memcg.st_pgmajfault;
      note_refault t ~tid ~vpn ~now:!cursor;
      let slot = Mem.Pte.swap_slot pte in
      Swapdev.Swap_manager.swap_in_slot t.swap ~now:!cursor ~slot;
      let io_cpu = Swapdev.Swap_manager.last_cpu_ns t.swap in
      let io_finish = Swapdev.Swap_manager.last_finish_ns t.swap in
      let io_failed = Swapdev.Swap_manager.last_failed t.swap in
      cpu_acc := !cpu_acc + io_cpu;
      Prof.charge_phase t.prof Prof.Fault_handling io_cpu;
      let before_wait = !cursor in
      cursor := Int.max !cursor io_finish;
      Prof.wait t.prof ~tid ~now:!cursor Prof.Swap_wait (!cursor - before_wait);
      mcg_stall t ~tid ~t0:before_wait ~t1:!cursor;
      if io_failed then begin
        (* The stored copy is unrecoverable: poison the mapping.  The
           thread continues on a zero-filled page, and the loss is
           visible in [poisoned_reads]. *)
        Obs.Vmstat.incr t.vm Obs.Vmstat.poisoned_reads;
        Swapdev.Swap_manager.release t.swap ~slot;
        map_page t ~tid ~pfn ~vpn ~refault:false ~write ~demand:true
      end
      else begin
        mcg_vm t ~tid Mem.Memcg.st_pswpin;
        Page_state.set_retained t.pages vpn slot;
        map_page t ~tid ~pfn ~vpn ~refault:true ~write ~demand:true;
        readahead t ~tid ~cursor vpn
      end
    end
    else begin
      Obs.Vmstat.incr t.vm Obs.Vmstat.minor_faults;
      cpu_acc := !cpu_acc + minor_fault_ns;
      Prof.charge_phase t.prof Prof.Fault_handling minor_fault_ns;
      map_page t ~tid ~pfn ~vpn ~refault:false ~write ~demand:true
    end;
    memcg_after_charge t ~tid ~cursor
  end;
  Prof.end_phase t.prof ~now:!cursor

(* Touch one page: fast path sets the accessed (and dirty) bits exactly
   like the hardware walker; misses enter the fault path. *)
let touch t ~tid ~cursor ~cpu_acc ~vpn ~write =
  let pte = Mem.Page_table.get t.pt vpn in
  if Mem.Pte.present pte then begin
    let pte = Mem.Pte.set_accessed pte in
    let pte = if write then Mem.Pte.set_dirty pte else pte in
    Mem.Page_table.set t.pt vpn pte;
    cpu_acc := !cpu_acc + hit_cpu_ns;
    ra_note_hit t vpn;
    on_touched t ~pfn:(Mem.Pte.pfn pte) ~write
  end
  else handle_fault t ~tid ~cursor ~cpu_acc ~vpn ~write

let record_latency t ~tid (c : Workload.Chunk.t) ns =
  let cls = c.Workload.Chunk.latency_class in
  if cls = Workload.Chunk.read_class then Structures.Latencies.push t.read_lat ns
  else if cls = Workload.Chunk.write_class then Structures.Latencies.push t.write_lat ns;
  match t.mcg with
  | Some mg -> Mem.Memcg.note_latency mg ~tid ~cls ns
  | None -> ()

(* The driver's per-segment hook: touch pages [first .. last - 1] until
   the thread dies. *)
let segment t ~tid (c : Workload.Chunk.t) ~first ~last ~cursor ~cpu_acc =
  for i = first to last - 1 do
    if not (killed t tid) then begin
      let write = c.Workload.Chunk.write && i >= c.Workload.Chunk.read_prefix in
      touch t ~tid ~cursor ~cpu_acc
        ~vpn:(Workload.Chunk.page_at c.Workload.Chunk.pages i)
        ~write
    end
  done

let audit t =
  Invariants.audit ~memcg:t.mcg
    ~last_chaos:(if t.chaos_last = "" then None else Some t.chaos_last)
    ~killed:(Some (Driver.killed_threads t.drv))
    ~pt:t.pt ~frames:t.frames ~mem:t.mem ~swap:t.swap ~pages:t.pages

(* ---- Chaos injection --------------------------------------------- *)

(* Move a resident page off an offlining frame: allocate a destination
   (always lower-numbered — every higher frame is already offline),
   rewrite the PTE and reverse map, and re-announce the page to the
   policy.  Policies tolerate the stale source pfn exactly as they
   tolerate a frame the OOM killer freed behind their back. *)
let chaos_migrate t ~src ~vpn =
  let dst = Mem.Phys_mem.alloc_pfn t.mem in
  if dst < 0 then false
  else begin
    let pte = Mem.Page_table.get t.pt vpn in
    let file_backed = Mem.Pte.file_backed pte in
    let npte = Mem.Pte.to_mapped pte ~pfn:dst in
    let npte = if Mem.Pte.accessed pte then Mem.Pte.set_accessed npte else npte in
    let npte = if Mem.Pte.dirty pte then Mem.Pte.set_dirty npte else npte in
    Mem.Page_table.set t.pt vpn npte;
    Mem.Frame_table.clear_owner t.frames ~pfn:src;
    Mem.Frame_table.set_owner t.frames ~pfn:dst ~vpn;
    (* Page-copy cost, charged like kswapd work. *)
    Engine.Cpu.charge_tagged t.cpu
      ~phase:(Prof.phase_index Prof.Evict_scan)
      minor_fault_ns;
    on_mapped t ~pfn:dst ~vpn ~refault:true ~file_backed ~speculative:false;
    true
  end

(* Offline [want] frames from the top of the physical range, kernel
   memory-hotplug style: free frames come straight off the free stack,
   mapped ones are migrated to lower frames (or evicted when no
   destination exists), and pinned pages keep their frame online. *)
let chaos_offline t ~want ~(cs : Chaos.summary) =
  let offlined = ref 0 in
  let pfn = ref (Mem.Phys_mem.frames t.mem - 1) in
  while !offlined < want && !pfn >= 0 do
    let p = !pfn in
    if Mem.Phys_mem.is_online t.mem p then begin
      if Mem.Phys_mem.is_free t.mem p then begin
        Mem.Phys_mem.offline_free t.mem p;
        t.chaos_offlined <- p :: t.chaos_offlined;
        incr offlined
      end
      else begin
        let vpn = Mem.Frame_table.owner_vpn t.frames p in
        if vpn >= 0 && not (Page_state.pinned t.pages vpn) then begin
          if chaos_migrate t ~src:p ~vpn then begin
            Mem.Phys_mem.offline_used t.mem p;
            t.chaos_offlined <- p :: t.chaos_offlined;
            cs.Chaos.s_migrated <- cs.Chaos.s_migrated + 1;
            incr offlined
          end
          else begin
            (* No free destination anywhere: evict the page instead. *)
            reclaim_page t ~pfn:p;
            if Mem.Phys_mem.is_free t.mem p then begin
              Mem.Phys_mem.offline_free t.mem p;
              t.chaos_offlined <- p :: t.chaos_offlined;
              cs.Chaos.s_evicted <- cs.Chaos.s_evicted + 1;
              incr offlined
            end
            else cs.Chaos.s_skipped <- cs.Chaos.s_skipped + 1
          end
        end
        else cs.Chaos.s_skipped <- cs.Chaos.s_skipped + 1
      end
    end;
    decr pfn
  done;
  cs.Chaos.s_offlined <- cs.Chaos.s_offlined + !offlined;
  (* Capacity just shrank under the watermarks: get kswapd moving. *)
  wake_kthreads t

let chaos_online t ~want ~(cs : Chaos.summary) =
  let n = ref 0 in
  while !n < want && t.chaos_offlined <> [] do
    (match t.chaos_offlined with
    | [] -> ()
    | p :: rest ->
      t.chaos_offlined <- rest;
      Mem.Phys_mem.online t.mem p;
      incr n)
  done;
  cs.Chaos.s_onlined <- cs.Chaos.s_onlined + !n

(* Test-only fault: clear the lowest-numbered mapped frame's reverse-map
   entry so the next audit must flag the machine.  The fuzzer plants
   this to prove the invariant net catches real corruption. *)
let chaos_corrupt t ~(cs : Chaos.summary) =
  let total = Mem.Phys_mem.frames t.mem in
  let p = ref 0 in
  while !p < total && Mem.Frame_table.owner_vpn t.frames !p < 0 do incr p done;
  if !p < total then begin
    Mem.Frame_table.clear_owner t.frames ~pfn:!p;
    cs.Chaos.s_corrupted <- cs.Chaos.s_corrupted + 1;
    !p
  end
  else -1

let apply_chaos t (cs : Chaos.summary) action =
  let now = Engine.Sim.now t.sim in
  let arg =
    match action with
    | Chaos.Offline want ->
      chaos_offline t ~want ~cs;
      want
    | Chaos.Online want ->
      chaos_online t ~want ~cs;
      want
    | Chaos.Degrade_set { latency; errors; wear } ->
      (match t.chaos_knobs with
      | Some k ->
        k.Swapdev.Degraded_device.latency_mult <- latency;
        k.Swapdev.Degraded_device.error_prob <- errors;
        k.Swapdev.Degraded_device.wear_prob <- wear
      | None -> ());
      cs.Chaos.s_device_phases <- cs.Chaos.s_device_phases + 1;
      int_of_float (latency *. 100.)
    | Chaos.Degrade_clear ->
      (match t.chaos_knobs with
      | Some k ->
        k.Swapdev.Degraded_device.latency_mult <- 1.0;
        k.Swapdev.Degraded_device.error_prob <- 0.0;
        k.Swapdev.Degraded_device.wear_prob <- 0.0
      | None -> ());
      0
    | Chaos.Set_limits { cg; low; high; max_limit } -> (
      match t.mcg with
      | None -> 0
      | Some mg -> (
        match Mem.Memcg.find mg cg with
        | None -> 0
        | Some idx ->
          Mem.Memcg.set_limits mg idx ?low ?high ?max_limit ();
          cs.Chaos.s_limit_updates <- cs.Chaos.s_limit_updates + 1;
          (* Writing memory.max below usage reclaims immediately, like
             echoing a lower limit into a live cgroup's control file. *)
          let over = Mem.Memcg.max_overage mg idx ~extra:0 in
          if over > 0 then memcg_background_reclaim t ~cg:idx ~want:over ~now;
          (match max_limit with
          | Some m -> m
          | None -> (
            match high with
            | Some h -> h
            | None -> Option.value low ~default:0))))
    | Chaos.Stall { lo; hi; until } ->
      let n = ref 0 in
      for tid = lo to min hi (Driver.threads t.drv - 1) do
        if Driver.live t.drv tid then begin
          Driver.stall t.drv ~tid ~until;
          incr n
        end
      done;
      cs.Chaos.s_stalled_threads <- cs.Chaos.s_stalled_threads + !n;
      !n
    | Chaos.Corrupt_frame ->
      let p = chaos_corrupt t ~cs in
      max p 0
  in
  cs.Chaos.s_events <- cs.Chaos.s_events + 1;
  t.chaos_last <- Printf.sprintf "%s@%dns" (Chaos.action_label action) now;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~t_ns:now
      (Obs.Chaos
         {
           injector = Chaos.action_injector action;
           action = Chaos.action_label action;
           arg;
         });
  (* Every injection is followed by a forced audit, independent of
     [audit_every_ns]. *)
  Obs.Vmstat.add t.vm Obs.Vmstat.invariant_violations (List.length (audit t))

(* A recurring tick every [ns] simulated ns while threads run. *)
let every t ns f =
  let rec tick _ =
    if Driver.running t.drv then begin
      f ();
      Engine.Sim.schedule t.sim ~delay:ns tick
    end
  in
  Engine.Sim.schedule t.sim ~delay:ns tick

let run cfg ~policy ~workload =
  if cfg.capacity_frames <= 0 then invalid_arg "Machine.run: capacity_frames";
  let footprint = Workload.Chunk.packed_footprint workload in
  let nthreads = Workload.Chunk.packed_threads workload in
  if nthreads > Page_state.max_tid + 1 then
    invalid_arg
      (Printf.sprintf "Machine.run: workload has %d threads; at most %d are supported"
         nthreads (Page_state.max_tid + 1));
  let obs = Obs.create cfg.obs in
  let prof = Prof.create cfg.obs.prof in
  let vm = Obs.Vmstat.create () in
  let rng = Engine.Rng.create cfg.seed in
  let base_device =
    match cfg.swap with
    | Ssd -> Swapdev.Ssd.create ~rng:(Engine.Rng.split rng) ()
    | Zram -> Swapdev.Zram.create ~rng:(Engine.Rng.split rng) ()
  in
  (* A disabled plan must not even split the RNG, so fault-free runs are
     bit-identical to builds that predate the fault layer. *)
  let device =
    if Swapdev.Faulty_device.is_none cfg.fault_plan then base_device
    else
      Swapdev.Faulty_device.wrap ~plan:cfg.fault_plan
        ~rng:(Engine.Rng.split rng) ~vmstat:vm base_device
  in
  (* Chaos device degradation: the wrapper exists only when the spec has
     a degrade window, with an RNG derived from the seed rather than
     split from the main stream — chaos-free runs draw exactly the same
     numbers as before this layer existed. *)
  let chaos_knobs =
    match cfg.chaos with
    | Some spec when Chaos.has_degrade spec ->
      Some (Swapdev.Degraded_device.neutral ())
    | _ -> None
  in
  let device =
    match chaos_knobs with
    | None -> device
    | Some knobs ->
      Swapdev.Degraded_device.wrap ~knobs
        ~rng:(Engine.Rng.create (cfg.seed lxor 0x5EED0C4A))
        device
  in
  let mcg =
    Option.map
      (fun spec ->
        Mem.Memcg.create spec ~capacity_frames:cfg.capacity_frames ~nthreads
          ~footprint_pages:footprint)
      cfg.cgroups
  in
  (* Churn segments name cgroups; reject dangling references up front
     rather than silently no-opping mid-run. *)
  (match cfg.chaos with
  | None -> ()
  | Some spec ->
    List.iter
      (fun cgn ->
        let known =
          match mcg with
          | None -> false
          | Some mg -> Mem.Memcg.find mg cgn <> None
        in
        if not known then
          invalid_arg
            (Printf.sprintf
               "Machine.run: chaos churn targets unknown cgroup %S (is \
                --cgroups set?)"
               cgn))
      (Chaos.churn_cgs spec));
  let sim = Engine.Sim.create () in
  let cpu = Engine.Cpu.create ~hw_threads in
  let drv =
    Driver.create ~sim ~cpu ~rng ~prof ~barrier_ns:cfg.costs.Mem.Costs.barrier_ns
      ~kthread_jitter_ns:cfg.kthread_jitter_ns ~barrier_groups:cfg.barrier_groups
      workload
  in
  let t =
    {
      cfg;
      obs;
      prof;
      vm;
      ws = Mem.Workingset.create ~capacity:cfg.capacity_frames;
      sim;
      cpu;
      drv;
      pt =
        Mem.Page_table.create ~region_size:cfg.costs.Mem.Costs.region_size
          ~pages:footprint ();
      frames = Mem.Frame_table.create ~frames:cfg.capacity_frames;
      mem = Mem.Phys_mem.create ~frames:cfg.capacity_frames ();
      swap =
        Swapdev.Swap_manager.create ~max_retries:cfg.io_max_retries
          ~backoff_ns:io_retry_backoff_ns ~obs ~vmstat:vm ~device
          ~seed:(Engine.Rng.int rng (1 lsl 30)) ();
      workload;
      policy = None;
      pages = Page_state.create ~pages:footprint;
      read_lat = Structures.Latencies.create ();
      write_lat = Structures.Latencies.create ();
      in_direct = false;
      direct_now = 0;
      direct_stall_until = 0;
      direct_cpu_extra = 0;
      ra_window = Array.make ((footprint / ra_zone_pages) + 1) (max 1 cfg.readahead);
      ra_hits = Array.make ((footprint / ra_zone_pages) + 1) 0;
      ra_misses = Array.make ((footprint / ra_zone_pages) + 1) 0;
      thread_rss = Array.make nthreads 0;
      mcg;
      mcg_target = None;
      mcg_breach_low = false;
      mcg_unproductive = 0;
      chaos_knobs;
      chaos_offlined = [];
      chaos_last = "";
    }
  in
  let env =
    {
      Policy.Policy_intf.costs = cfg.costs;
      frames = t.frames;
      pt = t.pt;
      rng = Engine.Rng.split rng;
      now = (fun () -> Engine.Sim.now t.sim);
      reclaim_page = (fun ~pfn -> reclaim_page t ~pfn);
      evictable = (fun ~pfn ~force -> evictable t ~pfn ~force);
      free_count = (fun () -> Mem.Phys_mem.free_count t.mem);
      total_frames = cfg.capacity_frames;
      low_watermark = Mem.Phys_mem.low_watermark t.mem;
      high_watermark = Mem.Phys_mem.high_watermark t.mem;
      obs;
      prof;
      vmstat = vm;
    }
  in
  if Prof.enabled prof then
    Engine.Cpu.set_hook t.cpu (fun phase ns -> Prof.on_cpu_charge prof phase ns);
  let packed = policy env in
  t.policy <- Some packed;
  let (Policy.Policy_intf.Packed ((module P), p)) = packed in
  Driver.start drv
    {
      Driver.segment =
        (fun ~tid c ~first ~last ~cursor ~cpu_acc ->
          segment t ~tid c ~first ~last ~cursor ~cpu_acc);
      low_memory = (fun () -> Mem.Phys_mem.below_low t.mem);
      request_done = (fun ~tid c ~latency_ns -> record_latency t ~tid c latency_ns);
      thread_exit =
        (fun ~tid ->
          match t.mcg with
          | Some mg -> Mem.Memcg.thread_exit mg ~tid ~now:(Engine.Sim.now t.sim)
          | None -> ());
    }
    (P.kthreads p);
  (* Compile and schedule the chaos timeline.  [None] schedules nothing
     at all — zero extra events, zero extra RNG draws. *)
  let chaos_summary =
    match cfg.chaos with
    | None -> None
    | Some spec ->
      let cs = Chaos.fresh_summary () in
      List.iter
        (fun (time, action) ->
          Engine.Sim.schedule_at t.sim ~time (fun _ ->
              if not (Driver.stopped drv) then apply_chaos t cs action))
        (Chaos.events spec ~capacity:cfg.capacity_frames ~nthreads);
      Some cs
  in
  if cfg.audit_every_ns > 0 then
    every t cfg.audit_every_ns (fun () ->
        Obs.Vmstat.add t.vm Obs.Vmstat.invariant_violations
          (List.length (audit t)));
  (* PSI tick: fold stall intervals forward, publish per-cgroup Psi
     trace events, and drive the proactive (Senpai-style) probe.  Only
     scheduled when cgroups are on — a plain run has no extra events,
     no extra RNG draws, no extra CPU charges. *)
  (match t.mcg with
  | None -> ()
  | Some mg ->
    let interval = Mem.Memcg.psi_interval_ns mg in
    let n = Mem.Memcg.ncgroups mg in
    let last_some = Array.make n 0 and last_full = Array.make n 0 in
    every t interval (fun () ->
        let now = Engine.Sim.now t.sim in
        Mem.Memcg.advance mg ~now;
        for cg = 0 to n - 1 do
          let s = Mem.Memcg.psi_some mg cg and f = Mem.Memcg.psi_full mg cg in
          let limit =
            let l = Mem.Memcg.eff_limit mg cg in
            if l = max_int then -1 else l
          in
          Obs.emit t.obs ~t_ns:now
            (Obs.Psi
               {
                 cg = Mem.Memcg.name mg cg;
                 some_ns = s - last_some.(cg);
                 full_ns = f - last_full.(cg);
                 window_ns = interval;
                 limit;
               });
          last_some.(cg) <- s;
          last_full.(cg) <- f
        done;
        if Mem.Memcg.proactive_on mg then
          for cg = 1 to n - 1 do
            let want, _pressure_ppm = Mem.Memcg.proactive_step mg cg in
            if want > 0 then memcg_background_reclaim t ~cg ~want ~now
          done));
  (* DAMON-style region monitor: a recurring aggregation tick that
     reads (never clears) accessed bits and adapts its region layout.
     Pure observation on the simulated clock — it charges no CPU and
     draws no randomness, so results with the monitor on are identical
     to results with it off, and [None] schedules nothing at all. *)
  let damon =
    match cfg.obs.damon with
    | None -> None
    | Some dcfg ->
      let d = Mem.Damon.create dcfg in
      every t (Mem.Damon.aggregate_every_ns d) (fun () ->
          Mem.Damon.tick d ~now:(Engine.Sim.now t.sim) ~pt:t.pt);
      Some d
  in
  let sample_every = Obs.sample_every_ns obs in
  if sample_every > 0 then begin
    (* Same recurring-tick shape as the audit above.  Counters named
       *_faults/swap_*/direct_reclaims are cumulative; refault_rate_per_s
       is the per-interval major-fault delta scaled to a rate. *)
    let last_major = ref 0 in
    let sample () =
      let count i = float_of_int (Obs.Vmstat.get t.vm i) in
      let major = Obs.Vmstat.get t.vm Obs.Vmstat.pgmajfault in
      let d_major = major - !last_major in
      last_major := major;
      let metrics =
        [
          ("free_frames", float_of_int (Mem.Phys_mem.free_count t.mem));
          ("resident", float_of_int (Mem.Page_table.resident t.pt));
          ("swap_used_slots",
           float_of_int (Swapdev.Swap_manager.used_slots t.swap));
          ("major_faults", float_of_int major);
          ("minor_faults", count Obs.Vmstat.minor_faults);
          ("refault_rate_per_s",
           float_of_int d_major *. 1e9 /. float_of_int sample_every);
          ("swap_ins", count Obs.Vmstat.pswpin);
          ("swap_outs", count Obs.Vmstat.pswpout);
          ("direct_reclaims", count Obs.Vmstat.direct_reclaims);
          ("oom_kills", count Obs.Vmstat.oom_kill);
        ]
        @ List.map (fun (k, v) -> ("policy." ^ k, v)) (P.gauges p)
        @ (match t.mcg with
          | None -> []
          | Some mg ->
            Mem.Memcg.advance mg ~now:(Engine.Sim.now t.sim);
            ("psi.some_ns", float_of_int (Mem.Memcg.machine_some mg))
            :: ("psi.full_ns", float_of_int (Mem.Memcg.machine_full mg))
            :: List.concat
                 (List.init (Mem.Memcg.ncgroups mg) (fun cg ->
                      let pre = "memcg." ^ Mem.Memcg.name mg cg ^ "." in
                      [
                        (pre ^ "usage", float_of_int (Mem.Memcg.usage mg cg));
                        ( pre ^ "psi_some_ns",
                          float_of_int (Mem.Memcg.psi_some mg cg) );
                        ( pre ^ "psi_full_ns",
                          float_of_int (Mem.Memcg.psi_full mg cg) );
                        ( pre ^ "throttled_ns",
                          float_of_int (Mem.Memcg.throttled_ns mg cg) );
                      ])))
      in
      Obs.push_sample obs ~t_ns:(Engine.Sim.now t.sim) metrics
    in
    every t sample_every sample
  end;
  Engine.Sim.run ~until:max_runtime_ns ~cancel:cfg.cancel t.sim;
  Obs.Vmstat.add vm Obs.Vmstat.invariant_violations (List.length (audit t));
  let runtime = Driver.runtime_ns drv in
  let counters = Obs.Vmstat.capture vm in
  {
    runtime_ns = runtime;
    major_faults = Obs.Vmstat.count counters Obs.Vmstat.pgmajfault;
    minor_faults = Obs.Vmstat.count counters Obs.Vmstat.minor_faults;
    read_latencies = Structures.Latencies.seal t.read_lat;
    write_latencies = Structures.Latencies.seal t.write_lat;
    per_thread_finish = Driver.per_thread_finish drv;
    cpu_busy_ns = Engine.Cpu.busy_ns t.cpu;
    policy_stats = P.stats p;
    policy_name = P.policy_name;
    resident_at_end = Mem.Page_table.resident t.pt;
    counters;
    memcg = Option.map (fun mg -> Mem.Memcg.summary mg ~now:runtime) t.mcg;
    chaos = chaos_summary;
    trace = Obs.capture obs;
    profile = Prof.capture prof;
    heatmap = Option.map Mem.Damon.capture damon;
  }
