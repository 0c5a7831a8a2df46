type violation = {
  check : string;
  subject : int;
  detail : string;
}

let v check subject fmt = Printf.ksprintf (fun detail -> { check; subject; detail }) fmt

let audit ~last_chaos ~memcg ~killed ~pt ~frames ~mem ~swap ~pages =
  let out = ref [] in
  let add x = out := x :: !out in
  let nswapped = ref 0 and nretained = ref 0 in
  (* Name the owning cgroup in page-side failures so a violation under
     chaos churn points straight at the group whose limits moved. *)
  let owning_cg vpn =
    match memcg with
    | None -> ""
    | Some mg ->
      let cg = Mem.Memcg.cg_of_page mg vpn in
      if cg < 0 || cg >= Mem.Memcg.ncgroups mg then ""
      else Printf.sprintf " (cg=%s)" (Mem.Memcg.name mg cg)
  in
  (* Frame side: every mapped frame points at a present PTE that points
     back, and an allocated (non-free) physical frame. *)
  for pfn = 0 to Mem.Frame_table.frames frames - 1 do
    let vpn = Mem.Frame_table.owner_vpn frames pfn in
    if vpn >= 0 then begin
      if Mem.Phys_mem.is_free mem pfn then
        add (v "frame-free" pfn "mapped frame is on the free list");
      if not (Mem.Phys_mem.is_online mem pfn) then
        add (v "frame-offline" pfn "mapped frame is offline");
      if vpn >= Mem.Page_table.pages pt then
        add (v "frame-vpn-range" pfn "owner vpn %d out of range" vpn)
      else begin
        let pte = Mem.Page_table.get pt vpn in
        if not (Mem.Pte.present pte) then
          add (v "frame-pte-absent" pfn "owner vpn %d has a non-present PTE" vpn)
        else if Mem.Pte.pfn pte <> pfn then
          add (v "frame-pte-mismatch" pfn "owner vpn %d maps pfn %d" vpn
                 (Mem.Pte.pfn pte))
      end
    end
  done;
  (* Page-table side: present PTEs own their frame; swapped PTEs name a
     live slot; the swap cache only covers resident pages. *)
  for vpn = 0 to Mem.Page_table.pages pt - 1 do
    let pte = Mem.Page_table.get pt vpn in
    if Mem.Pte.present pte && Mem.Pte.swapped pte then
      add (v "pte-state" vpn "PTE both present and swapped");
    if Mem.Pte.present pte then begin
      let pfn = Mem.Pte.pfn pte in
      if not (Mem.Phys_mem.is_online mem pfn) then
        add
          (v "pte-offline-frame" vpn "present PTE maps offline pfn %d%s" pfn
             (owning_cg vpn));
      let owner_vpn = Mem.Frame_table.owner_vpn frames pfn in
      if owner_vpn < 0 then
        add
          (v "pte-unowned-frame" vpn "present PTE maps unowned pfn %d%s" pfn
             (owning_cg vpn))
      else if owner_vpn <> vpn then
        add (v "pte-rmap-mismatch" vpn "pfn %d owned by vpn %d" pfn owner_vpn)
    end;
    if Mem.Pte.swapped pte then begin
      incr nswapped;
      let slot = Mem.Pte.swap_slot pte in
      if not (Swapdev.Swap_manager.slot_in_use swap slot) then
        add (v "pte-dead-slot" vpn "swapped PTE names freed slot %d" slot)
    end;
    let retained = Page_state.retained pages vpn in
    if retained >= 0 then begin
      incr nretained;
      if not (Mem.Pte.present pte) then
        add (v "swap-cache-nonresident" vpn "retained slot %d without a resident page"
               retained);
      if not (Swapdev.Swap_manager.slot_in_use swap retained) then
        add (v "swap-cache-dead-slot" vpn "retained slot %d is freed" retained)
    end;
    (* Ownership: a page (resident or swapped out) must never belong to
       a killed thread — the OOM killer tears down the victim's whole
       address space, swap slots and rmap entries included. *)
    (match killed with
    | None -> ()
    | Some killed ->
      let o = Page_state.owner pages vpn in
      if o >= 0 && o < Array.length killed && killed.(o) then
        add (v "owner-killed" vpn "page still owned by killed thread %d" o);
      if Mem.Pte.present pte && o < 0 then
        add (v "owner-missing" vpn "resident page has no owning thread"))
  done;
  (* Slot conservation: every live swap slot is referenced by exactly
     one swapped PTE or one swap-cache entry.  A leak (e.g. an OOM kill
     forgetting a victim's swapped pages) breaks the equality. *)
  let used_slots = Swapdev.Swap_manager.used_slots swap in
  if used_slots <> !nswapped + !nretained then
    add
      (v "count-swap-slots" used_slots
         "%d slots in use <> %d swapped PTEs + %d retained" used_slots !nswapped
         !nretained);
  (* Global accounting ties the three structures together. *)
  let mapped = Mem.Frame_table.mapped_count frames in
  let resident = Mem.Page_table.resident pt in
  (* The O(1) resident counter is maintained incrementally by
     [Page_table.set]; check it against the full-scan oracle. *)
  let resident_scan = Mem.Page_table.resident_scan pt in
  if resident <> resident_scan then
    add
      (v "count-resident-counter" resident
         "incremental resident %d <> scanned %d" resident resident_scan);
  if mapped <> resident then
    add (v "count-mapped-resident" mapped "mapped frames %d <> resident PTEs %d"
           mapped resident);
  let used = Mem.Phys_mem.used_count mem in
  if used <> mapped then
    add (v "count-used-mapped" used "allocated frames %d <> mapped frames %d" used
           mapped);
  (* Hotplug accounting: the online population, recomputed by scan, must
     match the allocator's counter, and free + used must cover exactly
     the online frames — an offlined frame is neither free nor mapped. *)
  let online_scan = ref 0 in
  for pfn = 0 to Mem.Frame_table.frames frames - 1 do
    if Mem.Phys_mem.is_online mem pfn then incr online_scan
    else begin
      if Mem.Phys_mem.is_free mem pfn then
        add (v "hotplug-offline-free" pfn "offline frame is on the free list");
      if Mem.Frame_table.is_mapped frames pfn then
        add (v "hotplug-offline-mapped" pfn "offline frame is mapped")
    end
  done;
  let online = Mem.Phys_mem.online_count mem in
  if !online_scan <> online then
    add
      (v "hotplug-online-count" online "online counter %d <> scanned %d" online
         !online_scan);
  if Mem.Phys_mem.free_count mem + used <> online then
    add
      (v "hotplug-balance" online "free %d + used %d <> online %d"
         (Mem.Phys_mem.free_count mem) used online);
  (* Cgroup accounting: recomputed per-cgroup charges must match the
     controller's counters and sum to the global resident population;
     exactly the resident pages are charged; protection never exceeds
     what the group actually uses; a dead cgroup (every thread killed)
     holds nothing. *)
  (match memcg with
  | None -> ()
  | Some mg ->
    let n = Mem.Memcg.ncgroups mg in
    let recount = Array.make n 0 in
    for vpn = 0 to Mem.Page_table.pages pt - 1 do
      let cg = Mem.Memcg.cg_of_page mg vpn in
      let present = Mem.Pte.present (Mem.Page_table.get pt vpn) in
      if cg < -1 || cg >= n then
        add (v "memcg-range" vpn "page charged to unknown cgroup %d" cg)
      else if present && cg < 0 then
        add (v "memcg-uncharged" vpn "resident page is not charged")
      else if (not present) && cg >= 0 then
        add (v "memcg-stale-charge" vpn "non-resident page charged to cgroup %d" cg)
      else if cg >= 0 then recount.(cg) <- recount.(cg) + 1
    done;
    let total = ref 0 in
    for cg = 0 to n - 1 do
      let usage = Mem.Memcg.usage mg cg in
      total := !total + usage;
      if usage <> recount.(cg) then
        add
          (v "memcg-usage" cg "cgroup charges %d pages but owns %d" usage
             recount.(cg));
      let protection = min (Mem.Memcg.low mg cg) usage in
      if protection > usage then
        add (v "memcg-protection" cg "protection %d exceeds usage %d" protection usage)
    done;
    if !total <> resident then
      add
        (v "memcg-total" !total "per-cgroup charges sum to %d <> %d resident"
           !total resident);
    (match killed with
    | None -> ()
    | Some killed ->
      for cg = 1 to n - 1 do
        let members = ref 0 and live = ref 0 in
        Array.iteri
          (fun tid k ->
            if Mem.Memcg.cg_of_thread mg tid = cg then begin
              incr members;
              if not k then incr live
            end)
          killed;
        if !members > 0 && !live = 0 && Mem.Memcg.usage mg cg > 0 then
          add
            (v "memcg-dead" cg "dead cgroup (all %d threads killed) still charges %d pages"
               !members (Mem.Memcg.usage mg cg))
      done));
  let vs = List.rev !out in
  (* Stamp every failure with the most recent chaos injection: a
     violation surfacing right after a transient names its trigger. *)
  match last_chaos with
  | None -> vs
  | Some lc ->
    List.map (fun x -> { x with detail = x.detail ^ "; last chaos: " ^ lc }) vs

let report violations =
  match violations with
  | [] -> "invariants: ok"
  | vs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "invariants: %d violation(s)\n" (List.length vs));
    List.iter
      (fun x ->
        Buffer.add_string buf
          (Printf.sprintf "  [%s] subject %d: %s\n" x.check x.subject x.detail))
      vs;
    Buffer.contents buf
