(** Miniature machine for exercising policies without the full
    simulator: one page table, a frame allocator, and a reclaim callback
    that unmaps and frees exactly like the real machine (minus I/O). *)

type world = {
  mutable env : Policy.Policy_intf.env;
  pt : Mem.Page_table.t;
  frames : Mem.Frame_table.t;
  mem : Mem.Phys_mem.t;
  mutable now_ns : int;
  mutable reclaimed : int list; (* pfn, most recent first *)
  mutable reclaimed_vpns : int list;
  mutable next_slot : int;
}

let make_world ?(frames = 64) ?(pages = 256) ?(region_size = 16)
    ?(file_backed = fun _ -> false) ?(seed = 42) () =
  let pt = Mem.Page_table.create ~region_size ~pages () in
  let ft = Mem.Frame_table.create ~frames in
  let mem = Mem.Phys_mem.create ~frames () in
  (* A throwaway env fills the field until the real one (whose closures
     capture [world]) replaces it below. *)
  let dummy_env =
    {
      Policy.Policy_intf.costs = Mem.Costs.default;
      frames = ft;
      pt;
      rng = Engine.Rng.create seed;
      now = (fun () -> 0);
      reclaim_page = (fun ~pfn:_ -> ());
      evictable = (fun ~pfn:_ ~force:_ -> true);
      free_count = (fun () -> 0);
      total_frames = frames;
      low_watermark = 0;
      high_watermark = 0;
      obs = Obs.disabled;
      prof = Obs.Prof.disabled;
      vmstat = Obs.Vmstat.create ();
    }
  in
  let world =
    {
      env = dummy_env;
      pt;
      frames = ft;
      mem;
      now_ns = 0;
      reclaimed = [];
      reclaimed_vpns = [];
      next_slot = 0;
    }
  in
  let reclaim_page ~pfn =
    let vpn = Mem.Frame_table.owner_vpn ft pfn in
    if vpn >= 0 then begin
      let pte = Mem.Page_table.get pt vpn in
      if Mem.Pte.present pte then begin
        let slot = world.next_slot in
        world.next_slot <- slot + 1;
        Mem.Page_table.set pt vpn (Mem.Pte.to_swapped pte ~slot);
        Mem.Frame_table.clear_owner ft ~pfn;
        Mem.Phys_mem.free mem pfn;
        world.reclaimed <- pfn :: world.reclaimed;
        world.reclaimed_vpns <- vpn :: world.reclaimed_vpns
      end
    end
  in
  let env =
    {
      Policy.Policy_intf.costs =
        { Mem.Costs.default with region_size; spatial_scan_max = region_size };
      frames = ft;
      pt;
      rng = Engine.Rng.create seed;
      now = (fun () -> world.now_ns);
      reclaim_page;
      evictable = (fun ~pfn:_ ~force:_ -> true);
      free_count = (fun () -> Mem.Phys_mem.free_count mem);
      total_frames = frames;
      low_watermark = Mem.Phys_mem.low_watermark mem;
      high_watermark = Mem.Phys_mem.high_watermark mem;
      obs = Obs.disabled;
      prof = Obs.Prof.disabled;
      vmstat = Obs.Vmstat.create ();
    }
  in
  ignore file_backed;
  world.env <- env;
  world

(* Fault a page in through the policy, like the machine's fault path.
   Returns the pfn used. *)
let map_page world (Policy.Policy_intf.Packed ((module P), p)) ?(write = false)
    ?(speculative = false) ?(file_backed = false) vpn =
  let pfn =
    match Mem.Phys_mem.alloc world.mem with
    | Some pfn -> pfn
    | None ->
      let stats = P.direct_reclaim p ~want:1 in
      if stats.Policy.Policy_intf.freed = 0 then failwith "harness: reclaim failed";
      (match Mem.Phys_mem.alloc world.mem with
      | Some pfn -> pfn
      | None -> failwith "harness: allocation failed after reclaim")
  in
  let old = Mem.Page_table.get world.pt vpn in
  let refault = Mem.Pte.swapped old in
  Mem.Frame_table.set_owner world.frames ~pfn ~vpn;
  let pte = Mem.Pte.mapped ~pfn ~file_backed in
  let pte = if speculative then pte else Mem.Pte.set_accessed pte in
  let pte = if write then Mem.Pte.set_dirty pte else pte in
  Mem.Page_table.set world.pt vpn pte;
  P.on_page_mapped p ~pfn ~vpn ~refault ~file_backed ~speculative;
  if not speculative then P.on_page_touched p ~pfn ~write;
  pfn

(* Set the accessed (and optionally dirty) bit like the hardware. *)
let touch world (Policy.Policy_intf.Packed ((module P), p)) ?(write = false) vpn =
  let pte = Mem.Page_table.get world.pt vpn in
  if not (Mem.Pte.present pte) then invalid_arg "harness.touch: page not present";
  let pte = Mem.Pte.set_accessed pte in
  let pte = if write then Mem.Pte.set_dirty pte else pte in
  Mem.Page_table.set world.pt vpn pte;
  P.on_page_touched p ~pfn:(Mem.Pte.pfn pte) ~write

let advance world ns = world.now_ns <- world.now_ns + ns

(* Run every kernel thread until all report sleep (bounded). *)
let run_kthreads world (Policy.Policy_intf.Packed ((module P), p)) =
  let kthreads = P.kthreads p in
  let budget = ref 100_000 in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    continue_ := false;
    List.iter
      (fun kt ->
        match kt.Policy.Policy_intf.kstep () with
        | Policy.Policy_intf.Work w ->
          advance world (max w 1);
          continue_ := true
        | Policy.Policy_intf.Sleep _ | Policy.Policy_intf.Sleep_until_woken -> ())
      kthreads;
    decr budget
  done

let resident world = Mem.Page_table.resident world.pt
