type t = {
  pte_scan_ns : int;
  rmap_walk_ns : int;
  bloom_query_ns : int;
  bloom_update_ns : int;
  list_op_ns : int;
  fault_trap_ns : int;
  region_size : int;
  spatial_scan_max : int;
  barrier_ns : int;
  hook_dispatch_ns : int; (* guest-hook call overhead (Policy_hooks V1) *)
}

let default =
  {
    pte_scan_ns = 2;
    rmap_walk_ns = 1500;
    bloom_query_ns = 40;
    bloom_update_ns = 60;
    list_op_ns = 30;
    fault_trap_ns = 2500;
    region_size = 512;
    spatial_scan_max = 512;
    barrier_ns = 5_000;
    (* A restricted guest call prices like an eBPF program invocation:
       trampoline + bounds checks, well under a rmap walk but far from
       free once multiplied by every fault and access sample. *)
    hook_dispatch_ns = 80;
  }

let scaled ?(factor = 256) t =
  {
    t with
    pte_scan_ns = t.pte_scan_ns * factor;
    (* Reverse-map walks batch several mappings per folio lock in
       practice, so their effective per-page cost scales at half the
       factor of raw PTE scans. *)
    rmap_walk_ns = t.rmap_walk_ns * factor / 2;
    bloom_query_ns = t.bloom_query_ns * factor;
    bloom_update_ns = t.bloom_update_ns * factor;
    list_op_ns = t.list_op_ns * factor;
    fault_trap_ns = t.fault_trap_ns * 20;
    hook_dispatch_ns = t.hook_dispatch_ns * factor;
  }

let experiment ~scale =
  let leaf = min 512 (64 * scale) in
  scaled ~factor:(max 1 (256 / scale))
    { default with region_size = leaf; spatial_scan_max = leaf }
