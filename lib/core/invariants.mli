(** Machine-state consistency audit.

    Cross-checks the four structures that must agree at every event
    boundary: the frame table (reverse map ground truth), the page
    table, the physical-memory allocator, and the swap-slot manager —
    plus the machine's per-page state ({!Page_state}: swap-cache slots
    and owning threads).  The audit is
    read-only and draws no randomness, so wiring it into a run at any
    cadence never perturbs simulated behaviour.

    The machine runs it after every trial and, optionally, every
    [audit_every_ns] of simulated time (see {!Machine.config}). *)

type violation = {
  check : string;  (** stable kebab-case identifier of the failed check *)
  subject : int;   (** the pfn / vpn / count the check tripped on *)
  detail : string;
}

val audit :
  last_chaos:string option ->
  memcg:Mem.Memcg.t option ->
  killed:bool array option ->
  pt:Mem.Page_table.t ->
  frames:Mem.Frame_table.t ->
  mem:Mem.Phys_mem.t ->
  swap:Swapdev.Swap_manager.t ->
  pages:Page_state.t ->
  violation list
(** Empty list = consistent.  [pages] is read in place, never copied:
    its retained slot is the machine's clean swap-cache slot for a
    resident page, or [-1], and every live swap slot must be accounted
    for by exactly one swapped PTE or swap-cache entry.

    [killed] is the per-thread killed flags; it enables the ownership
    checks against [pages]' owning threads (which survive swap-out): no
    page, resident or swapped, may still belong to a killed thread, and
    every resident page has an owner.

    [memcg] enables the cgroup audits: per-cgroup charged-page counts
    are recomputed from the page table and must match the controller
    and sum to the resident population, only resident pages carry
    charges, effective protection never exceeds usage, and a dead
    cgroup (every member thread killed) charges nothing.

    Hotplug checks run unconditionally: no PTE or reverse-map entry may
    reference an offlined frame, the allocator's online counter must
    match a full scan, and [free + used] must equal the online
    population.  [last_chaos] (the machine's most recent injection, when
    chaos is active) is appended to every failure's detail so a
    violation names its likely trigger. *)

val report : violation list -> string
(** Multi-line human-readable summary. *)
