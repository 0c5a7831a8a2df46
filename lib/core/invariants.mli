(** Machine-state consistency audit.

    Cross-checks the four structures that must agree at every event
    boundary: the frame table (reverse map ground truth), the page
    table, the physical-memory allocator, and the swap-slot manager —
    plus the machine's swap-cache array ([retained_slot]).  The audit is
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
  owners:(int array * bool array) option ->
  pt:Mem.Page_table.t ->
  frames:Mem.Frame_table.t ->
  mem:Mem.Phys_mem.t ->
  swap:Swapdev.Swap_manager.t ->
  retained_slot:int array ->
  violation list
(** Empty list = consistent.  [retained_slot.(vpn)] is the machine's
    clean swap-cache slot for a resident page, or [-1].

    [owners] is [(owner_tid, killed)]: per-vpn owning thread (surviving
    swap-out) and the per-thread killed flags; enables the OOM-teardown
    checks — no page, resident or swapped, may still belong to a killed
    thread, and every live swap slot must be accounted for by exactly
    one swapped PTE or swap-cache entry.

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
