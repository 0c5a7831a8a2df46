(** Multi-Generational LRU, after Linux 6.x (paper §III).

    Pages live on one of up to [max_gens] generation lists identified by a
    monotonically increasing sequence number; [min_seq] is the oldest
    (eviction) generation and [max_seq] the youngest.  Two walkers do the
    work:

    - the {b aging} walker linearly scans page tables region by region,
      clearing accessed bits and promoting accessed pages to the youngest
      generation, then increments [max_seq] (creating a new generation)
      when the generation window is below [max_gens].  A pair of Bloom
      filters remembers which regions contained densely accessed PTEs so
      the next pass can skip the rest;
    - the {b eviction} walker pops candidates from the oldest generation,
      resolves each through the reverse map, gives accessed pages another
      generation of life, and — unlike Clock — spatially scans the
      candidate's whole page-table region, promoting its accessed
      neighbours and feeding the region back into the Bloom filter.

    File-backed pages are promoted by access {i tier} within their
    generation instead of jumping to the youngest generation, with a PID
    controller balancing tier refault rates (§III-D).

    The [scan_mode] knob reproduces the paper's variants: [Bloom] is the
    default MG-LRU; [Scan_all], [Scan_none] and [Scan_rand 0.5] are the
    §V-B configurations that disable the Bloom filter in three different
    ways.  [max_gens = 16384] reproduces {i Gen-14}. *)

type scan_mode =
  | Bloom_filtered
  | Scan_all
  | Scan_none
  | Scan_rand of float  (** scan each region with this probability *)

type config = {
  max_gens : int;               (** generation window; kernel default 4 *)
  min_gens : int;               (** eviction keeps at least this many; 2 *)
  scan_mode : scan_mode;
  bloom_bits : int;
  bloom_hashes : int;
  bloom_density_shift : int;
      (** a region enters the filter when it has at least
          [region_size lsr shift] accessed PTEs; 3 matches the kernel's
          "one accessed PTE per cache line" *)
  tiers : int;                  (** access tiers, at least 1; 4 *)
  tier_protection : bool;       (** enable the PID-driven tier shield *)
  evict_batch : int;            (** candidates per kswapd step *)
  aging_regions_per_step : int; (** regions walked per aging step *)
  spatial_scan : bool;          (** eviction-side neighbourhood scan *)
}

val default_config : config

val gen14_config : config
(** [default_config] with [max_gens = 16384] (the paper's Gen-14). *)

val with_mode : scan_mode -> config -> config

include Policy_intf.S

val create_with : ?config:config -> Policy_intf.env -> t

val max_seq : t -> int

val min_seq : t -> int

val nr_gens : t -> int

val gen_size : t -> int -> int
(** Population of the generation with the given sequence number. *)
