(** DAMON-style adaptive region access monitor.

    Mirrors the kernel's data-access monitor: the machine's address space
    is covered by contiguous regions that {e split} where the two halves
    disagree about access frequency and {e merge} back where adjacent
    regions look alike, keeping the per-snapshot row count within
    [[min_regions, max_regions]] regardless of footprint.  Every
    aggregation tick records one row per region — simulated time, start
    vpn, size and the exact count of present pages whose accessed bit
    is set.

    Determinism: exact counts instead of the kernel's random sampling,
    midpoint splits instead of random split points, and the accessed
    bits are read but {e never cleared} (clearing belongs to the
    policies' scanners).  The monitor draws no randomness and schedules
    nothing, so a monitored run's results are identical to an
    unmonitored one, and captures are byte-identical at any [--jobs]. *)

type config = {
  aggregate_every_ns : int;  (** snapshot cadence in simulated ns *)
  min_regions : int;         (** region floor *)
  max_regions : int;         (** region cap *)
  merge_threshold_pct : int;
      (** adjacent regions whose access percentages differ by at most
          this merge; halves that differ by more split *)
}

val default_config : config
(** 100 ms cadence, 10–100 regions, 10 % threshold. *)

type t

val create : config -> t
(** @raise Invalid_argument on a non-positive cadence or an empty
    region range. *)

val aggregate_every_ns : t -> int

val tick : t -> now:int -> pt:Page_table.t -> unit
(** Take one aggregation snapshot of [pt] and adapt the region layout
    for the next tick.  A monitor watches one page table for its whole
    life; the first tick lays its regions out. *)

(** One region snapshot row. *)
type row = {
  w_t_ns : int;
  w_start : int;
  w_pages : int;
  w_accessed : int;  (** present pages with the accessed bit set *)
}

type capture = { rows : row array (** tick order *) }

val capture : t -> capture
