(** The page table of a machine's one address space, with leaf-region
    structure.  Fleet tenants share it through [Workload.Multi]'s page
    offsets.

    The virtual address space is a flat array of PTEs grouped into
    regions of [region_size] entries (512 by default — one x86-64 leaf
    page table).  MG-LRU's aging walker iterates region by region and its
    Bloom filter is keyed by region index (paper §III-B); the eviction
    walker's spatial scan also stays within one region. *)

type t

val create : ?region_size:int -> pages:int -> unit -> t
(** [pages] virtual pages, all initially empty. *)

val pages : t -> int

val region_size : t -> int

val regions : t -> int
(** Number of leaf regions, [ceil (pages / region_size)]. *)

val get : t -> int -> Pte.t
(** @raise Invalid_argument when the vpn is out of range. *)

val set : t -> int -> Pte.t -> unit

val shadow : t -> int -> int
(** The workingset shadow token left for a vpn by the last eviction, or
    {!Workingset.no_shadow} when none.  O(1).
    @raise Invalid_argument when the vpn is out of range. *)

val set_shadow : t -> int -> int -> unit
(** Store a shadow token for a vpn (see {!Workingset.note_eviction}).
    The shadow array is allocated lazily on the first non-empty store,
    so runs that never evict pay nothing. *)

val clear_shadow : t -> int -> unit
(** [set_shadow t vpn Workingset.no_shadow]. *)

val region_of : t -> int -> int
(** Region index containing a vpn. *)

val region_bounds : t -> int -> int * int
(** [(first_vpn, last_vpn)] of a region, inclusive; the last region may
    be short. *)

val resident : t -> int
(** Number of present entries.  O(1): maintained incrementally by
    {!set}, so gauges can sample it every tick at multi-million-page
    scale. *)

val resident_scan : t -> int
(** Full O(pages) recount of present entries — the oracle
    {!Repro_core.Invariants.audit} checks the incremental counter
    against. *)

val iter_region : t -> int -> (int -> Pte.t -> unit) -> unit
(** Apply to every (vpn, pte) in a region. *)
