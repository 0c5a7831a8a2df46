(** Physical frame metadata.

    One word per physical frame: the virtual page that owns it.  This
    doubles as the reverse map; a policy that resolves a frame through
    it charges [Costs.rmap_walk_ns] per lookup. *)

type t

val create : frames:int -> t

val frames : t -> int

val set_owner : t -> pfn:int -> vpn:int -> unit
(** @raise Invalid_argument unless [vpn >= 0]. *)

val clear_owner : t -> pfn:int -> unit

val owner_vpn : t -> int -> int
(** Owning virtual page, or [-1] when unmapped (allocation-free). *)

val is_mapped : t -> int -> bool

val mapped_count : t -> int
