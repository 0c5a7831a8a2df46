(** Physical frame metadata.

    One word per physical frame: which (address space, virtual page)
    owns it, packed so a reverse-map lookup reads one word.  This doubles as the reverse map; a policy that resolves a
    frame through it charges [Costs.rmap_walk_ns] per lookup. *)

type t

val create : frames:int -> t

val frames : t -> int

val set_owner : t -> pfn:int -> asid:int -> vpn:int -> unit
(** @raise Invalid_argument unless [0 <= vpn < 2^40] and
    [0 <= asid < 2^22]. *)

val clear_owner : t -> pfn:int -> unit

val owner : t -> int -> (int * int) option
(** [(asid, vpn)] of the owning mapping, if mapped. *)

val owner_asid : t -> int -> int
(** Owning address-space id, or [-1] when unmapped (allocation-free). *)

val owner_vpn : t -> int -> int
(** Owning virtual page, or [-1] when unmapped (allocation-free). *)

val is_mapped : t -> int -> bool

val mapped_count : t -> int
