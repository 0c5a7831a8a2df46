(** The machine's per-page state, one word per virtual page: the clean
    swap-cache slot a resident page keeps ([-1] for none), the thread
    that faulted it in ([-1] once unmapped), the thread that owns it
    (which survives swap-out, so the OOM killer can release a victim's
    swap slots too; [-1] for none), and two flags: pinned (writeback
    failed for good, so the page cannot leave memory) and
    readahead-pending (speculatively read and not touched yet).

    A fault or an eviction reads and writes several of these for one
    page; packing them into one word costs one load where one array per
    field cost one cache line each.  A thread id or slot outside
    [-1 .. max_tid] or [-1 .. max_slot] does not fit and raises
    [Invalid_argument]. *)

type t

val max_tid : int
(** The largest thread id a page can record: 65 534. *)

val max_slot : int
(** The largest swap slot a page can retain: 2{^29} - 2. *)

val create : pages:int -> t
(** Every page starts with no slot, no threads and no flags. *)

val retained : t -> int -> int

val set_retained : t -> int -> int -> unit

val faulted_by : t -> int -> int

val set_faulted_by : t -> int -> int -> unit

val owner : t -> int -> int

val set_owner : t -> int -> int -> unit

val pinned : t -> int -> bool

val set_pinned : t -> int -> bool -> unit

val ra_pending : t -> int -> bool

val set_ra_pending : t -> int -> bool -> unit
