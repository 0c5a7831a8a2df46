(** Swap-slot management over a device, with fault recovery.

    Allocates slots for swapped-out pages, remembers each slot's
    compressed-size fraction (relevant for ZRAM service time and pool
    accounting), and forwards the I/O to the underlying device.

    Slots survive {!swap_in_slot} — the machine keeps them as a swap
    cache so clean pages can be evicted again without a writeback (as
    the kernel does) — and are freed explicitly with {!release}.

    Device errors (see {!Device.status}) are absorbed here: transient
    errors are retried with exponential backoff in simulated time, a
    permanent write error remaps the page to a fresh slot, and a
    permanent read error (or transient retries exhausted) surfaces as
    {!last_failed} so the machine can poison the page.  The [last_*]
    getters aggregate the timing and CPU of every attempt. *)

type t

val create :
  ?max_retries:int -> ?backoff_ns:int -> ?obs:Obs.t -> ?vmstat:Obs.Vmstat.t ->
  device:Device.t -> seed:int -> unit -> t
(** [max_retries] (default 4) bounds resubmissions per operation;
    [backoff_ns] (default 100 µs) is the base of the exponential
    backoff, doubling per attempt.  [obs] (default {!Obs.disabled})
    receives one [Swap_read]/[Swap_write] event per logical operation,
    stamped with the submission time and carrying the whole-operation
    latency including retries and backoff.  [vmstat] (default: a private
    registry) counts [pswpin]/[pswpout] per successful read/write,
    [io_retries] per resubmission and [io_remaps] per write moved off a
    bad slot. *)

val swap_out_slot : t -> now:int -> klass:Compress.klass -> page_key:int -> int
(** Allocate a slot and write the page, returning the slot.  [-1] means
    the write failed permanently even after retries and remapping — no
    slot holds the page, and the caller must keep it resident.  The
    outcome of the operation is read back through the [last_*] getters,
    valid until the next operation on this manager. *)

val swap_in_slot : t -> now:int -> slot:int -> unit
(** Read a slot's page back; the slot stays allocated (swap cache).
    {!last_failed} means the data is unrecoverable: the caller should
    {!release} the slot and poison the page.
    @raise Invalid_argument on a slot not currently in use. *)

(** {2 Outcome of the last operation} *)

val last_finish_ns : t -> int
(** When the final attempt resolved. *)

val last_cpu_ns : t -> int
(** Host CPU summed over all attempts. *)

val last_io_retries : t -> int
(** Resubmissions performed. *)

val last_failed : t -> bool
(** Gave up: data unwritten (writes) or lost (reads). *)

val release : t -> slot:int -> unit
(** Free a slot without I/O (page dirtied or address space torn down).
    @raise Invalid_argument on a slot not currently in use. *)

val slot_in_use : t -> int -> bool

val used_slots : t -> int

val peak_slots : t -> int

val compressed_bytes : t -> float
(** Current compressed pool size assuming 4 KB pages; meaningful for
    ZRAM-style devices. *)
