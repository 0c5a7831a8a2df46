(** Linux-style workingset (shadow entry) accounting.

    Mirrors [mm/workingset.c]: every eviction advances a machine-wide
    eviction clock and leaves a {e shadow token} — the clock snapshot
    plus whether the page's accessed bit was still set — in the evicted
    page's page-table slot ({!Page_table.set_shadow}).  When the page
    refaults, {!classify} turns the token into a refault {e distance}
    (the number of other evictions between eviction and refault) and
    the kernel's activate/restore verdicts.

    Pure counter arithmetic: no allocation after {!create}, no
    dependence on policy internals, fully deterministic.  The machine
    feeds the results to {!Obs.Vmstat} ([workingset_refault] /
    [activate] / [restore]) and the trace stream; nothing here ever
    feeds back into an eviction decision. *)

type t

val create : capacity:int -> t
(** [capacity] is the machine's memory size in frames — the activation
    threshold.  @raise Invalid_argument when non-positive. *)

(** {1 Shadow tokens} *)

val no_shadow : int
(** The absent token, [0] — what {!Page_table.shadow} returns for slots
    without one. *)

val note_eviction : t -> was_active:bool -> int
(** Advance the eviction clock and return the (non-zero) shadow token
    to store for the evicted page.  [was_active] records whether the
    page's accessed bit was set at eviction. *)

val shadow_was_active : int -> bool

(** {1 Refault classification} *)

type refault = {
  distance : int;
      (** evictions between this page's eviction and its refault *)
  activated : bool;
      (** [distance <= capacity]: an idealized LRU of the same size
          would still have held the page *)
  restored : bool;  (** the accessed bit was set when it was evicted *)
}

val classify : t -> shadow:int -> refault
(** Classify a refault from its shadow token.
    @raise Invalid_argument on {!no_shadow}. *)
