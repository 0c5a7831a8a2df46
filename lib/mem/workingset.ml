(* Linux-style workingset (shadow entry) accounting.

   The machine owns one [t] per run: a monotonic eviction clock plus the
   memory capacity in frames.  When a page is evicted, a shadow token —
   the clock snapshot and whether the accessed bit was still set — is
   left in its page-table slot (Page_table.set_shadow); when the page
   refaults, the token is consumed and classified.

   Refault distance is the number of *other* evictions between a page's
   eviction and its refault: the snapshot is taken before the clock
   advances for the evicted page itself, and [classify] subtracts that
   eviction back out.  A distance within capacity means an idealized LRU
   of the same size would still have held the page — the kernel's
   workingset_activate condition. *)

type t = {
  capacity : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Workingset.create: capacity must be positive";
  { capacity; evictions = 0 }

(* Shadow tokens are packed, non-zero ints so they fit Page_table's
   shadow array (0 = no shadow): bit 0 marks presence, bit 1 the
   was-active flag, the rest the clock snapshot. *)

let no_shadow = 0

let note_eviction t ~was_active =
  let snap = t.evictions in
  t.evictions <- snap + 1;
  (snap lsl 2) lor (if was_active then 0b11 else 0b01)

let shadow_was_active token = token land 0b10 <> 0

let shadow_eviction token = token lsr 2

type refault = {
  distance : int;
  activated : bool;
  restored : bool;
}

let classify t ~shadow =
  if shadow = no_shadow then invalid_arg "Workingset.classify: no shadow";
  let distance = t.evictions - shadow_eviction shadow - 1 in
  {
    distance;
    activated = distance <= t.capacity;
    restored = shadow_was_active shadow;
  }
