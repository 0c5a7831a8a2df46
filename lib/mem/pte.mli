(** Page table entries as packed integers.

    Layout (one OCaml int per PTE):
    - bit 0: present (mapped to a physical frame)
    - bit 1: accessed — set by simulated hardware on every touch, cleared
      by policy scans, exactly like the x86 A bit the paper's policies
      consume (§II-A)
    - bit 2: dirty
    - bit 3: file-backed (page cache rather than anonymous)
    - bit 4: swapped (contents live in a swap slot)
    - bits 8+: payload — the physical frame number while present, the
      swap slot while swapped

    A PTE that is neither present nor swapped has never been populated:
    touching it is a zero-fill minor fault with no device I/O. *)

type t = int

val empty : t

val present : t -> bool

val accessed : t -> bool

val dirty : t -> bool

val file_backed : t -> bool

val swapped : t -> bool

val pfn : t -> int
(** @raise Invalid_argument when not present. *)

val swap_slot : t -> int
(** @raise Invalid_argument when not swapped. *)

val mapped : pfn:int -> file_backed:bool -> t
(** Fresh present entry, accessed and dirty clear. *)

val set_accessed : t -> t

val clear_accessed : t -> t

val set_dirty : t -> t

val clear_dirty : t -> t

val to_swapped : t -> slot:int -> t
(** Unmap a present entry, recording its swap slot.  Keeps the
    file-backed flag; clears accessed/dirty. *)

val to_mapped : t -> pfn:int -> t
(** Map a swapped (or empty) entry to a frame.  Keeps the file-backed
    flag; accessed/dirty start clear. *)
