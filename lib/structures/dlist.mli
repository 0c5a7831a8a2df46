(** Intrusive doubly-linked lists over dense integer node ids.

    One {!t} value manages a fixed population of [nodes] (numbered
    [0 .. nodes-1]) and a fixed set of [lists] (numbered [0 .. lists-1]).
    Every node is on at most one list at a time.  All operations are O(1)
    except iteration.

    This mirrors how the Linux kernel threads page frames onto LRU lists:
    the link fields live in the frame's own slot, so moving a page between
    generations or between the active and inactive lists never allocates.
    A node's links, its list and a policy-owned {!tag} word share one
    4-word slot of one array, as a folio keeps its LRU links next to its
    flags: moving a page touches one cache line, not one per field. *)

type t

val create : nodes:int -> lists:int -> t
(** All nodes start detached (on no list). *)

val nodes : t -> int

val lists : t -> int

val list_of : t -> int -> int option
(** [list_of t node] is the list currently holding [node], if any. *)

val size : t -> int -> int
(** Number of nodes currently on the given list. *)

val is_empty : t -> int -> bool

val push_head : t -> list:int -> node:int -> unit
(** Insert at the head.  @raise Invalid_argument if [node] is already on a
    list. *)

val push_tail : t -> list:int -> node:int -> unit

val remove : t -> node:int -> unit
(** Detach [node] from its list.  No-op if already detached. *)

val move_head : t -> list:int -> node:int -> unit
(** Detach (if attached) then [push_head]. *)

val move_tail : t -> list:int -> node:int -> unit

val head : t -> int -> int option

val tail : t -> int -> int option

val pop_tail : t -> int -> int option
(** Remove and return the tail node. *)

val tail_node : t -> int -> int
(** Allocation-free {!tail}: the tail node, or [-1] when empty. *)

val pop_tail_node : t -> int -> int
(** Allocation-free {!pop_tail}: remove and return the tail node, or
    [-1] when the list is empty. *)

val next_towards_head : t -> int -> int option
(** [next_towards_head t node] is the neighbour of [node] one step closer
    to its list's head, if any. *)

val iter_from_tail : t -> list:int -> (int -> unit) -> unit
(** Iterate tail-to-head.  The callback must not mutate the list. *)

val splice_all : t -> src:int -> dst:int -> unit
(** Move every node of [src] onto the tail side of [dst], tail first:
    [src]'s tail ends nearest [dst]'s old tail and [src]'s head becomes
    [dst]'s tail, so [src]'s order is reversed.  O(length of [src]). *)

val tag : t -> int -> int
(** The node's tag: one word the owning policy keeps with the node's
    links (MG-LRU stores its generation and tier there).  [0] at
    {!create}; no list operation reads or changes it. *)

val set_tag : t -> int -> int -> unit

val check_invariants : t -> unit
(** Walk every list verifying link symmetry and size accounting.
    @raise Failure on corruption.  For tests. *)
