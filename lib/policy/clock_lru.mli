(** Clock-LRU: the classic Linux two-list second-chance policy.

    The active list is meant to hold the working set; the inactive list
    holds eviction candidates (paper §II-B).  kswapd periodically rebalances
    by scanning accessed bits at the tail of the active list — resolving
    each physical frame to its PTE through a reverse-map walk, the cost the
    paper identifies as Clock's fundamental handicap — and reclaim scans the
    inactive tail, giving accessed pages a second chance on the active
    list.  kswapd examines 32 pages per step and keeps the inactive
    list at least half the active list's size; new pages start active,
    readahead pages inactive. *)

include Policy_intf.S

val active_size : t -> int

val inactive_size : t -> int
