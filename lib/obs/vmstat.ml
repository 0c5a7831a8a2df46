(* Deterministic /proc/vmstat-style counter registry.

   One flat int array per machine, holding every integer event counter
   the simulator keeps: incrementing a counter is one array store, so
   the hot fault/reclaim paths stay allocation-free. *)

(* Counter indices.  Order is the wire format (the journal joins
   the array in index order), so new counters append only. *)
let pgfault = 0
let pgmajfault = 1
let pgscan_kswapd = 2
let pgscan_direct = 3
let pgsteal = 4
let pgactivate = 5
let pgdeactivate = 6
let pswpin = 7
let pswpout = 8
let oom_kill = 9
let workingset_refault = 10
let workingset_activate = 11
let workingset_restore = 12
let workingset_shadow_miss = 13
let mglru_aging_passes = 14
let mglru_promoted = 15
let mglru_tier_protected = 16
let kernel_counters = 17
let minor_faults = 17
let direct_reclaims = 18
let direct_reclaim_ns = 19
let io_retries = 20
let io_remaps = 21
let injected_transient = 22
let injected_permanent = 23
let injected_stalls = 24
let injected_tail_spikes = 25
let poisoned_reads = 26
let writeback_failures = 27
let oom_discarded_pages = 28
let invariant_violations = 29
let nr_counters = 30

let names =
  [|
    "pgfault"; "pgmajfault"; "pgscan_kswapd"; "pgscan_direct"; "pgsteal";
    "pgactivate"; "pgdeactivate"; "pswpin"; "pswpout"; "oom_kill";
    "workingset_refault"; "workingset_activate"; "workingset_restore";
    "workingset_shadow_miss"; "mglru_aging_passes"; "mglru_promoted";
    "mglru_tier_protected"; "minor_faults"; "direct_reclaims";
    "direct_reclaim_ns"; "io_retries"; "io_remaps"; "injected_transient";
    "injected_permanent"; "injected_stalls"; "injected_tail_spikes";
    "poisoned_reads"; "writeback_failures"; "oom_discarded_pages";
    "invariant_violations";
  |]

let name i =
  if i < 0 || i >= nr_counters then invalid_arg "Vmstat.name";
  names.(i)

(* Refault-distance histogram: log2 buckets, bucket i holds distances in
   [2^i, 2^(i+1)), bucket 0 holds {0, 1}, the last bucket is open. *)
let dist_buckets = 24

type t = {
  c : int array;
  dist : int array;
}

let create () = { c = Array.make nr_counters 0; dist = Array.make dist_buckets 0 }

let incr t i = t.c.(i) <- t.c.(i) + 1

let add t i n = if n > 0 then t.c.(i) <- t.c.(i) + n

let get t i = t.c.(i)

let dist_bucket d =
  if d <= 1 then 0
  else begin
    let b = ref 0 in
    let d = ref d in
    while !d > 1 do
      d := !d lsr 1;
      b := !b + 1
    done;
    min !b (dist_buckets - 1)
  end

let note_refault_distance t d =
  let b = dist_bucket (max 0 d) in
  t.dist.(b) <- t.dist.(b) + 1

type capture = {
  counters : int array;
  refault_dist : int array;
}

let capture t = { counters = Array.copy t.c; refault_dist = Array.copy t.dist }

let empty_capture =
  { counters = Array.make nr_counters 0; refault_dist = Array.make dist_buckets 0 }

let merge caps =
  let counters = Array.make nr_counters 0 in
  let refault_dist = Array.make dist_buckets 0 in
  List.iter
    (fun cap ->
      Array.iteri (fun i v -> counters.(i) <- counters.(i) + v) cap.counters;
      Array.iteri
        (fun i v -> refault_dist.(i) <- refault_dist.(i) + v)
        cap.refault_dist)
    caps;
  { counters; refault_dist }

let count cap i = cap.counters.(i)

let refaults cap = Array.fold_left ( + ) 0 cap.refault_dist
