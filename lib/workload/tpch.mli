(** TPC-H-like analytics on a Spark-SQL-style stage engine (paper §IV).

    Queries decompose into barrier-separated stages of balanced parallel
    tasks — the execution structure the paper credits for TPC-H's tight
    faults↔runtime coupling: work per thread is nearly equal and
    synchronization is cheap, so total fault time divides evenly across
    threads and runtime tracks the fault count linearly (§V-A).

    Memory layout: [table | hash | scratch].  Each query scans a random
    contiguous window of the columnar table; {e build} stages write a
    hash region partition, {e probe} stages re-scan while reading hashed
    pages, and a short {e aggregate} stage touches scratch.

    Each thread's steps are drawn one stage at a time, as the thread
    reaches the stage, from the thread's own generator: the draws are
    the ones a whole script built up front would make, and a workload
    holds one stage's steps per thread.

    Scaled 1/256 from the paper's 12–16 GB footprint. *)

type config = {
  table_pages : int;
  shuffle_pages : int;     (** intermediate (shuffle/sort) region *)
  hash_pages : int;        (** join hash-table region *)
  threads : int;
  queries : int;
  scan_chunk_pages : int;  (** pages per sequential scan chunk *)
  cpu_per_page_ns : int;   (** compute per scanned page *)
  probe_batch : int;       (** hash pages touched per interleaved chunk *)
  window_min : float;      (** min fraction of the table a query scans *)
  hash_skew : float;       (** zipf exponent of probe targets *)
  sort_passes : int;       (** passes over the shuffle partition per sort *)
  dimension_pages : int;   (** dimension tables at the front of the table
                               region, zipf-probed by every stage *)
}

val default_config : config
(** 7 000 table pages + 4 500 shuffle + 2 000 hash (~13.5 k pages,
    ≈53 MB), 12 threads, 6 queries. *)

include Chunk.WORKLOAD

val create : ?config:config -> rng:Engine.Rng.t -> unit -> t

val hash_base : t -> int

val shuffle_base : t -> int
