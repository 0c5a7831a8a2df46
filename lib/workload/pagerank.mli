(** PageRank over a synthetic power-law graph (GAP-style, paper §IV).

    Pull-based iterations: each thread owns contiguous vertex blocks; a
    block's work streams its CSR slice, gathers the source ranks of its
    in-neighbours (irregular reads into the rank array), and writes its
    destination ranks.  An iteration ends with a global barrier, so an
    iteration's duration is the {e maximum} over threads — faults on the
    critical (high-degree) thread hurt disproportionately, the paper's
    explanation for PageRank's fault/runtime decoupling.

    Source and destination rank arrays swap roles every iteration.

    Layout: [offsets | neighbours | rank A | rank B].  Plans (block →
    pages touched) are cached per [(config, seed)] so the 25 trials of a
    configuration rebuild nothing.  A plan holds only what the step
    streams read: each block's edge count, CSR and offset pages, and
    gathered rank pages.  The {!Graph.t} is built for the plan and then
    dropped, so the cache retains about 0.3 MB per seed at [--fast] and
    1.9 MB at the default profile (the graph would pin 9.7 and 39.6 MB). *)

type config = {
  graph : Graph.config;
  threads : int;
  iterations : int;
  block_vertices : int;
  cpu_per_edge_ns : int;
  rank_bytes : int;
  edge_bytes : int;
  page_bytes : int;
}

val default_config : config
(** 524 288 vertices, ~4.2 M edges, 12 threads, 10 iterations:
    a ~11.5 k-page (≈45 MB at 4 KB) footprint — the paper's 12–16 GB
    scaled by 1/256. *)

include Chunk.WORKLOAD

val create : ?config:config -> seed:int -> unit -> t

val rank_pages : t -> int
(** Pages of one rank array. *)
