(** Precomputed per-thread step sequences.

    PageRank and [Trace] unfold into a fixed per-trial schedule of
    chunks and barriers at creation time; this cursor structure replays
    one sequence per thread.  (TPC-H draws its steps one stage at a time
    instead, as its threads reach them.) *)

type t

val create : Chunk.step array array -> t
(** One step array per thread.  A [Finished] sentinel is implicit at the
    end of each array. *)

val threads : t -> int

val next : t -> tid:int -> Chunk.step

val remaining : t -> tid:int -> int
