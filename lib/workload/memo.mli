(** A bounded table of immutable values built from a key, shared by
    every domain of the parallel trial engine.

    Only the table is locked.  A missing value is built outside the
    lock, so two domains may build the same one once each; the build
    must be deterministic, and the first insert wins.  When the table
    holds [bound] values, the next insert empties it first: callers
    reuse a small set of keys. *)

type ('k, 'v) t

val create : bound:int -> ('k, 'v) t

val find_or_build : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value cached for the key, or [build ()] cached under it. *)
