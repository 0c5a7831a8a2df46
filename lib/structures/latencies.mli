(** Request latencies in a flat float array, doubled when full.

    [push] takes integer nanoseconds and converts at the store, so no
    boxed float crosses the call and a request costs no allocation
    between growths. *)

type t

val create : unit -> t
(** An empty buffer with room for 1024 latencies. *)

val push : t -> int -> unit

val to_array : t -> float array
(** A fresh copy of the stored latencies, oldest first. *)
