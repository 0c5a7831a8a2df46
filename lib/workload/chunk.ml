(** The access-granularity contract between workloads and the machine.

    Workloads emit {e chunks} — batches of page touches plus attached
    compute — rather than individual references, so trials with hundreds
    of thousands of faults simulate in well under a second.  The machine
    touches each page (setting PTE accessed/dirty bits), services faults
    through the swap device, and charges the chunk's compute through the
    contention model.

    A thread's stream is a sequence of {!step}s: [Chunk] to execute,
    [Barrier] to rendezvous with every other thread of the workload (how
    PageRank iterations and Spark stages synchronize), [Finished] when
    the thread is done.

    A chunk's page array belongs to the workload and is valid only until
    the next {!WORKLOAD.next} call for the same thread: YCSB rewrites one
    array per thread for every request.  Every consumer (the thread
    driver, both machines' segment hooks, [Regret.reference_trace]) reads
    a chunk's pages before it asks for that thread's next step, and one
    that keeps pages longer copies them ([Multi] shifts them into a fresh
    array). *)

type pages =
  | Range of { start : int; len : int }
      (** the [len] contiguous pages from [start] *)
  | Pages of int array  (** explicit page list, touched in order *)

type t = {
  pages : pages;
  write : bool;        (** touches set the dirty bit *)
  read_prefix : int;   (** this many leading pages stay read-only even
                           when [write] is set (e.g. an index page
                           consulted before an in-place update) *)
  cpu_ns : int;        (** compute attached to this chunk *)
  latency_class : int; (** [-1]: not a request; [0]: read request;
                           [1]: write request — the machine records the
                           chunk's latency under this class *)
}

type step =
  | Chunk of t
  | Barrier
  | Finished

let read_class = 0
let write_class = 1

let chunk ?(write = false) ?(read_prefix = 0) ?(cpu_ns = 0) ?(latency_class = -1) pages =
  { pages; write; read_prefix; cpu_ns; latency_class }

let page_count = function
  | Range { len; _ } -> len
  | Pages a -> Array.length a

(* The [i]th page of a chunk's page set. *)
let page_at pages i =
  match pages with
  | Range { start; _ } -> start + i
  | Pages a -> a.(i)

let iter_pages f = function
  | Range { start; len } ->
    for p = start to start + len - 1 do
      f p
    done
  | Pages a -> Array.iter f a

(** A workload drives [threads] concurrent streams over a virtual
    address space of [footprint_pages] pages. *)
module type WORKLOAD = sig
  type t

  val workload_name : string

  val threads : t -> int

  val footprint_pages : t -> int

  val page_klass : t -> int -> Swapdev.Compress.klass
  (** Compressibility class of a page, for ZRAM modelling. *)

  val file_backed : t -> int -> bool
  (** Whether a page belongs to the page cache (drives MG-LRU's tier
      logic).  The paper's workloads are effectively anonymous-only. *)

  val next : t -> tid:int -> step
  (** Produce thread [tid]'s next step.  Must be called again only after
      the machine finishes the previous step (or the barrier clears). *)
end

type packed = Packed : (module WORKLOAD with type t = 'a) * 'a -> packed

let packed_name (Packed ((module W), _)) = W.workload_name

let packed_threads (Packed ((module W), w)) = W.threads w

let packed_footprint (Packed ((module W), w)) = W.footprint_pages w

let packed_klass (Packed ((module W), w)) page = W.page_klass w page

let packed_file_backed (Packed ((module W), w)) page = W.file_backed w page

let packed_next (Packed ((module W), w)) ~tid = W.next w ~tid
