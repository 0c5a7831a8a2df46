(** Durable, resumable result store for experiment sweeps.

    A journal is an append-only JSONL file holding one record per
    {e completed} trial — the full {!Machine.stored} for successes, or
    the failure reason for trials that raised or hit their wall-clock
    deadline.  Because every record is appended (and fsynced) the moment
    its trial finishes, a sweep killed at any point loses at most the
    trials that were in flight: re-running with [--resume] warm-starts
    the result cache from the journal and recomputes only what is
    missing, producing output byte-identical to an uninterrupted run.

    Records are appended in completion order, which differs between
    [--jobs] settings and runs; resume reads them as a set (keyed, the
    last occurrence of a key winning), never by position.

    {b Record framing.}  Each line is one flat JSON object whose first
    field is an MD5 checksum of the rest of the line:

    {v {"sum":"<32 hex>","key":"tpch/lru/0.2/ssd/t0@<16 hex>","status":"ok",...} v}

    The checksum makes torn writes (a crash mid-append) and bit rot
    detectable per record: on load, any line that fails framing,
    checksum or schema validation is reported to stderr with its line
    number and byte offset, then skipped — a corrupt record costs one
    re-run, never the whole journal.

    {b Header.}  The first line, framed the same way, is the
    fingerprint of the run configuration the records belong to
    ({!Runner.fingerprint}: model version, fast/scale profile, fault
    plan, audit cadence, cgroup and chaos specs).  A journal is resumed
    only under an identical fingerprint.  Each record's key also names
    the configuration that produced it ({!Runner.record_key}), so the
    records of contexts derived from the root (other chaos or cgroup
    specs) are found only by contexts with those same inputs.

    {b Rotation.}  Opening a journal for resume compacts it: the valid
    records are rewritten through {!Atomic_io.replace} (temp file,
    fsync, rename), so torn tails and duplicate keys are dropped
    atomically and the segment on disk is always wholly valid before new
    appends begin.

    {b Record format.}  This module owns every byte of a record: no
    other module encodes or decodes a payload.  Scalars are JSON ints;
    the counters ([v1:] then counters and refault buckets), latencies
    (the stored {!Structures.Latencies.runs} as [value:count] text,
    e.g. ["3:1 7:2"]; [""] when empty; decoded straight back into
    runs, never into one element per request), per-thread finish times, policy
    stats ([k=v;k=v]), profile totals, cgroup summary and chaos tallies
    are JSON strings, the last three written only when present.
    Decoding is strict and total: an array of the wrong length (another
    build's counter or [memory.stat] set), a missing, extra or
    reordered key in the cgroup or chaos [k=v] lists, a malformed
    number, or latency runs that are not strictly ascending unsigned
    [value:count] pairs with counts of at least 1 (the [%h] floats an
    older build wrote have no colon) makes the record invalid, so it is
    skipped and its trial reruns.  Nothing is zero-filled, and no input
    line makes {!load}, {!open_} or {!record_of_line} raise.

    {b What is journaled.}  One rule, {!Obs.kept}: a record keeps the
    counters and, when the profiler was on, its phase totals.  Telemetry
    captures ([result.trace]), profiler spans and heatmaps are too large
    and are rebuilt by re-running: the encoding writes none of them, and
    a record's key ({!Runner.record_key}) names the kept set, so a
    context that wants them has another key than any record and
    recomputes. *)

type status =
  | Trial_ok
  | Trial_failed   (** the trial raised; [reason] holds the exception *)
  | Trial_timeout  (** the trial exceeded its wall-clock deadline *)

type record = {
  key : string;  (** injective trial and configuration key ({!Runner.record_key}) *)
  status : status;
  reason : string;  (** empty for [Trial_ok] *)
  result : Machine.stored option;
      (** [Some] exactly for [Trial_ok].  Encoding writes only what
          {!Obs.kept} keeps, so a decoded result has no [trace] or
          [heatmap] and no profiler spans *)
}

val status_name : status -> string
(** ["ok"], ["failed"] or ["timeout"] — the on-disk [status] field. *)

type t
(** An open journal.  Appends are mutex-protected and fsynced, so any
    domain may record a finished trial directly. *)

exception Mismatch of string
(** A resumed journal belongs to another run configuration; the message
    names every differing fingerprint field with both values. *)

val open_ :
  path:string -> resume:bool -> fingerprint:(string * string) list ->
  t * record list
(** [open_ ~path ~resume ~fingerprint] opens (creating if needed) the
    journal at [path] for appending and returns the surviving records.

    With [resume = true], an existing non-empty journal must carry a
    header equal to [fingerprint], else {!Mismatch} is raised and the
    file is left untouched.  Its records are loaded: invalid lines
    (torn, corrupt, or any payload the record format refuses) are
    logged to stderr and skipped, duplicate keys keep the {e last}
    occurrence (a retried trial supersedes its earlier failure), and the
    compacted segment is atomically rewritten under the header before
    the handle is returned.  With [resume = false] any existing file is replaced by
    a journal holding only the header, and the record list is empty. *)

val append : t -> record -> unit
(** Serialize, checksum, append and fsync one record.  Durable when this
    returns. *)

val close : t -> unit
(** Close the underlying channel.  Idempotent. *)

val load : path:string -> record list
(** Read-only variant of the [resume] load: the surviving records of
    [path] (empty if the file does not exist), without checking the
    header, rewriting or opening anything. *)

(**/**)

val record_to_line : record -> string
(** The exact line [append] writes (without the newline) — exposed for
    tests. *)

val record_of_line : string -> (record, string) result
(** Validate framing + checksum and decode one line; [Error] names what
    was malformed.  Never raises.  Exposed for tests. *)
