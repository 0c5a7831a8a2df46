type status = Trial_ok | Trial_failed | Trial_timeout

type record = {
  key : string;
  status : status;
  reason : string;
  result : Machine.result option;
}

let status_name = function
  | Trial_ok -> "ok"
  | Trial_failed -> "failed"
  | Trial_timeout -> "timeout"

let status_of_name = function
  | "ok" -> Some Trial_ok
  | "failed" -> Some Trial_failed
  | "timeout" -> Some Trial_timeout
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Result (de)serialization.  Scalars are JSON ints; arrays are space- *)
(* joined strings — floats in %h (hex) form so latencies round-trip    *)
(* bit-exactly and a resumed sweep stays byte-identical to an          *)
(* uninterrupted one.  policy_stats keys are identifier-like by        *)
(* convention, so "k=v;k=v" needs no quoting.                          *)
(* ------------------------------------------------------------------ *)

let floats_to_s a =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a))

let floats_of_s s =
  if s = "" then [||]
  else Array.of_list (List.map float_of_string (String.split_on_char ' ' s))

let ints_to_s a = String.concat " " (List.map string_of_int (Array.to_list a))

let ints_of_s s =
  if s = "" then [||]
  else Array.of_list (List.map int_of_string (String.split_on_char ' ' s))

let stats_to_s l =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

let stats_of_s s =
  if s = "" then []
  else
    List.map
      (fun kv ->
        let i = String.index kv '=' in
        ( String.sub kv 0 i,
          int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char ';' s)

let result_fields (r : Machine.result) =
  [
    ("runtime_ns", Obs.Int r.runtime_ns);
    ("counters", Obs.Str (Obs.Vmstat.encode_capture r.counters));
    ("read_latencies", Obs.Str (floats_to_s r.read_latencies));
    ("write_latencies", Obs.Str (floats_to_s r.write_latencies));
    ("per_thread_finish", Obs.Str (ints_to_s r.per_thread_finish));
    ("cpu_busy_ns", Obs.Int r.cpu_busy_ns);
    ("policy_stats", Obs.Str (stats_to_s r.policy_stats));
    ("policy_name", Obs.Str r.policy_name);
    ("resident_at_end", Obs.Int r.resident_at_end);
  ]
  (* Only what [Obs.kept] keeps is written: the counters above, and the
     phase totals below (without spans), emitted only when present so
     profiler-off journals stay byte-identical to builds without the
     profiler.  No trace, samples or heatmap. *)
  @ (match r.profile with
    | None -> []
    | Some cap -> [ ("profile", Obs.Str (Obs.Prof.encode_capture cap)) ])
  (* Same pattern for the cgroup summary: absent without [--cgroups]. *)
  @ (match r.memcg with
    | None -> []
    | Some s -> [ ("cgroups", Obs.Str (Mem.Memcg.summary_to_string s)) ])
  (* And for the chaos tallies: absent without [--chaos]. *)
  @ (match r.chaos with
    | None -> []
    | Some s -> [ ("chaos", Obs.Str (Chaos.summary_to_string s)) ])

exception Decode of string

let req fields name =
  match Obs.field fields name with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "missing field %S" name))

let req_int fields name =
  match Obs.field_int fields name with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "missing int field %S" name))

let req_str fields name =
  match req fields name with
  | Obs.Str s -> s
  | _ -> raise (Decode (Printf.sprintf "field %S is not a string" name))

(* A capture with fewer counters than this build's would read the
   missing ones as zero: the record is invalid, and its trial reruns. *)
let result_of_fields fields : Machine.result =
  let int = req_int fields and str = req_str fields in
  let counters =
    match Obs.Vmstat.decode_capture (str "counters") with
    | cap when Obs.Vmstat.complete cap -> cap
    | _ -> raise (Decode "counters from a build with a different counter set")
    | exception Failure msg -> raise (Decode msg)
  in
  {
    runtime_ns = int "runtime_ns";
    major_faults = Obs.Vmstat.count counters Obs.Vmstat.pgmajfault;
    minor_faults = Obs.Vmstat.count counters Obs.Vmstat.minor_faults;
    read_latencies = floats_of_s (str "read_latencies");
    write_latencies = floats_of_s (str "write_latencies");
    per_thread_finish = ints_of_s (str "per_thread_finish");
    cpu_busy_ns = int "cpu_busy_ns";
    policy_stats = stats_of_s (str "policy_stats");
    policy_name = str "policy_name";
    resident_at_end = int "resident_at_end";
    counters;
    memcg =
      (match Obs.field_string fields "cgroups" with
      | None -> None
      | Some s -> (
        match Mem.Memcg.summary_of_string s with
        | Some _ as sm -> sm
        | None -> raise (Decode "malformed cgroups summary")));
    chaos =
      (match Obs.field_string fields "chaos" with
      | None -> None
      | Some s -> (
        match Chaos.summary_of_string s with
        | Some _ as cs -> cs
        | None -> raise (Decode "malformed chaos summary")));
    trace = None;
    profile =
      (match Obs.field_string fields "profile" with
      | None -> None
      | Some s -> (
        try Some (Obs.Prof.decode_capture s)
        with Failure msg -> raise (Decode msg)));
    heatmap = None;
  }

(* ------------------------------------------------------------------ *)
(* Line framing: {"sum":"<32 hex md5>",<payload>  where the digest     *)
(* covers everything after the 42-byte prefix.  The whole line is      *)
(* still one flat JSON object, so Obs.parse_line reads it unchanged.   *)
(* ------------------------------------------------------------------ *)

let frame_prefix = "{\"sum\":\""
let frame_prefix_len = String.length frame_prefix (* 8 *)
let digest_hex_len = 32
let payload_start = frame_prefix_len + digest_hex_len + 2 (* quote+comma = 42 *)

let frame fields =
  let obj = Obs.json_object fields in
  (* Drop the opening brace: the frame supplies it ahead of "sum". *)
  let payload = String.sub obj 1 (String.length obj - 1) in
  let sum = Digest.to_hex (Digest.string payload) in
  String.concat "" [ frame_prefix; sum; "\","; payload ]

let unframe line =
  let len = String.length line in
  if len <= payload_start then Error "truncated record (framing)"
  else if
    String.sub line 0 frame_prefix_len <> frame_prefix
    || line.[payload_start - 2] <> '"'
    || line.[payload_start - 1] <> ','
  then Error "malformed checksum framing"
  else
    let sum = String.sub line frame_prefix_len digest_hex_len in
    let payload = String.sub line payload_start (len - payload_start) in
    if Digest.to_hex (Digest.string payload) <> String.lowercase_ascii sum then
      Error "checksum mismatch (torn or corrupt record)"
    else Ok payload

let record_to_line r =
  frame
    (("key", Obs.Str r.key)
    :: ("status", Obs.Str (status_name r.status))
    :: ("reason", Obs.Str r.reason)
    :: (match r.result with Some res -> result_fields res | None -> []))

let record_of_line line =
  match unframe line with
  | Error _ as e -> e
  | Ok _ -> (
    match Obs.parse_line line with
    | Error e -> Error e
    | Ok fields -> (
      try
        let key = req_str fields "key" in
        let status =
          match status_of_name (req_str fields "status") with
          | Some s -> s
          | None -> raise (Decode "unknown status")
        in
        let reason = req_str fields "reason" in
        let result =
          match status with
          | Trial_ok -> Some (result_of_fields fields)
          | Trial_failed | Trial_timeout -> None
        in
        Ok { key; status; reason; result }
      with Decode msg -> Error msg))

(* ------------------------------------------------------------------ *)
(* Header: the first line, framed like a record, holds the fingerprint *)
(* of the run configuration that produced every record below it.      *)
(* ------------------------------------------------------------------ *)

let header_tag = ("journal", Obs.Str "header")

let header_to_line fingerprint =
  frame (header_tag :: List.map (fun (k, v) -> (k, Obs.Str v)) fingerprint)

let header_of_line line =
  match (unframe line, Obs.parse_line line) with
  | Ok _, Ok (_sum :: tag :: fields) when tag = header_tag ->
    Some (List.map (function k, Obs.Str v -> (k, v) | k, _ -> (k, "?")) fields)
  | _ -> None

exception Mismatch of string

(* Refuse a missing header, or one naming another run configuration:
   list every differing field with both values. *)
let check_header ~path ~fingerprint header =
  let refuse why =
    raise (Mismatch (Printf.sprintf "journal %s %s; refusing to resume" path why))
  in
  match header with
  | None -> refuse "has no run-configuration header (written by an older build)"
  | Some header -> (
    let value fp k = Option.value (List.assoc_opt k fp) ~default:"absent" in
    let keys = List.sort_uniq compare (List.map fst (header @ fingerprint)) in
    match List.filter (fun k -> value header k <> value fingerprint k) keys with
    | [] -> ()
    | differ ->
      refuse
        ("was written under another run configuration: "
        ^ String.concat "; "
            (List.map
               (fun k ->
                 Printf.sprintf "%s (journal %s, this run %s)" k (value header k)
                   (value fingerprint k))
               differ)))

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

(* Last occurrence of a key wins: a resumed run's retry of a previously
   failed trial supersedes the failure record. *)
let dedup_last records =
  let seen = Hashtbl.create 64 in
  List.rev
    (List.filter
       (fun r ->
         if Hashtbl.mem seen r.key then false
         else begin
           Hashtbl.add seen r.key ();
           true
         end)
       (List.rev records))

let load ~path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let records = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lineno = ref 0 in
        let offset = ref 0 in
        try
          while true do
            let line = input_line ic in
            incr lineno;
            (match record_of_line line with
            | Ok r -> records := r :: !records
            | Error _ when !lineno = 1 && header_of_line line <> None -> ()
            | Error msg ->
              Printf.eprintf
                "journal: %s: skipping invalid record at line %d (byte \
                 offset %d): %s\n\
                 %!"
                path !lineno !offset msg);
            offset := !offset + String.length line + 1
          done
        with End_of_file -> ());
    dedup_last (List.rev !records)
  end

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

type t = { oc : out_channel; lock : Mutex.t; mutable closed : bool }

let open_ ~path ~resume ~fingerprint =
  let first =
    if resume && Sys.file_exists path then
      In_channel.with_open_bin path In_channel.input_line
    else None
  in
  (* A missing or empty file has nothing to resume: start it afresh. *)
  let records =
    match first with
    | None -> []
    | Some line ->
      check_header ~path ~fingerprint (header_of_line line);
      load ~path
  in
  (* Rewrite the compacted segment atomically, then append to it: the
     file on disk is wholly valid (no torn tail, no duplicates) from the
     first new append on.  A fresh / non-resume open writes a segment
     holding only the header, replacing any previous journal. *)
  Atomic_io.replace ~path (fun oc ->
      output_string oc (header_to_line fingerprint);
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (record_to_line r);
          output_char oc '\n')
        records);
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  ({ oc; lock = Mutex.create (); closed = false }, records)

let append t r =
  let line = record_to_line r in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      Atomic_io.fsync_out t.oc)

let close t =
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    close_out_noerr t.oc
  end;
  Mutex.unlock t.lock
