type status = Trial_ok | Trial_failed | Trial_timeout

type record = {
  key : string;
  status : status;
  reason : string;
  result : Machine.stored option;
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
(* Record format.  This section owns every byte of a record's payload. *)
(* Scalars are JSON ints; everything else is a JSON string:            *)
(*                                                                     *)
(*   counters           v1:<counter;...>|<bucket;...>  in index order, *)
(*                      exactly this build's counters and buckets      *)
(*   read_latencies,    ascending value:count runs joined by ' ', one  *)
(*   write_latencies    run per distinct value, counts >= 1; "" when   *)
(*                      there are none                                 *)
(*   per_thread_finish  ints joined by ' '                             *)
(*   policy_stats       k=v;k=v                                        *)
(*   profile            classes joined by ',' | tid:name:class;... |   *)
(*                      class:path-hex:ns;...   (phase totals only)    *)
(*   cgroups            some=N,full=N, then |k=v;... per group (fixed  *)
(*                      keys; rlat/wlat as latencies, vm as exactly    *)
(*                      nr_stats ints joined by ' ')                   *)
(*   chaos              ev=N,off=N,on=N,mig=N,evi=N,skip=N,lim=N,      *)
(*                      dev=N,stall=N,corr=N                           *)
(*                                                                     *)
(* profile, cgroups and chaos are written only when present, so runs   *)
(* without them journal the same bytes as builds that predate them.    *)
(* Names (policy-stat keys, threads, classes, cgroups) contain none of *)
(* the separators by construction.  Decoding is strict: a value of the *)
(* wrong shape raises [Decode], the record is skipped and its trial    *)
(* reruns; nothing is zero-filled or read in any other order.          *)
(* ------------------------------------------------------------------ *)

exception Decode of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode msg)) fmt

(* Encoding *)

let join sep enc a = String.concat sep (List.map enc (Array.to_list a))
let ints_s = join " " string_of_int

(* Latency runs as [value:count] text, ascending. *)
let runs_s lat =
  let b = Buffer.create 4096 in
  Structures.Latencies.fold
    (fun () v c ->
      if Buffer.length b > 0 then Buffer.add_char b ' ';
      Printf.bprintf b "%d:%d" v c)
    () lat;
  Buffer.contents b

let pairs_s sep kvs =
  String.concat sep (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

(* Decoding: strict primitives, raising only [Decode].  Integers take
   [string_of_int]'s shape only ([int_of_string] alone would also read
   "0x10", "1_0" or "+1"). *)

let int_of s =
  let n = String.length s in
  let digits = if n > 0 && s.[0] = '-' then String.sub s 1 (n - 1) else s in
  let digit c = c >= '0' && c <= '9' in
  match int_of_string_opt s with
  | Some v when digits <> "" && String.for_all digit digits && s <> "-0" -> v
  | _ -> fail "malformed integer %S" s

let hex_of s =
  let hex_digit = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  match int_of_string_opt ("0x" ^ s) with
  | Some n when s <> "" && String.for_all hex_digit s -> n
  | _ -> fail "malformed hex integer %S" s

let list sep dec s =
  if s = "" then [] else List.map dec (String.split_on_char sep s)

let kv s =
  match String.index_opt s '=' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> fail "expected k=v, got %S" s

(* The values of a [k=v] list holding exactly [keys], in that order. *)
let fields_of sep keys s =
  let got = list sep kv s in
  if List.map fst got <> keys then
    fail "fields %s, want %s"
      (String.concat "," (List.map fst got))
      (String.concat "," keys);
  List.map snd got

let array sep dec s = Array.of_list (list sep dec s)
let ints_of = array ' ' int_of

(* The inverse of [runs_s]: values strictly ascending from 0 up, every
   count at least 1, read straight into runs, never expanded. *)
let runs_of s =
  let runs, _, _ =
    List.fold_left
      (fun (runs, total, prev) run ->
        match List.map int_of (String.split_on_char ':' run) with
        | [ v; c ] when v > prev && c > 0 && c <= Sys.max_array_length - total ->
          ((v, c) :: runs, total + c, v)
        | _ -> fail "latency run %S out of shape or order" run)
      ([], 0, -1)
      (if s = "" then [] else String.split_on_char ' ' s)
  in
  Structures.Latencies.of_runs (List.rev runs)

let exactly what n a =
  if Array.length a <> n then
    fail "%d %s, want %d" (Array.length a) what n;
  a

(* Layouts *)

let counters_s (c : Obs.Vmstat.capture) =
  String.concat "|"
    [ "v1:" ^ join ";" string_of_int c.counters;
      join ";" string_of_int c.refault_dist ]

let counters_of s : Obs.Vmstat.capture =
  match String.split_on_char '|' s with
  | [ v1; dist ] when String.starts_with ~prefix:"v1:" v1 ->
    let counters = String.sub v1 3 (String.length v1 - 3) in
    {
      counters =
        exactly "counters" Obs.Vmstat.nr_counters (array ';' int_of counters);
      refault_dist =
        exactly "refault buckets" Obs.Vmstat.dist_buckets
          (array ';' int_of dist);
    }
  | _ -> fail "malformed counters"

let profile_s (c : Obs.Prof.capture) =
  String.concat "|"
    [
      String.concat "," (Array.to_list c.classes);
      join ";"
        (fun (tid, name, cls) -> Printf.sprintf "%d:%s:%d" tid name cls)
        c.threads;
      join ";"
        (fun (cls, path, ns) -> Printf.sprintf "%d:%x:%d" cls path ns)
        c.totals;
    ]

let profile_of s : Obs.Prof.capture =
  match String.split_on_char '|' s with
  | [ classes; threads; totals ] ->
    let classes = array ',' Fun.id classes in
    let cls s =
      let i = int_of s in
      if i < 0 || i >= Array.length classes then
        fail "profile class %d out of range" i;
      i
    in
    let path s =
      let p = hex_of s in
      match Obs.Prof.path_phases p with
      | _ -> p
      | exception Invalid_argument _ -> fail "malformed phase path %S" s
    in
    let entry dec item =
      match String.split_on_char ':' item with
      | [ a; b; c ] -> dec a b c
      | _ -> fail "malformed profile entry %S" item
    in
    {
      classes;
      threads =
        array ';' (entry (fun tid name c -> (int_of tid, name, cls c))) threads;
      totals =
        array ';' (entry (fun c p ns -> (cls c, path p, int_of ns))) totals;
      spans = [||];
    }
  | _ -> fail "malformed profile"

let cgroup_keys =
  [ "name"; "usage"; "low"; "high"; "max"; "limit"; "throttles";
    "throttled_ns"; "oom_kills"; "psi_some_ns"; "psi_full_ns"; "rlat"; "wlat";
    "vm" ]

let cgroups_s (s : Mem.Memcg.summary) =
  let group (r : Mem.Memcg.report) =
    pairs_s ";"
      (List.combine cgroup_keys
         ((r.r_name
          :: List.map string_of_int
               [ r.r_usage; r.r_low; r.r_high; r.r_max; r.r_limit;
                 r.r_throttles; r.r_throttled_ns; r.r_oom_kills;
                 r.r_psi_some_ns; r.r_psi_full_ns ])
         @ [ runs_s r.r_read_latencies; runs_s r.r_write_latencies;
             ints_s r.r_vm ]))
  in
  String.concat "|"
    (pairs_s ","
       [ ("some", string_of_int s.s_some_ns);
         ("full", string_of_int s.s_full_ns) ]
    :: List.map group s.s_groups)

let cgroups_of s : Mem.Memcg.summary =
  let group g : Mem.Memcg.report =
    match fields_of ';' cgroup_keys g with
    | [ name; usage; low; high; max; limit; throttles; throttled_ns; ooms;
        some; full; rlat; wlat; vm ] ->
      {
        r_name = name;
        r_usage = int_of usage;
        r_low = int_of low;
        r_high = int_of high;
        r_max = int_of max;
        r_limit = int_of limit;
        r_throttles = int_of throttles;
        r_throttled_ns = int_of throttled_ns;
        r_oom_kills = int_of ooms;
        r_psi_some_ns = int_of some;
        r_psi_full_ns = int_of full;
        r_read_latencies = runs_of rlat;
        r_write_latencies = runs_of wlat;
        r_vm = exactly "memory.stat counters" Mem.Memcg.nr_stats (ints_of vm);
      }
    | _ -> fail "malformed cgroup"
  in
  match String.split_on_char '|' s with
  | head :: groups -> (
    match List.map int_of (fields_of ',' [ "some"; "full" ] head) with
    | [ some; full ] ->
      { s_groups = List.map group groups; s_some_ns = some; s_full_ns = full }
    | _ -> fail "malformed cgroups %S" head)
  | [] -> fail "empty cgroups"

let chaos_keys =
  [ "ev"; "off"; "on"; "mig"; "evi"; "skip"; "lim"; "dev"; "stall"; "corr" ]

let chaos_s (s : Chaos.summary) =
  pairs_s ","
    (List.combine chaos_keys
       (List.map string_of_int
          [ s.s_events; s.s_offlined; s.s_onlined; s.s_migrated; s.s_evicted;
            s.s_skipped; s.s_limit_updates; s.s_device_phases;
            s.s_stalled_threads; s.s_corrupted ]))

let chaos_of s : Chaos.summary =
  match List.map int_of (fields_of ',' chaos_keys s) with
  | [ ev; off; on_; mig; evi; skip; lim; dev; stall; corr ] ->
    {
      s_events = ev;
      s_offlined = off;
      s_onlined = on_;
      s_migrated = mig;
      s_evicted = evi;
      s_skipped = skip;
      s_limit_updates = lim;
      s_device_phases = dev;
      s_stalled_threads = stall;
      s_corrupted = corr;
    }
  | _ -> fail "malformed chaos tallies %S" s

(* Only what [Obs.kept] keeps is written: the counters and the phase
   totals.  No trace, samples, spans or heatmap. *)
let result_fields (r : Machine.stored) =
  let opt name enc v =
    Option.to_list (Option.map (fun v -> (name, Obs.Str (enc v))) v)
  in
  [
    ("runtime_ns", Obs.Int r.runtime_ns);
    ("counters", Obs.Str (counters_s r.counters));
    ("read_latencies", Obs.Str (runs_s r.read_latencies));
    ("write_latencies", Obs.Str (runs_s r.write_latencies));
    ("per_thread_finish", Obs.Str (ints_s r.per_thread_finish));
    ("cpu_busy_ns", Obs.Int r.cpu_busy_ns);
    ( "policy_stats",
      Obs.Str
        (pairs_s ";"
           (List.map (fun (k, v) -> (k, string_of_int v)) r.policy_stats)) );
    ("policy_name", Obs.Str r.policy_name);
    ("resident_at_end", Obs.Int r.resident_at_end);
  ]
  @ opt "profile" profile_s r.profile
  @ opt "cgroups" cgroups_s r.memcg
  @ opt "chaos" chaos_s r.chaos

let req_int fields name =
  match Obs.field_int fields name with
  | Some v -> v
  | None -> fail "missing int field %S" name

let req_str fields name =
  match Obs.field_string fields name with
  | Some s -> s
  | None -> fail "missing string field %S" name

let result_of_fields fields : Machine.stored =
  let int = req_int fields and str = req_str fields in
  let opt name dec = Option.map dec (Obs.field_string fields name) in
  let counters = counters_of (str "counters") in
  {
    runtime_ns = int "runtime_ns";
    major_faults = Obs.Vmstat.count counters Obs.Vmstat.pgmajfault;
    minor_faults = Obs.Vmstat.count counters Obs.Vmstat.minor_faults;
    read_latencies = runs_of (str "read_latencies");
    write_latencies = runs_of (str "write_latencies");
    per_thread_finish = ints_of (str "per_thread_finish");
    cpu_busy_ns = int "cpu_busy_ns";
    policy_stats =
      list ';'
        (fun item ->
          let k, v = kv item in
          (k, int_of v))
        (str "policy_stats");
    policy_name = str "policy_name";
    resident_at_end = int "resident_at_end";
    counters;
    memcg = opt "cgroups" cgroups_of;
    chaos = opt "chaos" chaos_of;
    trace = None;
    profile = opt "profile" profile_of;
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
