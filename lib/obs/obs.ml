module Prof = Prof
module Vmstat = Vmstat

type promote_reason =
  | Aging
  | Evict_scan
  | Spatial
  | Second_chance

type event =
  | Evict of { vpn : int; dirty : bool }
  | Promote of { pfn : int; reason : promote_reason }
  | Demote of { pfn : int }
  | Aging_pass of { pass : int; max_seq : int; min_seq : int }
  | Reclaim of { want : int; freed : int; scanned : int; latency_ns : int }
  | Swap_read of { slot : int; latency_ns : int; retries : int; failed : bool }
  | Swap_write of {
      slot : int;
      latency_ns : int;
      retries : int;
      failed : bool;
      remapped : bool;
    }
  | Oom_kill of { tid : int; discarded : int }
  | Throttle of { tid : int; cg : string; usage : int; high : int; stall_ns : int }
  | Cgroup_reclaim of {
      cg : string;
      want : int;
      freed : int;
      scanned : int;
      latency_ns : int;
    }
  | Cgroup_oom of { cg : string; tid : int; discarded : int }
  | Psi of {
      cg : string;
      some_ns : int;
      full_ns : int;
      window_ns : int;
      limit : int;
    }
  | Chaos of { injector : string; action : string; arg : int }
  | Workingset_refault of {
      vpn : int;
      distance : int;
      shadow : bool;
      activated : bool;
      restored : bool;
    }

let kind_name = function
  | Evict _ -> "evict"
  | Promote _ -> "promote"
  | Demote _ -> "demote"
  | Aging_pass _ -> "aging_pass"
  | Reclaim _ -> "reclaim"
  | Swap_read _ -> "swap_read"
  | Swap_write _ -> "swap_write"
  | Oom_kill _ -> "oom_kill"
  | Throttle _ -> "throttle"
  | Cgroup_reclaim _ -> "cgroup_reclaim"
  | Cgroup_oom _ -> "cgroup_oom"
  | Psi _ -> "psi"
  | Chaos _ -> "chaos"
  | Workingset_refault _ -> "workingset_refault"

let promote_reason_name = function
  | Aging -> "aging"
  | Evict_scan -> "evict_scan"
  | Spatial -> "spatial"
  | Second_chance -> "second_chance"

type config = {
  trace : bool;
  sample_every_ns : int;
  prof : Prof.mode;
  damon : Mem.Damon.config option;
}

let off = { trace = false; sample_every_ns = 0; prof = Prof.Off; damon = None }

let kept c =
  { off with prof = (if c.prof = Prof.Off then Prof.Off else Prof.Totals) }

(* The capture set's part of a result key.  These strings are persisted
   in every journal record key: changing one orphans existing journals. *)
let config_key c =
  [
    ("trace", string_of_bool c.trace);
    ("sample_every_ns", string_of_int c.sample_every_ns);
    ( "prof",
      match c.prof with
      | Prof.Off -> "off"
      | Prof.Totals -> "totals"
      | Prof.Spans -> "spans" );
    ("damon", Digest.to_hex (Digest.string (Marshal.to_string c.damon [])));
  ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(* Direct-reclaim latencies span sub-microsecond list pops to multi-
   second writeback stalls; one shared layout lets per-trial histograms
   merge into per-policy ones. *)
let reclaim_hist_lo = 100.0

let reclaim_hist_hi = 1e11

type sink = {
  config : config;
  mutable ev_times : int array;
  mutable ev : event array;
  mutable ev_len : int;
  mutable samples_rev : (int * (string * float) list) list;
  mutable samples_n : int;
  hist : Stats.Histogram.t;
}

type t = sink option

let disabled : t = None

let create config =
  if not (config.trace || config.sample_every_ns > 0) then None
  else
    Some
      {
        config;
        ev_times = [||];
        ev = [||];
        ev_len = 0;
        samples_rev = [];
        samples_n = 0;
        hist =
          Stats.Histogram.create ~buckets_per_decade:10 ~lo:reclaim_hist_lo
            ~hi:reclaim_hist_hi ();
      }

let enabled = function None -> false | Some _ -> true

let tracing = function None -> false | Some s -> s.config.trace

let sample_every_ns = function None -> 0 | Some s -> s.config.sample_every_ns

let push s ~t_ns ev =
  let cap = Array.length s.ev in
  if s.ev_len >= cap then begin
    let cap' = max 256 (2 * cap) in
    let times' = Array.make cap' 0 in
    let ev' = Array.make cap' ev in
    Array.blit s.ev_times 0 times' 0 s.ev_len;
    Array.blit s.ev 0 ev' 0 s.ev_len;
    s.ev_times <- times';
    s.ev <- ev'
  end;
  s.ev_times.(s.ev_len) <- t_ns;
  s.ev.(s.ev_len) <- ev;
  s.ev_len <- s.ev_len + 1

let emit t ~t_ns ev =
  match t with
  | None -> ()
  | Some s ->
    (match ev with
    | Reclaim { latency_ns; _ } ->
      Stats.Histogram.add s.hist (float_of_int (max 1 latency_ns))
    | _ -> ());
    if s.config.trace then push s ~t_ns ev

let push_sample t ~t_ns metrics =
  match t with
  | None -> ()
  | Some s ->
    s.samples_rev <- (t_ns, metrics) :: s.samples_rev;
    s.samples_n <- s.samples_n + 1

type capture = {
  events : (int * event) array;
  samples : (int * (string * float) list) array;
  reclaim_hist : Stats.Histogram.t;
}

let capture = function
  | None -> None
  | Some s ->
    let events = Array.init s.ev_len (fun i -> (s.ev_times.(i), s.ev.(i))) in
    let samples = Array.make s.samples_n (0, []) in
    List.iteri
      (fun i sm -> samples.(s.samples_n - 1 - i) <- sm)
      s.samples_rev;
    Some { events; samples; reclaim_hist = s.hist }

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Float of float | Bool of bool | Str of string

let event_fields = function
  | Evict { vpn; dirty } -> [ ("vpn", Int vpn); ("dirty", Bool dirty) ]
  | Promote { pfn; reason } ->
    [ ("pfn", Int pfn); ("reason", Str (promote_reason_name reason)) ]
  | Demote { pfn } -> [ ("pfn", Int pfn) ]
  | Aging_pass { pass; max_seq; min_seq } ->
    [ ("pass", Int pass); ("max_seq", Int max_seq); ("min_seq", Int min_seq) ]
  | Reclaim { want; freed; scanned; latency_ns } ->
    [
      ("want", Int want); ("freed", Int freed); ("scanned", Int scanned);
      ("latency_ns", Int latency_ns);
    ]
  | Swap_read { slot; latency_ns; retries; failed } ->
    [
      ("slot", Int slot); ("latency_ns", Int latency_ns);
      ("retries", Int retries); ("failed", Bool failed);
    ]
  | Swap_write { slot; latency_ns; retries; failed; remapped } ->
    [
      ("slot", Int slot); ("latency_ns", Int latency_ns);
      ("retries", Int retries); ("failed", Bool failed);
      ("remapped", Bool remapped);
    ]
  | Oom_kill { tid; discarded } ->
    [ ("tid", Int tid); ("discarded", Int discarded) ]
  | Throttle { tid; cg; usage; high; stall_ns } ->
    [
      ("tid", Int tid); ("cg", Str cg); ("usage", Int usage);
      ("high", Int high); ("stall_ns", Int stall_ns);
    ]
  | Cgroup_reclaim { cg; want; freed; scanned; latency_ns } ->
    [
      ("cg", Str cg); ("want", Int want); ("freed", Int freed);
      ("scanned", Int scanned); ("latency_ns", Int latency_ns);
    ]
  | Cgroup_oom { cg; tid; discarded } ->
    [ ("cg", Str cg); ("tid", Int tid); ("discarded", Int discarded) ]
  | Chaos { injector; action; arg } ->
    [ ("injector", Str injector); ("action", Str action); ("arg", Int arg) ]
  | Psi { cg; some_ns; full_ns; window_ns; limit } ->
    [
      ("cg", Str cg); ("some_ns", Int some_ns); ("full_ns", Int full_ns);
      ("window_ns", Int window_ns); ("limit", Int limit);
    ]
  | Workingset_refault { vpn; distance; shadow; activated; restored } ->
    [
      ("vpn", Int vpn); ("distance", Int distance); ("shadow", Bool shadow);
      ("activated", Bool activated); ("restored", Bool restored);
    ]

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_json = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f
  | Bool b -> if b then "true" else "false"
  | Str s -> "\"" ^ escape_string s ^ "\""

let json_string s = "\"" ^ escape_string s ^ "\""

let json_object fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string k);
      Buffer.add_string buf "\":";
      Buffer.add_string buf (value_to_json v))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let jsonl_line ~cell ~t_ns ev =
  json_object
    (cell
    @ (("t_ns", Int t_ns) :: ("kind", Str (kind_name ev)) :: event_fields ev))

(* Flat-object JSON parser: exactly the subset [jsonl_line] emits
   (strings, numbers, booleans, null), with standard escapes.  Kept
   dependency-free so `repro trace-summary` and the CI parse check need
   nothing beyond this library. *)

exception Parse_error of string

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            pos := !pos + 4;
            (* Strict hex digits only: [int_of_string "0x.."] would
               also accept underscores ("\u00_1"). *)
            let hex_digit c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape"
            in
            let code =
              String.fold_left (fun acc c -> (acc * 16) + hex_digit c) 0 hex
            in
            (* Only BMP code points below 0x80 round-trip from our
               writer; encode the rest as UTF-8 for robustness. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail "unknown escape");
          loop ())
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub line !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char line.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let s = String.sub line start (!pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "malformed number")
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" (Str "null")
    | Some _ -> parse_number ()
    | None -> fail "expected a value"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ());
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok (List.rev !fields)
  with Parse_error msg -> Error msg

let field fields k = List.assoc_opt k fields

let field_int fields k =
  match field fields k with
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let field_string fields k =
  match field fields k with Some (Str s) -> Some s | _ -> None
