(* Deterministic chaos scheduler: parsing, validation and compilation of
   `--chaos SPEC` runtime-transient schedules.

   A spec is a `;`-separated list of injector segments, each in the
   `--cgroups` style `class:key=value,key=value`:

     hotplug:at=T,shrink=A[,restore=T]   offline A frames at T (migrate
                                         or reclaim their contents),
                                         re-online them at restore
     degrade:at=T,for=D[,latency=Nx][,errors=P][,wear=P]
                                         swap-device latency ramp /
                                         transient error window /
                                         permanent wear window
     churn:at=T,cg=NAME[,low=A][,high=A][,max=A]
                                         rewrite memory.{low,high,max}
     burst:at=T,for=D[,threads=RANGES]   stall those threads over [T,T+D)
     corrupt:at=T                        test-only: clear one mapped
                                         frame's owner (a deliberate
                                         invariant violation for the
                                         fuzzer's detection path)

   Times are ns with us/ms/s suffixes; amounts are pages or `%` of
   capacity, as in `--cgroups`.  Parse errors carry `1:COL:` positions
   (specs are single-line).  Everything here is pure data: the machine
   applies compiled actions at their virtual times, so a given (seed,
   config, spec) replays identically at any `--jobs`. *)

type amount =
  | Pages of int
  | Frac of float

type hotplug = {
  h_at : int;
  h_shrink : amount;
  h_restore : int option;
}

type degrade = {
  d_at : int;
  d_for : int;
  d_latency : float;  (* service-time multiplier, >= 1 *)
  d_errors : float;   (* transient error probability *)
  d_wear : float;     (* permanent error probability *)
}

type churn = {
  c_at : int;
  c_cg : string;
  c_low : amount option;
  c_high : amount option;
  c_max : amount option;
}

type burst = {
  b_at : int;
  b_for : int;
  b_threads : (int * int) list;  (* inclusive tid ranges; [] = all *)
}

type injector =
  | Hotplug of hotplug
  | Degrade of degrade
  | Churn of churn
  | Burst of burst
  | Corrupt of { x_at : int }

type spec = { injectors : injector list }

(* ------------------------------------------------------------------ *)
(* Parsing (column-tracked: specs are one line, so errors are 1:COL)   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* [col] is a 0-based offset into the original spec string; error
   positions are printed 1-based. *)
let err col msg = Error (Printf.sprintf "1:%d: %s" (col + 1) msg)

(* ';'-separated (start, text) chunks, 0-based starts, empties kept so
   columns stay exact. *)
let chunks sep s =
  let n = String.length s in
  let out = ref [] in
  let start = ref 0 in
  for i = 0 to n do
    if i = n || s.[i] = sep then begin
      out := (!start, String.sub s !start (i - !start)) :: !out;
      start := i + 1
    end
  done;
  List.rev !out

(* Strip surrounding blanks, keeping the start column honest. *)
let trimmed (col, s) =
  let n = String.length s in
  let b = ref 0 in
  while !b < n && s.[!b] = ' ' do incr b done;
  let e = ref n in
  while !e > !b && s.[!e - 1] = ' ' do decr e done;
  (col + !b, String.sub s !b (!e - !b))

let name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

(* Times: plain ns or us/ms/s suffixes, as in --cgroups durations, but
   negatives are named explicitly (the fuzzer's shrinker and the
   property tests rely on the message). *)
let parse_time ~what ~zero_ok col s =
  if s <> "" && s.[0] = '-' then
    err col (Printf.sprintf "%s: negative time %S" what s)
  else
    let scaled suffix mult =
      let n = String.length s and m = String.length suffix in
      if n > m && String.sub s (n - m) m = suffix then
        match float_of_string_opt (String.sub s 0 (n - m)) with
        | Some f when f >= 0.0 -> Some (int_of_float (f *. mult))
        | _ -> None
      else None
    in
    let v =
      match scaled "us" 1e3 with
      | Some v -> Some v
      | None ->
        (match scaled "ms" 1e6 with
         | Some v -> Some v
         | None ->
           (match scaled "s" 1e9 with
            | Some v -> Some v
            | None ->
              (match int_of_string_opt s with
               | Some v when v >= 0 -> Some v
               | _ -> None)))
    in
    (match v with
     | Some v when v > 0 || zero_ok -> Ok v
     | Some _ -> err col (Printf.sprintf "%s: must be positive" what)
     | None -> err col (Printf.sprintf "%s: bad time %S" what s))

let parse_amount ~what col s =
  let n = String.length s in
  if n = 0 then err col (Printf.sprintf "%s: empty amount" what)
  else if s.[0] = '-' then
    err col (Printf.sprintf "%s: negative amount %S" what s)
  else if s.[n - 1] = '%' then
    match float_of_string_opt (String.sub s 0 (n - 1)) with
    | Some f when f >= 0.0 -> Ok (Frac (f /. 100.0))
    | _ -> err col (Printf.sprintf "%s: bad percentage %S" what s)
  else
    match int_of_string_opt s with
    | Some p when p >= 0 -> Ok (Pages p)
    | _ -> err col (Printf.sprintf "%s: bad page count %S" what s)

let parse_prob ~what col s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 && f <= 1.0 -> Ok f
  | _ -> err col (Printf.sprintf "%s: bad probability %S (want 0..1)" what s)

(* Latency multipliers read like "8x". *)
let parse_mult col s =
  let n = String.length s in
  if n >= 2 && s.[n - 1] = 'x' then
    match float_of_string_opt (String.sub s 0 (n - 1)) with
    | Some f when f >= 1.0 -> Ok f
    | _ -> err col (Printf.sprintf "latency: bad multiplier %S (want >=1x)" s)
  else err col (Printf.sprintf "latency: bad multiplier %S (want e.g. 8x)" s)

let parse_threads col s =
  let parse_range (rcol, r) =
    match String.index_opt r '-' with
    | None ->
      (match int_of_string_opt r with
       | Some t when t >= 0 -> Ok (t, t)
       | _ -> err rcol (Printf.sprintf "threads: bad thread id %S" r))
    | Some i ->
      let lo = String.sub r 0 i
      and hi = String.sub r (i + 1) (String.length r - i - 1) in
      (match (int_of_string_opt lo, int_of_string_opt hi) with
       | Some lo, Some hi when 0 <= lo && lo <= hi -> Ok (lo, hi)
       | _ -> err rcol (Printf.sprintf "threads: bad thread range %S" r))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest ->
      let* rg = parse_range (trimmed r) in
      go (rg :: acc) rest
  in
  match List.filter (fun (_, r) -> String.trim r <> "") (chunks '+' s) with
  | [] -> err col "threads: empty thread list"
  | rs ->
    (* Re-base range columns onto the whole-spec coordinate system. *)
    go [] (List.map (fun (c, r) -> (col + c, r)) rs)

(* key=value fields of one segment body, with value columns. *)
let parse_fields col body =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest ->
      let fcol, f = trimmed f in
      if f = "" then go acc rest
      else
        (match String.index_opt f '=' with
         | None -> err fcol (Printf.sprintf "field %S is not key=value" f)
         | Some i ->
           let k = String.sub f 0 i
           and v = String.sub f (i + 1) (String.length f - i - 1) in
           if k = "" || v = "" then
             err fcol (Printf.sprintf "field %S is not key=value" f)
           else go ((k, (fcol + i + 1, v)) :: acc) rest)
  in
  go [] (List.map (fun (c, f) -> (col + c, f)) (chunks ',' body))

let field fields k = List.assoc_opt k fields

let reject_unknown ~cls ~known col fields =
  let rec go = function
    | [] -> Ok ()
    | (k, _) :: rest ->
      if List.mem k known then go rest
      else err col (Printf.sprintf "%s: unknown key %S" cls k)
  in
  go fields

let require ~cls col fields k =
  match field fields k with
  | Some v -> Ok v
  | None -> err col (Printf.sprintf "%s: missing %s=" cls k)

let parse_segment (scol, seg) =
  let name, body_col, body =
    match String.index_opt seg ':' with
    | None -> (seg, scol + String.length seg, "")
    | Some i ->
      (String.sub seg 0 i, scol + i + 1,
       String.sub seg (i + 1) (String.length seg - i - 1))
  in
  let cls = String.trim name in
  let* fields = parse_fields body_col body in
  match cls with
  | "hotplug" ->
    let* () =
      reject_unknown ~cls ~known:[ "at"; "shrink"; "restore" ] scol fields
    in
    let* acol, av = require ~cls scol fields "at" in
    let* at = parse_time ~what:"at" ~zero_ok:true acol av in
    let* kcol, kv = require ~cls scol fields "shrink" in
    let* shrink = parse_amount ~what:"shrink" kcol kv in
    let* () =
      match shrink with
      | Pages 0 | Frac 0.0 -> err kcol "shrink: must offline at least one frame"
      | Frac f when f >= 1.0 ->
        err kcol "shrink: cannot offline all of memory (want < 100%)"
      | _ -> Ok ()
    in
    let* restore =
      match field fields "restore" with
      | None -> Ok None
      | Some (rcol, rv) ->
        let* r = parse_time ~what:"restore" ~zero_ok:false rcol rv in
        if r <= at then err rcol "restore: must be after at="
        else Ok (Some r)
    in
    Ok (Hotplug { h_at = at; h_shrink = shrink; h_restore = restore })
  | "degrade" ->
    let* () =
      reject_unknown ~cls
        ~known:[ "at"; "for"; "latency"; "errors"; "wear" ]
        scol fields
    in
    let* acol, av = require ~cls scol fields "at" in
    let* at = parse_time ~what:"at" ~zero_ok:true acol av in
    let* fcol, fv = require ~cls scol fields "for" in
    let* dur = parse_time ~what:"for" ~zero_ok:false fcol fv in
    let* latency =
      match field fields "latency" with
      | None -> Ok 1.0
      | Some (lcol, lv) -> parse_mult lcol lv
    in
    let* errors =
      match field fields "errors" with
      | None -> Ok 0.0
      | Some (ecol, ev) -> parse_prob ~what:"errors" ecol ev
    in
    let* wear =
      match field fields "wear" with
      | None -> Ok 0.0
      | Some (wcol, wv) -> parse_prob ~what:"wear" wcol wv
    in
    if latency = 1.0 && errors = 0.0 && wear = 0.0 then
      err scol "degrade: needs at least one of latency=, errors=, wear="
    else
      Ok
        (Degrade
           { d_at = at; d_for = dur; d_latency = latency; d_errors = errors;
             d_wear = wear })
  | "churn" ->
    let* () =
      reject_unknown ~cls ~known:[ "at"; "cg"; "low"; "high"; "max" ] scol
        fields
    in
    let* acol, av = require ~cls scol fields "at" in
    let* at = parse_time ~what:"at" ~zero_ok:true acol av in
    let* ccol, cv = require ~cls scol fields "cg" in
    let* () =
      if name_ok cv then Ok ()
      else err ccol (Printf.sprintf "cg: bad cgroup name %S" cv)
    in
    let opt_amount k =
      match field fields k with
      | None -> Ok None
      | Some (vcol, vv) ->
        let* a = parse_amount ~what:k vcol vv in
        Ok (Some a)
    in
    let* low = opt_amount "low" in
    let* high = opt_amount "high" in
    let* max_ = opt_amount "max" in
    if low = None && high = None && max_ = None then
      err scol "churn: needs at least one of low=, high=, max="
    else
      Ok (Churn { c_at = at; c_cg = cv; c_low = low; c_high = high; c_max = max_ })
  | "burst" ->
    let* () = reject_unknown ~cls ~known:[ "at"; "for"; "threads" ] scol fields in
    let* acol, av = require ~cls scol fields "at" in
    let* at = parse_time ~what:"at" ~zero_ok:true acol av in
    let* fcol, fv = require ~cls scol fields "for" in
    let* dur = parse_time ~what:"for" ~zero_ok:false fcol fv in
    let* threads =
      match field fields "threads" with
      | None -> Ok []
      | Some (tcol, tv) -> parse_threads tcol tv
    in
    Ok (Burst { b_at = at; b_for = dur; b_threads = threads })
  | "corrupt" ->
    let* () = reject_unknown ~cls ~known:[ "at" ] scol fields in
    let* acol, av = require ~cls scol fields "at" in
    let* at = parse_time ~what:"at" ~zero_ok:true acol av in
    Ok (Corrupt { x_at = at })
  | _ -> err scol (Printf.sprintf "unknown injector %S" cls)

(* Schedule sanity: same-class windows must not overlap (a hotplug
   without restore= runs to the end of time; bursts only clash when
   their thread sets can intersect; two churns of the same cgroup at the
   same instant would be order-dependent). *)
let window = function
  | Hotplug h -> Some (h.h_at, (match h.h_restore with Some r -> r | None -> max_int))
  | Degrade d -> Some (d.d_at, d.d_at + d.d_for)
  | Burst b -> Some (b.b_at, b.b_at + b.b_for)
  | Churn _ | Corrupt _ -> None

let ranges_intersect a b =
  let one (alo, ahi) (blo, bhi) = alo <= bhi && blo <= ahi in
  match (a, b) with
  | [], _ | _, [] -> true (* [] = every thread *)
  | _ ->
    List.exists (fun ra -> List.exists (fun rb -> one ra rb) b) a

let validate tagged =
  let overlap (a0, a1) (b0, b1) = a0 < b1 && b0 < a1 in
  let rec go seen = function
    | [] -> Ok ()
    | (col, inj) :: rest ->
      let* () =
        let rec against = function
          | [] -> Ok ()
          | (_, prev) :: tl ->
            let clash =
              match (inj, prev) with
              | Hotplug _, Hotplug _ | Degrade _, Degrade _ ->
                (match (window inj, window prev) with
                 | Some w1, Some w2 -> overlap w1 w2
                 | _ -> false)
              | Burst b1, Burst b2 ->
                ranges_intersect b1.b_threads b2.b_threads
                && overlap (b1.b_at, b1.b_at + b1.b_for)
                     (b2.b_at, b2.b_at + b2.b_for)
              | Churn c1, Churn c2 -> c1.c_cg = c2.c_cg && c1.c_at = c2.c_at
              | _ -> false
            in
            if clash then
              let cls =
                match inj with
                | Hotplug _ -> "hotplug"
                | Degrade _ -> "degrade"
                | Burst _ -> "burst"
                | Churn _ -> "churn"
                | Corrupt _ -> "corrupt"
              in
              err col
                (match inj with
                 | Churn _ ->
                   Printf.sprintf
                     "churn: duplicate update of the same cgroup at the same time"
                 | _ ->
                   Printf.sprintf "%s: window overlaps an earlier %s window" cls
                     cls)
            else against tl
        in
        against seen
      in
      go ((col, inj) :: seen) rest
  in
  go [] tagged

let parse_spec s =
  let segs =
    List.filter (fun (_, t) -> t <> "") (List.map trimmed (chunks ';' s))
  in
  if segs = [] then err 0 "empty --chaos spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | seg :: rest ->
        let* inj = parse_segment seg in
        go ((fst seg, inj) :: acc) rest
    in
    let* tagged = go [] segs in
    let* () = validate tagged in
    Ok { injectors = List.map snd tagged }

(* ------------------------------------------------------------------ *)
(* Printing (canonical; parse (spec_to_string s) = Ok s)               *)
(* ------------------------------------------------------------------ *)

let time_to_string v =
  if v > 0 && v mod 1_000_000_000 = 0 then
    Printf.sprintf "%ds" (v / 1_000_000_000)
  else if v > 0 && v mod 1_000_000 = 0 then Printf.sprintf "%dms" (v / 1_000_000)
  else if v > 0 && v mod 1_000 = 0 then Printf.sprintf "%dus" (v / 1_000)
  else string_of_int v

let amount_to_string = function
  | Pages p -> string_of_int p
  | Frac f -> Printf.sprintf "%g%%" (f *. 100.0)

let injector_to_string = function
  | Hotplug h ->
    Printf.sprintf "hotplug:at=%s,shrink=%s%s" (time_to_string h.h_at)
      (amount_to_string h.h_shrink)
      (match h.h_restore with
       | None -> ""
       | Some r -> ",restore=" ^ time_to_string r)
  | Degrade d ->
    Printf.sprintf "degrade:at=%s,for=%s%s%s%s" (time_to_string d.d_at)
      (time_to_string d.d_for)
      (if d.d_latency <> 1.0 then Printf.sprintf ",latency=%gx" d.d_latency
       else "")
      (if d.d_errors <> 0.0 then Printf.sprintf ",errors=%g" d.d_errors else "")
      (if d.d_wear <> 0.0 then Printf.sprintf ",wear=%g" d.d_wear else "")
  | Churn c ->
    let opt k = function
      | None -> ""
      | Some a -> Printf.sprintf ",%s=%s" k (amount_to_string a)
    in
    Printf.sprintf "churn:at=%s,cg=%s%s%s%s" (time_to_string c.c_at) c.c_cg
      (opt "low" c.c_low) (opt "high" c.c_high) (opt "max" c.c_max)
  | Burst b ->
    Printf.sprintf "burst:at=%s,for=%s%s" (time_to_string b.b_at)
      (time_to_string b.b_for)
      (match b.b_threads with
       | [] -> ""
       | rs ->
         ",threads="
         ^ String.concat "+"
             (List.map
                (fun (lo, hi) ->
                  if lo = hi then string_of_int lo
                  else Printf.sprintf "%d-%d" lo hi)
                rs))
  | Corrupt { x_at } -> Printf.sprintf "corrupt:at=%s" (time_to_string x_at)

let spec_to_string spec =
  String.concat ";" (List.map injector_to_string spec.injectors)

(* ------------------------------------------------------------------ *)
(* Compilation to a virtual-time action schedule                       *)
(* ------------------------------------------------------------------ *)

type action =
  | Offline of int
  | Online of int
  | Degrade_set of { latency : float; errors : float; wear : float }
  | Degrade_clear
  | Set_limits of {
      cg : string;
      low : int option;
      high : int option;
      max_limit : int option;
    }
  | Stall of { lo : int; hi : int; until : int }
  | Corrupt_frame

let resolve capacity = function
  | Pages p -> p
  | Frac f -> int_of_float (f *. float_of_int capacity)

let has_degrade spec =
  List.exists (function Degrade _ -> true | _ -> false) spec.injectors

let churn_cgs spec =
  List.filter_map
    (function Churn c -> Some c.c_cg | _ -> None)
    spec.injectors

let events spec ~capacity ~nthreads =
  let evs =
    List.concat_map
      (function
        | Hotplug h ->
          (* Leave at least a low-watermark's worth of memory online. *)
          let want =
            max 1 (min (capacity - max 16 (capacity / 8)) (resolve capacity h.h_shrink))
          in
          (h.h_at, Offline want)
          :: (match h.h_restore with
              | None -> []
              | Some r -> [ (r, Online want) ])
        | Degrade d ->
          [
            ( d.d_at,
              Degrade_set
                { latency = d.d_latency; errors = d.d_errors; wear = d.d_wear }
            );
            (d.d_at + d.d_for, Degrade_clear);
          ]
        | Churn c ->
          let lim = Option.map (resolve capacity) in
          [
            ( c.c_at,
              Set_limits
                { cg = c.c_cg; low = lim c.c_low; high = lim c.c_high;
                  max_limit = lim c.c_max } );
          ]
        | Burst b ->
          let until = b.b_at + b.b_for in
          let ranges =
            match b.b_threads with
            | [] -> [ (0, max 0 (nthreads - 1)) ]
            | rs ->
              List.filter_map
                (fun (lo, hi) ->
                  if lo >= nthreads then None
                  else Some (lo, min hi (nthreads - 1)))
                rs
          in
          List.map (fun (lo, hi) -> (b.b_at, Stall { lo; hi; until })) ranges
        | Corrupt { x_at } -> [ (x_at, Corrupt_frame) ])
      spec.injectors
  in
  (* Stable: ties fire in segment order, like same-time sim events. *)
  List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) evs

let action_injector = function
  | Offline _ | Online _ -> "hotplug"
  | Degrade_set _ | Degrade_clear -> "degrade"
  | Set_limits _ -> "churn"
  | Stall _ -> "burst"
  | Corrupt_frame -> "corrupt"

let action_label = function
  | Offline n -> Printf.sprintf "offline %d frames" n
  | Online n -> Printf.sprintf "online %d frames" n
  | Degrade_set { latency; errors; wear } ->
    Printf.sprintf "degrade latency=%gx errors=%g wear=%g" latency errors wear
  | Degrade_clear -> "degrade end"
  | Set_limits { cg; low; high; max_limit } ->
    let p k = function None -> "" | Some v -> Printf.sprintf " %s=%d" k v in
    Printf.sprintf "limits cg=%s%s%s%s" cg (p "low" low) (p "high" high)
      (p "max" max_limit)
  | Stall { lo; hi; until = _ } -> Printf.sprintf "stall threads %d-%d" lo hi
  | Corrupt_frame -> "corrupt frame owner"

(* ------------------------------------------------------------------ *)
(* Run summary (journaled; absent when chaos is off)                   *)
(* ------------------------------------------------------------------ *)

type summary = {
  mutable s_events : int;          (* actions applied *)
  mutable s_offlined : int;        (* frames taken offline *)
  mutable s_onlined : int;         (* frames brought back *)
  mutable s_migrated : int;        (* pages moved off offlining frames *)
  mutable s_evicted : int;         (* pages reclaimed off offlining frames *)
  mutable s_skipped : int;         (* unmovable frames left online *)
  mutable s_limit_updates : int;
  mutable s_device_phases : int;   (* degrade windows opened *)
  mutable s_stalled_threads : int;
  mutable s_corrupted : int;
}

let fresh_summary () =
  {
    s_events = 0;
    s_offlined = 0;
    s_onlined = 0;
    s_migrated = 0;
    s_evicted = 0;
    s_skipped = 0;
    s_limit_updates = 0;
    s_device_phases = 0;
    s_stalled_threads = 0;
    s_corrupted = 0;
  }

let summary_to_string s =
  Printf.sprintf "ev=%d,off=%d,on=%d,mig=%d,evi=%d,skip=%d,lim=%d,dev=%d,stall=%d,corr=%d"
    s.s_events s.s_offlined s.s_onlined s.s_migrated s.s_evicted s.s_skipped
    s.s_limit_updates s.s_device_phases s.s_stalled_threads s.s_corrupted
