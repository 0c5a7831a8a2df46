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

   Times, amounts, thread ranges, fields and the `1:COL:` error
   positions are the syntax shared with `--cgroups`, in
   {!Mem.Spec_syntax}; this module adds only the classes, their keys
   and the window checks.  Everything here is pure data: the machine
   applies compiled actions at their virtual times, so a given (seed,
   config, spec) replays identically at any `--jobs`. *)

module S = Mem.Spec_syntax

type hotplug = {
  h_at : int;
  h_shrink : S.amount;
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
  c_low : S.amount option;
  c_high : S.amount option;
  c_max : S.amount option;
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
(* Parsing: the classes and keys; the lexing is {!Mem.Spec_syntax}'s   *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let parse_prob (v : S.value) =
  match float_of_string_opt v.text with
  | Some f when f >= 0.0 && f <= 1.0 -> Ok f
  | _ -> S.err v.col (Printf.sprintf "%s: bad probability %S (want 0..1)" v.key v.text)

(* Latency multipliers read like "8x". *)
let parse_mult (v : S.value) =
  let s = v.text in
  let n = String.length s in
  if n >= 2 && s.[n - 1] = 'x' then
    match float_of_string_opt (String.sub s 0 (n - 1)) with
    | Some f when f >= 1.0 -> Ok f
    | _ -> S.err v.col (Printf.sprintf "latency: bad multiplier %S (want >=1x)" s)
  else S.err v.col (Printf.sprintf "latency: bad multiplier %S (want e.g. 8x)" s)

let parse_segment (seg : S.segment) =
  let cls = seg.cls in
  let known keys = S.reject_unknown ~cls ~known:keys seg in
  let time ~zero_ok k =
    let* v = S.require ~cls seg k in
    S.time ~zero_ok v
  in
  (* The window's end must fit an int too, or the overlap checks and the
     schedule would see it wrap to a negative time. *)
  let duration ~at =
    let* v = S.require ~cls seg "for" in
    let* d = S.time ~zero_ok:false v in
    if d > max_int - at then S.err v.col "for: window ends past the largest time"
    else Ok d
  in
  let default d = Option.value ~default:d in
  match cls with
  | "hotplug" ->
    let* () = known [ "at"; "shrink"; "restore" ] in
    let* at = time ~zero_ok:true "at" in
    let* kv = S.require ~cls seg "shrink" in
    let* shrink = S.amount kv in
    let* () =
      match shrink with
      | Pages 0 | Frac 0.0 -> S.err kv.col "shrink: must offline at least one frame"
      | Frac f when f >= 1.0 ->
        S.err kv.col "shrink: cannot offline all of memory (want < 100%)"
      | _ -> Ok ()
    in
    let* restore =
      S.optional seg "restore" (fun v ->
          let* r = S.time ~zero_ok:false v in
          if r <= at then S.err v.col "restore: must be after at=" else Ok r)
    in
    Ok (Hotplug { h_at = at; h_shrink = shrink; h_restore = restore })
  | "degrade" ->
    let* () = known [ "at"; "for"; "latency"; "errors"; "wear" ] in
    let* at = time ~zero_ok:true "at" in
    let* dur = duration ~at in
    let* latency = S.optional seg "latency" parse_mult in
    let* errors = S.optional seg "errors" parse_prob in
    let* wear = S.optional seg "wear" parse_prob in
    let latency = default 1.0 latency
    and errors = default 0.0 errors
    and wear = default 0.0 wear in
    if latency = 1.0 && errors = 0.0 && wear = 0.0 then
      S.err seg.start "degrade: needs at least one of latency=, errors=, wear="
    else
      Ok
        (Degrade
           { d_at = at; d_for = dur; d_latency = latency; d_errors = errors;
             d_wear = wear })
  | "churn" ->
    let* () = known [ "at"; "cg"; "low"; "high"; "max" ] in
    let* at = time ~zero_ok:true "at" in
    let* cg = S.require ~cls seg "cg" in
    let* () =
      if S.name_ok cg.text then Ok ()
      else S.err cg.col (Printf.sprintf "cg: bad cgroup name %S" cg.text)
    in
    let* low = S.optional seg "low" S.amount in
    let* high = S.optional seg "high" S.amount in
    let* max_ = S.optional seg "max" S.amount in
    if low = None && high = None && max_ = None then
      S.err seg.start "churn: needs at least one of low=, high=, max="
    else
      Ok (Churn { c_at = at; c_cg = cg.text; c_low = low; c_high = high; c_max = max_ })
  | "burst" ->
    let* () = known [ "at"; "for"; "threads" ] in
    let* at = time ~zero_ok:true "at" in
    let* dur = duration ~at in
    let* threads = S.optional seg "threads" S.threads in
    Ok (Burst { b_at = at; b_for = dur; b_threads = default [] threads })
  | "corrupt" ->
    let* () = known [ "at" ] in
    let* at = time ~zero_ok:true "at" in
    Ok (Corrupt { x_at = at })
  | _ -> S.err seg.start (Printf.sprintf "unknown injector %S" cls)

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
              S.err col
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
  let* segs = S.segments s in
  if segs = [] then S.err 0 "empty --chaos spec"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (seg : S.segment) :: rest ->
        let* inj = parse_segment seg in
        go ((seg.start, inj) :: acc) rest
    in
    let* tagged = go [] segs in
    let* () = validate tagged in
    Ok { injectors = List.map snd tagged }

(* ------------------------------------------------------------------ *)
(* Printing (canonical; parse (spec_to_string s) = Ok s)               *)
(* ------------------------------------------------------------------ *)

let injector_to_string = function
  | Hotplug h ->
    Printf.sprintf "hotplug:at=%s,shrink=%s%s" (S.time_to_string h.h_at)
      (S.amount_to_string h.h_shrink)
      (match h.h_restore with
       | None -> ""
       | Some r -> ",restore=" ^ S.time_to_string r)
  | Degrade d ->
    Printf.sprintf "degrade:at=%s,for=%s%s%s%s" (S.time_to_string d.d_at)
      (S.time_to_string d.d_for)
      (if d.d_latency <> 1.0 then ",latency=" ^ S.float_to_string d.d_latency ^ "x"
       else "")
      (if d.d_errors <> 0.0 then ",errors=" ^ S.float_to_string d.d_errors else "")
      (if d.d_wear <> 0.0 then ",wear=" ^ S.float_to_string d.d_wear else "")
  | Churn c ->
    let opt k = function
      | None -> ""
      | Some a -> Printf.sprintf ",%s=%s" k (S.amount_to_string a)
    in
    Printf.sprintf "churn:at=%s,cg=%s%s%s%s" (S.time_to_string c.c_at) c.c_cg
      (opt "low" c.c_low) (opt "high" c.c_high) (opt "max" c.c_max)
  | Burst b ->
    Printf.sprintf "burst:at=%s,for=%s%s" (S.time_to_string b.b_at)
      (S.time_to_string b.b_for)
      (match b.b_threads with
       | [] -> ""
       | rs -> ",threads=" ^ S.threads_to_string rs)
  | Corrupt { x_at } -> Printf.sprintf "corrupt:at=%s" (S.time_to_string x_at)

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
            max 1 (min (capacity - max 16 (capacity / 8)) (S.resolve ~capacity h.h_shrink))
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
          let lim = Option.map (S.resolve ~capacity) in
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
