module S = Spec_syntax

type group_spec = {
  g_name : string;
  g_threads : (int * int) list;
  g_low : S.amount option;
  g_high : S.amount option;
  g_max : S.amount option;
}

type proactive_spec = {
  p_interval_ns : int;
  p_threshold : float;
  p_step : S.amount;
}

type spec = {
  groups : group_spec list;
  proactive : proactive_spec option;
  psi_interval_ns : int;
}

(* ------------------------------------------------------------------ *)
(* Spec parsing: the classes and keys; the lexing is {!Spec_syntax}'s  *)

let default_psi_interval_ns = 100_000_000 (* 100 ms simulated *)

let ( let* ) = Result.bind

let parse_group (seg : S.segment) =
  let cls = "cgroup " ^ seg.cls in
  let* () = S.reject_unknown ~cls ~known:[ "threads"; "low"; "high"; "max" ] seg in
  let* threads = S.require ~cls seg "threads" in
  let* threads = S.threads threads in
  let* low = S.optional seg "low" S.amount in
  let* high = S.optional seg "high" S.amount in
  let* max_ = S.optional seg "max" S.amount in
  Ok { g_name = seg.cls; g_threads = threads; g_low = low; g_high = high; g_max = max_ }

let parse_threshold (v : S.value) =
  match float_of_string_opt v.text with
  | Some f when f >= 0.0 && f <= 1.0 -> Ok f
  | _ -> S.err v.col (Printf.sprintf "threshold: bad fraction %S (want 0..1)" v.text)

let parse_proactive (seg : S.segment) =
  let* () =
    S.reject_unknown ~cls:"proactive" ~known:[ "interval"; "threshold"; "step" ] seg
  in
  let* interval = S.optional seg "interval" (S.time ~zero_ok:false) in
  let* threshold = S.optional seg "threshold" parse_threshold in
  let* step = S.optional seg "step" S.amount in
  Ok
    {
      p_interval_ns = Option.value interval ~default:100_000_000;
      p_threshold = Option.value threshold ~default:0.10;
      p_step = Option.value step ~default:(S.Frac 0.01);
    }

let parse_psi (seg : S.segment) =
  let* () = S.reject_unknown ~cls:"psi" ~known:[ "interval" ] seg in
  let* interval = S.require ~cls:"psi" seg "interval" in
  S.time ~zero_ok:false interval

let parse_spec s =
  let* segs = S.segments s in
  let rec go groups proactive psi = function
    | [] ->
      if groups = [] && proactive = None then S.err 0 "empty --cgroups spec"
      else
        Ok
          {
            groups = List.rev groups;
            proactive;
            psi_interval_ns = Option.value psi ~default:default_psi_interval_ns;
          }
    | (seg : S.segment) :: rest -> (
      let twice =
        match seg.cls with
        | "proactive" -> proactive <> None
        | "psi" -> psi <> None
        | name -> List.exists (fun g -> g.g_name = name) groups
      in
      if twice then S.err seg.start (Printf.sprintf "duplicate segment %S" seg.cls)
      else
        match seg.cls with
        | "proactive" ->
          let* p = parse_proactive seg in
          go groups (Some p) psi rest
        | "psi" ->
          let* d = parse_psi seg in
          go groups proactive (Some d) rest
        | "root" -> S.err seg.start "cgroup name 'root' is reserved"
        | name when not (S.name_ok name) ->
          S.err seg.start (Printf.sprintf "bad cgroup name %S" name)
        | _ ->
          let* g = parse_group seg in
          go (g :: groups) proactive psi rest)
  in
  go [] None None segs

let spec_to_string spec =
  let group g =
    let limit k = Option.map (fun a -> k ^ "=" ^ S.amount_to_string a) in
    g.g_name ^ ":"
    ^ String.concat ","
        (("threads=" ^ S.threads_to_string g.g_threads)
        :: List.filter_map Fun.id
             [ limit "low" g.g_low; limit "high" g.g_high; limit "max" g.g_max ])
  in
  (* Intervals print as raw ns: these bytes are cache and journal keys. *)
  String.concat ";"
    (List.map group spec.groups
    @ (match spec.proactive with
      | None -> []
      | Some p ->
        [
          Printf.sprintf "proactive:interval=%d,threshold=%s,step=%s" p.p_interval_ns
            (S.float_to_string p.p_threshold) (S.amount_to_string p.p_step);
        ])
    @
    if spec.psi_interval_ns <> default_psi_interval_ns then
      [ Printf.sprintf "psi:interval=%d" spec.psi_interval_ns ]
    else [])

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)

(* Stall intervals arrive with non-decreasing start times (the machine
   records them as simulated time moves forward), are clipped to the
   window since the last advance, and folded into some/full by an
   endpoint sweep.  Deterministic: no wall clock, no randomness. *)
type psi_tracker = {
  mutable pending : (int * int) list; (* (start, end), newest first *)
  mutable last_advance : int;
  mutable some_ns : int;
  mutable full_ns : int;
}

let fresh_tracker () = { pending = []; last_advance = 0; some_ns = 0; full_ns = 0 }

(* memory.stat counter indices (see [stat_names]): the per-cgroup slice
   of the machine-wide vmstat registry.  The machine bumps these at its
   fault/reclaim points; every bump lands on the owning group *and* the
   root, so root's row is the hierarchical total, like a cgroup-v2
   parent's memory.stat. *)
let st_pgfault = 0
let st_pgmajfault = 1
let st_pgsteal = 2
let st_pswpin = 3
let st_pswpout = 4
let st_ws_refault = 5
let st_ws_activate = 6
let st_ws_restore = 7
let nr_stats = 8

let stat_names =
  [|
    "pgfault"; "pgmajfault"; "pgsteal"; "pswpin"; "pswpout";
    "workingset_refault"; "workingset_activate"; "workingset_restore";
  |]

(* One record for everything a cgroup accounts (as opposed to enforces):
   PSI, throttle and OOM tallies, request latencies, memory.stat.  Kept
   separate from the limit fields so the accounting surface has a single
   shape wherever it is swept or reported. *)
type stats = {
  mutable st_throttles : int;
  mutable st_throttled_ns : int;
  mutable st_ooms : int;
  mutable st_probe_some : int; (* some_ns at the last proactive tick *)
  st_psi : psi_tracker;
  st_read_lat : Structures.Latencies.t;
  st_write_lat : Structures.Latencies.t;
  st_vm : int array; (* memory.stat counters, [nr_stats] long *)
}

let fresh_stats () =
  {
    st_throttles = 0;
    st_throttled_ns = 0;
    st_ooms = 0;
    st_probe_some = 0;
    st_psi = fresh_tracker ();
    st_read_lat = Structures.Latencies.create ();
    st_write_lat = Structures.Latencies.create ();
    st_vm = Array.make nr_stats 0;
  }

type cgroup = {
  cg_name : string;
  (* Limits are mutable because chaos limit-churn injectors rewrite
     memory.{low,high,max} mid-run, exactly like echoing into the cgroup
     files on a live system. *)
  mutable cg_low : int;
  mutable cg_high : int;      (* max_int = unlimited *)
  mutable cg_max : int;       (* max_int = unlimited *)
  mutable cg_eff : int;       (* proactive effective limit *)
  mutable cg_eff_set : bool;  (* probe has touched cg_eff *)
  mutable cg_usage : int;
  mutable cg_live : int;
  cg_stats : stats;
}

type resolved_proactive = {
  rp_threshold : float;
  rp_step : int;
}

type t = {
  cgs : cgroup array;          (* 0 = root *)
  tid_cg : int array;          (* tid -> cgroup index *)
  page_cg : int array;         (* vpn -> cgroup index, -1 = uncharged *)
  streak : int array;          (* tid -> consecutive over-high charges *)
  global : psi_tracker;
  mutable global_live : int;
  capacity : int;
  proactive : resolved_proactive option;
  psi_every : int;
}

let create spec ~capacity_frames ~nthreads ~footprint_pages =
  (* A zero tick would repeat at the same instant forever. *)
  if spec.psi_interval_ns <= 0 then
    invalid_arg "Memcg.create: psi_interval_ns must be positive";
  (match spec.proactive with
   | Some p when p.p_interval_ns <= 0 ->
     invalid_arg "Memcg.create: p_interval_ns must be positive"
   | _ -> ());
  let limit capacity = function
    | None -> max_int
    | Some a -> S.resolve ~capacity a
  in
  let mk_group g live =
    {
      cg_name = g.g_name;
      cg_low = (match g.g_low with None -> 0 | Some a -> S.resolve ~capacity:capacity_frames a);
      cg_high = limit capacity_frames g.g_high;
      cg_max = limit capacity_frames g.g_max;
      cg_eff = max_int;
      cg_eff_set = false;
      cg_usage = 0;
      cg_live = live;
      cg_stats = fresh_stats ();
    }
  in
  let tid_cg = Array.make (max nthreads 1) 0 in
  let claimed = Array.make (max nthreads 1) false in
  List.iteri
    (fun i g ->
      List.iter
        (fun (lo, hi) ->
          for tid = lo to hi do
            if tid >= nthreads then
              invalid_arg
                (Printf.sprintf "cgroup %s: thread %d out of range (%d threads)"
                   g.g_name tid nthreads);
            if claimed.(tid) then
              invalid_arg
                (Printf.sprintf "cgroup %s: thread %d already assigned" g.g_name tid);
            claimed.(tid) <- true;
            tid_cg.(tid) <- i + 1
          done)
        g.g_threads)
    spec.groups;
  let live_of cg =
    let n = ref 0 in
    Array.iteri (fun tid c -> if tid < nthreads && c = cg then incr n) tid_cg;
    !n
  in
  let root =
    mk_group
      { g_name = "root"; g_threads = []; g_low = None; g_high = None; g_max = None }
      0
  in
  let cgs =
    Array.of_list (root :: List.map (fun g -> mk_group g 0) spec.groups)
  in
  Array.iteri (fun i cg -> cg.cg_live <- live_of i) cgs;
  {
    cgs;
    tid_cg;
    page_cg = Array.make (max footprint_pages 1) (-1);
    streak = Array.make (max nthreads 1) 0;
    global = fresh_tracker ();
    global_live = nthreads;
    capacity = capacity_frames;
    proactive =
      Option.map
        (fun p ->
          { rp_threshold = p.p_threshold;
            rp_step = max 1 (S.resolve ~capacity:capacity_frames p.p_step) })
        spec.proactive;
    psi_every =
      (match spec.proactive with
       | Some p -> min spec.psi_interval_ns p.p_interval_ns
       | None -> spec.psi_interval_ns);
  }

let ncgroups t = Array.length t.cgs
let name t cg = t.cgs.(cg).cg_name

let find t cg_name =
  let n = Array.length t.cgs in
  let rec go i =
    if i >= n then None
    else if String.equal t.cgs.(i).cg_name cg_name then Some i
    else go (i + 1)
  in
  go 0

(* Rewrite memory.{low,high,max} on a live group — the chaos limit-churn
   injector.  [None] leaves a limit untouched; [Some] values are resolved
   frame counts ([max_int] = unlimited for high/max).  The new limits
   take effect on the next charge/uncharge; the caller decides whether to
   trigger reclaim for a group now over its max. *)
let set_limits t cg ?low ?high ?max_limit () =
  let g = t.cgs.(cg) in
  (match low with Some v -> g.cg_low <- max 0 v | None -> ());
  (match high with Some v -> g.cg_high <- max 0 v | None -> ());
  (match max_limit with Some v -> g.cg_max <- max 0 v | None -> ())

let cg_of_thread t tid =
  if tid >= 0 && tid < Array.length t.tid_cg then t.tid_cg.(tid) else 0

let cg_of_page t vpn = t.page_cg.(vpn)
let usage t cg = t.cgs.(cg).cg_usage
let low t cg = t.cgs.(cg).cg_low
let high t cg = t.cgs.(cg).cg_high
let eff_limit t cg = t.cgs.(cg).cg_eff

let charge t ~tid ~vpn =
  let cg = cg_of_thread t tid in
  (* A page can only be charged once: the machine maps each vpn to at
     most one frame, and uncharges on eviction. *)
  t.page_cg.(vpn) <- cg;
  t.cgs.(cg).cg_usage <- t.cgs.(cg).cg_usage + 1

let uncharge t ~vpn =
  let cg = t.page_cg.(vpn) in
  if cg >= 0 then begin
    t.page_cg.(vpn) <- -1;
    t.cgs.(cg).cg_usage <- t.cgs.(cg).cg_usage - 1
  end

let over_high t cg =
  let g = t.cgs.(cg) in
  g.cg_high < max_int && g.cg_usage > g.cg_high

let high_overage t cg =
  let g = t.cgs.(cg) in
  if g.cg_high = max_int then 0 else max 0 (g.cg_usage - g.cg_high)

let over_max t cg ~extra =
  let g = t.cgs.(cg) in
  g.cg_max < max_int && g.cg_usage + extra > g.cg_max

let max_overage t cg ~extra =
  let g = t.cgs.(cg) in
  if g.cg_max = max_int then 0 else max 0 (g.cg_usage + extra - g.cg_max)

let low_protected t cg =
  let g = t.cgs.(cg) in
  g.cg_low > 0 && g.cg_usage <= g.cg_low

(* memory.high penalty: doubles per consecutive over-high charge, like
   the transient-I/O retry backoff, capped at 2^10 * base and 100 ms. *)
let throttle_cap_ns = 100_000_000

let throttle_ns t ~tid ~base_ns =
  let cg = cg_of_thread t tid in
  if over_high t cg then begin
    let s = t.streak.(tid) in
    t.streak.(tid) <- s + 1;
    let d = min (base_ns * (1 lsl min s 10)) throttle_cap_ns in
    let st = t.cgs.(cg).cg_stats in
    st.st_throttles <- st.st_throttles + 1;
    st.st_throttled_ns <- st.st_throttled_ns + d;
    d
  end
  else begin
    t.streak.(tid) <- 0;
    0
  end

(* ------------------------------------------------------------------ *)
(* PSI                                                                 *)

let record tracker ~t0 ~t1 =
  if t1 > t0 then tracker.pending <- (t0, t1) :: tracker.pending

let stall t ~tid ~t0 ~t1 =
  if t1 > t0 then begin
    record t.cgs.(cg_of_thread t tid).cg_stats.st_psi ~t0 ~t1;
    record t.global ~t0 ~t1
  end

let advance_tracker p ~live ~now =
  if now > p.last_advance then begin
    let lo = p.last_advance in
    if p.pending <> [] then begin
      let evs = ref [] in
      List.iter
        (fun (s, e) ->
          let s = max s lo and e = min e now in
          if e > s then evs := (s, 1) :: (e, -1) :: !evs)
        p.pending;
      let evs =
        List.sort
          (fun (a, da) (b, db) ->
            if a <> b then compare a b else compare db da)
          !evs
      in
      let cur = ref 0 and last_t = ref lo and some = ref 0 and full = ref 0 in
      List.iter
        (fun (tm, d) ->
          let dt = tm - !last_t in
          if dt > 0 then begin
            if !cur >= 1 then some := !some + dt;
            if live > 0 && !cur >= live then full := !full + dt
          end;
          last_t := tm;
          cur := !cur + d)
        evs;
      p.some_ns <- p.some_ns + !some;
      p.full_ns <- p.full_ns + !full;
      p.pending <- List.filter (fun (_, e) -> e > now) p.pending
    end;
    p.last_advance <- now
  end

(* The one stall sweep, shared by the PSI tick, thread exit and the
   end-of-run summary: fold every tracker's pending intervals forward to
   [now] against the live set they were recorded under. *)
let advance t ~now =
  Array.iter
    (fun cg -> advance_tracker cg.cg_stats.st_psi ~live:cg.cg_live ~now)
    t.cgs;
  advance_tracker t.global ~live:t.global_live ~now

let thread_exit t ~tid ~now =
  (* Sweep stalls recorded up to the exit first, so the thread's final
     stall intervals still count against the live set it belonged to —
     otherwise a single-thread cgroup's last stall would be some-only. *)
  advance t ~now;
  let cg = cg_of_thread t tid in
  t.cgs.(cg).cg_live <- max 0 (t.cgs.(cg).cg_live - 1);
  t.global_live <- max 0 (t.global_live - 1)

let psi_some t cg = t.cgs.(cg).cg_stats.st_psi.some_ns
let psi_full t cg = t.cgs.(cg).cg_stats.st_psi.full_ns
let machine_some t = t.global.some_ns
let machine_full t = t.global.full_ns
let psi_interval_ns t = t.psi_every

(* ------------------------------------------------------------------ *)
(* Proactive probe (Senpai): tighten the effective limit while the
   group's PSI pressure over the last window stays under the threshold,
   back off (twice as fast) once it crosses. *)

let proactive_on t = t.proactive <> None

let proactive_step t cg =
  match t.proactive with
  | None -> (0, 0)
  | Some p ->
    let g = t.cgs.(cg) in
    let st = g.cg_stats in
    let window = t.psi_every in
    let delta = st.st_psi.some_ns - st.st_probe_some in
    st.st_probe_some <- st.st_psi.some_ns;
    let pressure_ppm = delta * 1_000_000 / max 1 window in
    let ceiling = min g.cg_max t.capacity in
    let floor_ = max g.cg_low (min 16 ceiling) in
    if float_of_int pressure_ppm < p.rp_threshold *. 1e6 then begin
      let base = if g.cg_eff_set then min g.cg_eff g.cg_usage else g.cg_usage in
      g.cg_eff <- max floor_ (base - p.rp_step);
      g.cg_eff_set <- true
    end
    else if g.cg_eff_set then
      g.cg_eff <- min ceiling (g.cg_eff + (2 * p.rp_step));
    let want = if g.cg_eff_set then max 0 (g.cg_usage - g.cg_eff) else 0 in
    (want, pressure_ppm)

(* ------------------------------------------------------------------ *)
(* Counters and reports                                                *)

let note_oom t cg =
  let st = t.cgs.(cg).cg_stats in
  st.st_ooms <- st.st_ooms + 1

let throttled_ns t cg = t.cgs.(cg).cg_stats.st_throttled_ns

let note_latency t ~tid ~cls ns =
  let st = t.cgs.(cg_of_thread t tid).cg_stats in
  if cls = 0 then Structures.Latencies.push st.st_read_lat ns
  else if cls = 1 then Structures.Latencies.push st.st_write_lat ns

(* memory.stat bumps: the owning group and, hierarchically, the root.
   Root's own events (cg = 0) land once. *)
let vm_bump_cg t cg i =
  t.cgs.(cg).cg_stats.st_vm.(i) <- t.cgs.(cg).cg_stats.st_vm.(i) + 1;
  if cg <> 0 then t.cgs.(0).cg_stats.st_vm.(i) <- t.cgs.(0).cg_stats.st_vm.(i) + 1

let vm_bump t ~tid i = vm_bump_cg t (cg_of_thread t tid) i

let vm_bump_page t ~vpn i =
  let cg = t.page_cg.(vpn) in
  vm_bump_cg t (if cg >= 0 then cg else 0) i

type report = {
  r_name : string;
  r_usage : int;
  r_low : int;
  r_high : int;
  r_max : int;
  r_limit : int;
  r_throttles : int;
  r_throttled_ns : int;
  r_oom_kills : int;
  r_psi_some_ns : int;
  r_psi_full_ns : int;
  r_read_latencies : Structures.Latencies.runs;
  r_write_latencies : Structures.Latencies.runs;
  r_vm : int array; (* memory.stat counters, [nr_stats] long *)
}

type summary = {
  s_groups : report list;
  s_some_ns : int;
  s_full_ns : int;
}

let summary t ~now =
  advance t ~now;
  let groups =
    Array.to_list
      (Array.map
         (fun g ->
           {
             r_name = g.cg_name;
             r_usage = g.cg_usage;
             r_low = g.cg_low;
             r_high = (if g.cg_high = max_int then -1 else g.cg_high);
             r_max = (if g.cg_max = max_int then -1 else g.cg_max);
             r_limit = (if g.cg_eff_set then g.cg_eff else -1);
             r_throttles = g.cg_stats.st_throttles;
             r_throttled_ns = g.cg_stats.st_throttled_ns;
             r_oom_kills = g.cg_stats.st_ooms;
             r_psi_some_ns = g.cg_stats.st_psi.some_ns;
             r_psi_full_ns = g.cg_stats.st_psi.full_ns;
             r_read_latencies = Structures.Latencies.seal_runs g.cg_stats.st_read_lat;
             r_write_latencies = Structures.Latencies.seal_runs g.cg_stats.st_write_lat;
             r_vm = Array.copy g.cg_stats.st_vm;
           })
         t.cgs)
  in
  { s_groups = groups; s_some_ns = t.global.some_ns; s_full_ns = t.global.full_ns }
