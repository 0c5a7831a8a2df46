(* Failed cells flow through aggregation as NaN (any arithmetic with a
   failed trial poisons the derived value), and every formatter renders
   NaN as the explicit "failed" marker.  Clean runs never produce NaN,
   so their output is byte-identical to builds without this path. *)
let failed_marker = "failed"

let unless_failed fmt x = if Float.is_nan x then failed_marker else fmt x

let f2 = unless_failed (Printf.sprintf "%.2f")

let f3 = unless_failed (Printf.sprintf "%.3f")

let fnorm = unless_failed (Printf.sprintf "%.2fx")

let fsec =
  unless_failed (fun x ->
      if Float.abs x >= 100.0 then Printf.sprintf "%.0fs" x
      else if Float.abs x >= 1.0 then Printf.sprintf "%.1fs" x
      else Printf.sprintf "%.3fs" x)

let fcount =
  unless_failed (fun x ->
      let s = Printf.sprintf "%.0f" x in
      (* Group digits only: separating from the end of the full string
         would misplace a comma right after the sign when the digit
         count is a multiple of three ("-,774,600"). *)
      let neg = String.length s > 0 && s.[0] = '-' in
      let digits = if neg then String.sub s 1 (String.length s - 1) else s in
      let n = String.length digits in
      let buf = Buffer.create (n + (n / 3) + 1) in
      if neg then Buffer.add_char buf '-';
      String.iteri
        (fun i c ->
          if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ',';
          Buffer.add_char buf c)
        digits;
      Buffer.contents buf)

let fns =
  unless_failed (fun x ->
      if Float.abs x >= 1e9 then Printf.sprintf "%.2fs" (x /. 1e9)
      else if Float.abs x >= 1e6 then Printf.sprintf "%.2fms" (x /. 1e6)
      else if Float.abs x >= 1e3 then Printf.sprintf "%.1fus" (x /. 1e3)
      else Printf.sprintf "%.0fns" x)

(* ------------------------------------------------------------------ *)
(* The figure model: one typed value per figure, rendered here as text *)
(* and by Csv_export as CSV.                                            *)
(* ------------------------------------------------------------------ *)

type cell =
  | Text of string
  | Ratio of float
  | Seconds of float
  | Count of float
  | Ns of float
  | Fixed of int * float
  | Int of int
  | Percent of float
  | Dash

type table = {
  caption : (string * string) list;
  stem : string;
  header : string list;
  rows : cell list list;
  export_only : bool;
}

type figure = {
  title : string;
  before : string list;
  tables : table list;
  after : string list;
}

let render = function
  | Text s -> s
  | Ratio x -> fnorm x
  | Seconds x -> fsec x
  | Count x -> fcount x
  | Ns x -> fns x
  | Fixed (digits, x) -> unless_failed (Printf.sprintf "%.*f" digits) x
  | Int n -> string_of_int n
  | Percent x -> unless_failed (Printf.sprintf "%.1f%%") x
  | Dash -> "-"

let make_table ?(caption = []) ?(export_only = false) ~stem ~header rows =
  { caption; stem; header; rows; export_only }

let section title =
  let line = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n=== %s ===\n%s\n" line title line

let subsection title = Printf.printf "\n--- %s ---\n" title

let note s = Printf.printf "  %s\n" s

(* Fixed-width aligned rows of already-rendered strings. *)
let print_rows ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c w ->
        let cell = match List.nth_opt row c with Some s -> s | None -> "" in
        if c = 0 then Printf.printf "%-*s" w cell else Printf.printf "  %*s" w cell)
      widths;
    print_newline ()
  in
  print_row header;
  List.iteri
    (fun c w -> if c = 0 then print_string (String.make w '-') else Printf.printf "  %s" (String.make w '-'))
    widths;
  print_newline ();
  List.iter print_row rows

let print_table t = print_rows ~header:t.header (List.map (List.map render) t.rows)

(* The part of [caption] past its common prefix with [prev]. *)
let rec unshared prev caption =
  match (prev, caption) with
  | p :: prev, c :: caption when p = c -> unshared prev caption
  | _, caption -> caption

(* Each table prints the subsection titles its caption path does not
   share with the previous printed table's. *)
let print_figure f =
  section f.title;
  List.iter note f.before;
  ignore
    (List.fold_left
       (fun prev t ->
         if t.export_only then prev
         else begin
           List.iter (fun (_, title) -> subsection title) (unshared prev t.caption);
           print_table t;
           t.caption
         end)
       [] f.tables);
  List.iter note f.after

(* ------------------------------------------------------------------ *)
(* Trace summary: aggregate a JSONL trace file back into tables.       *)
(* ------------------------------------------------------------------ *)

(* Per-(cell, cgroup) accumulator for the cgroup subsection. *)
type cg_stats = {
  mutable c_ooms : int;
  mutable c_throttles : int;
  mutable c_throttled_ns : int;
  mutable c_reclaims : int;
  mutable c_reclaim_freed : int;
  mutable c_psi_some_ns : int;
  mutable c_psi_full_ns : int;
  mutable c_psi_window_ns : int;
}

type trace_group = {
  mutable g_events : int;
  mutable g_trials : int list; (* distinct trial ids, insertion order *)
  g_kinds : (string, int) Hashtbl.t;
  g_reclaim : Stats.Histogram.t;
  g_swap_read : Stats.Histogram.t;
  g_swap_write : Stats.Histogram.t;
  g_cgroups : (string, cg_stats) Hashtbl.t;
  mutable g_cg_order : string list; (* appearance order, reversed *)
  mutable g_ws_hits : int; (* refaults whose shadow entry survived *)
  mutable g_ws_misses : int;
  mutable g_ws_activated : int;
  mutable g_ws_restored : int;
}

let trace_kinds =
  [
    "evict"; "reclaim"; "promote"; "demote"; "aging_pass"; "swap_read";
    "swap_write"; "oom_kill"; "workingset_refault";
  ]

let trace_summary ~path =
  let ic = open_in path in
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  let lineno = ref 0 in
  (* Byte offset of the current line's first character: pinpoints the
     first malformed record precisely enough to inspect it with dd or a
     hex editor, which a line number alone does not when records are
     long. *)
  let offset = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          incr lineno;
          let malformed msg =
            failwith
              (Printf.sprintf
                 "%s: malformed record at line %d (byte offset %d): %s" path
                 !lineno !offset msg)
          in
          if String.trim line <> "" then begin
            let fields =
              match Obs.parse_line line with
              | Ok fields -> fields
              | Error msg -> malformed msg
            in
            let str k =
              match Obs.field_string fields k with
              | Some s -> s
              | None -> malformed (Printf.sprintf "missing field %S" k)
            in
            let num k =
              match Obs.field fields k with
              | Some (Obs.Int i) -> float_of_int i
              | Some (Obs.Float f) -> f
              | _ -> malformed (Printf.sprintf "missing field %S" k)
            in
            let key =
              Printf.sprintf "%s/%s/%g%%/%s" (str "workload") (str "policy")
                (num "ratio" *. 100.0)
                (str "swap")
            in
            let g =
              match Hashtbl.find_opt groups key with
              | Some g -> g
              | None ->
                (* Swap I/O latencies share the reclaim histograms'
                   log-binned layout, so quantile tables render with the
                   same resolution across subsections. *)
                let hist () =
                  Stats.Histogram.create ~buckets_per_decade:10
                    ~lo:Obs.reclaim_hist_lo ~hi:Obs.reclaim_hist_hi ()
                in
                let g =
                  {
                    g_events = 0;
                    g_trials = [];
                    g_kinds = Hashtbl.create 8;
                    g_reclaim = hist ();
                    g_swap_read = hist ();
                    g_swap_write = hist ();
                    g_cgroups = Hashtbl.create 4;
                    g_cg_order = [];
                    g_ws_hits = 0;
                    g_ws_misses = 0;
                    g_ws_activated = 0;
                    g_ws_restored = 0;
                  }
                in
                Hashtbl.add groups key g;
                order := key :: !order;
                g
            in
            g.g_events <- g.g_events + 1;
            (match Obs.field_int fields "trial" with
            | Some t when not (List.mem t g.g_trials) ->
              g.g_trials <- t :: g.g_trials
            | _ -> ());
            let kind = str "kind" in
            Hashtbl.replace g.g_kinds kind
              (1 + Option.value ~default:0 (Hashtbl.find_opt g.g_kinds kind));
            let latency_into h =
              match Obs.field_int fields "latency_ns" with
              | Some ns -> Stats.Histogram.add h (float_of_int (max 1 ns))
              | None -> ()
            in
            let cg_of () =
              let name = str "cg" in
              match Hashtbl.find_opt g.g_cgroups name with
              | Some c -> c
              | None ->
                let c =
                  {
                    c_ooms = 0;
                    c_throttles = 0;
                    c_throttled_ns = 0;
                    c_reclaims = 0;
                    c_reclaim_freed = 0;
                    c_psi_some_ns = 0;
                    c_psi_full_ns = 0;
                    c_psi_window_ns = 0;
                  }
                in
                Hashtbl.add g.g_cgroups name c;
                g.g_cg_order <- name :: g.g_cg_order;
                c
            in
            let int_f k =
              match Obs.field_int fields k with
              | Some i -> i
              | None -> malformed (Printf.sprintf "missing field %S" k)
            in
            (match kind with
            | "reclaim" -> latency_into g.g_reclaim
            | "swap_read" -> latency_into g.g_swap_read
            | "swap_write" -> latency_into g.g_swap_write
            | "throttle" ->
              let c = cg_of () in
              c.c_throttles <- c.c_throttles + 1;
              c.c_throttled_ns <- c.c_throttled_ns + int_f "stall_ns"
            | "cgroup_oom" ->
              let c = cg_of () in
              c.c_ooms <- c.c_ooms + 1
            | "cgroup_reclaim" ->
              let c = cg_of () in
              c.c_reclaims <- c.c_reclaims + 1;
              c.c_reclaim_freed <- c.c_reclaim_freed + int_f "freed"
            | "psi" ->
              let c = cg_of () in
              c.c_psi_some_ns <- c.c_psi_some_ns + int_f "some_ns";
              c.c_psi_full_ns <- c.c_psi_full_ns + int_f "full_ns";
              c.c_psi_window_ns <- c.c_psi_window_ns + int_f "window_ns"
            | "workingset_refault" -> begin
              let flag k =
                match Obs.field fields k with
                | Some (Obs.Bool b) -> b
                | _ -> malformed (Printf.sprintf "missing field %S" k)
              in
              if flag "shadow" then begin
                g.g_ws_hits <- g.g_ws_hits + 1;
                if flag "activated" then
                  g.g_ws_activated <- g.g_ws_activated + 1;
                if flag "restored" then g.g_ws_restored <- g.g_ws_restored + 1
              end
              else g.g_ws_misses <- g.g_ws_misses + 1
            end
            | _ -> ())
          end;
          offset := !offset + String.length line + 1
        done
      with End_of_file -> ());
  let cells = List.rev !order in
  section (Printf.sprintf "Trace summary: %s" path);
  let kind_count g k = Option.value ~default:0 (Hashtbl.find_opt g.g_kinds k) in
  print_rows
    ~header:("cell" :: "trials" :: "events" :: trace_kinds)
    (List.map
       (fun key ->
         let g = Hashtbl.find groups key in
         key
         :: string_of_int (List.length g.g_trials)
         :: fcount (float_of_int g.g_events)
         :: List.map (fun k -> fcount (float_of_int (kind_count g k))) trace_kinds)
       cells);
  let with_reclaims =
    List.filter
      (fun key -> Stats.Histogram.count (Hashtbl.find groups key).g_reclaim > 0)
      cells
  in
  if with_reclaims <> [] then begin
    subsection "direct-reclaim episode latency";
    print_rows
      ~header:[ "cell"; "episodes"; "p50"; "p90"; "p99"; "max"; "mean" ]
      (List.map
         (fun key ->
           let h = (Hashtbl.find groups key).g_reclaim in
           let q p = fns (Stats.Histogram.quantile h p) in
           [
             key;
             fcount (float_of_int (Stats.Histogram.count h));
             q 0.5; q 0.9; q 0.99;
             fns (Stats.Histogram.max_seen h);
             fns (Stats.Histogram.mean h);
           ])
         with_reclaims)
  end;
  (* One row per (cell, direction) that saw any swap I/O, cells in
     appearance order, reads before writes. *)
  let swap_rows =
    List.concat_map
      (fun key ->
        let g = Hashtbl.find groups key in
        List.filter_map
          (fun (op, h) ->
            if Stats.Histogram.count h = 0 then None
            else
              let q p = fns (Stats.Histogram.quantile h p) in
              Some
                [
                  key; op;
                  fcount (float_of_int (Stats.Histogram.count h));
                  q 0.5; q 0.9; q 0.99;
                  fns (Stats.Histogram.max_seen h);
                  fns (Stats.Histogram.mean h);
                ])
          [ ("read", g.g_swap_read); ("write", g.g_swap_write) ])
      cells
  in
  if swap_rows <> [] then begin
    subsection "swap I/O latency";
    print_rows
      ~header:[ "cell"; "op"; "ops"; "p50"; "p90"; "p99"; "max"; "mean" ]
      swap_rows
  end;
  (* Cgroup containment: one row per (cell, cgroup) that emitted any
     throttle / cgroup_reclaim / cgroup_oom / psi event.  PSI averages
     are stall time over observed window time. *)
  let psi_avg stall window =
    if window = 0 then "-"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int stall /. float_of_int window)
  in
  let cg_rows =
    List.concat_map
      (fun key ->
        let g = Hashtbl.find groups key in
        List.map
          (fun name ->
            let c = Hashtbl.find g.g_cgroups name in
            [
              key; name;
              fcount (float_of_int c.c_ooms);
              fcount (float_of_int c.c_throttles);
              fns (float_of_int c.c_throttled_ns);
              fcount (float_of_int c.c_reclaims);
              fcount (float_of_int c.c_reclaim_freed);
              psi_avg c.c_psi_some_ns c.c_psi_window_ns;
              psi_avg c.c_psi_full_ns c.c_psi_window_ns;
            ])
          (List.rev g.g_cg_order))
      cells
  in
  if cg_rows <> [] then begin
    subsection "cgroups";
    print_rows
      ~header:
        [
          "cell"; "cgroup"; "oom_kills"; "throttles"; "throttled";
          "reclaims"; "reclaimed"; "psi_some"; "psi_full";
        ]
      cg_rows
  end;
  (* Workingset refault classification: one row per cell that emitted
     any workingset_refault event, splitting refaults into shadow hits
     (a surviving shadow entry yielded a distance) and misses, with the
     activated / restored verdicts among the hits. *)
  let ws_cells =
    List.filter
      (fun key ->
        let g = Hashtbl.find groups key in
        g.g_ws_hits + g.g_ws_misses > 0)
      cells
  in
  if ws_cells <> [] then begin
    subsection "workingset refaults";
    print_rows
      ~header:
        [ "cell"; "shadow_hits"; "shadow_misses"; "activated"; "restored" ]
      (List.map
         (fun key ->
           let g = Hashtbl.find groups key in
           [
             key;
             fcount (float_of_int g.g_ws_hits);
             fcount (float_of_int g.g_ws_misses);
             fcount (float_of_int g.g_ws_activated);
             fcount (float_of_int g.g_ws_restored);
           ])
         ws_cells)
  end

(* ------------------------------------------------------------------ *)
(* Vmstat tables: kernel counter names as rows, cells as columns.      *)
(* ------------------------------------------------------------------ *)

let vmstat_table cols =
  let caps = List.map snd cols in
  (* A two-column table is almost always a policy pair; the delta
     column is what the paper's Clock-vs-MG-LRU comparisons read. *)
  let delta =
    match caps with
    | [ a; b ] ->
      Some (fun i -> b.Obs.Vmstat.counters.(i) - a.Obs.Vmstat.counters.(i))
    | _ -> None
  in
  let count n = Count (float_of_int n) in
  make_table ~stem:"vmstat"
    ~header:
      (("counter" :: List.map fst cols)
      @ match delta with Some _ -> [ "delta" ] | None -> [])
    (List.init Obs.Vmstat.kernel_counters (fun i ->
         (Text (Obs.Vmstat.name i)
         :: List.map (fun (c : Obs.Vmstat.capture) -> count c.Obs.Vmstat.counters.(i)) caps)
         @ match delta with Some d -> [ count (d i) ] | None -> []))

let vmstat_refault_hist cols =
  let caps = List.map snd cols in
  (* Trim trailing all-zero buckets so small runs stay compact; the
     bucket layout itself is fixed (log2, bucket 0 = {0,1}). *)
  let last =
    List.fold_left
      (fun acc (c : Obs.Vmstat.capture) ->
        let m = ref (-1) in
        Array.iteri (fun i n -> if n > 0 then m := i) c.Obs.Vmstat.refault_dist;
        max acc !m)
      (-1) caps
  in
  if last < 0 then None
  else begin
    let label i =
      if i = 0 then "0-1"
      else if i = Obs.Vmstat.dist_buckets - 1 then
        Printf.sprintf ">=%d" (1 lsl i)
      else Printf.sprintf "%d-%d" (1 lsl i) ((1 lsl (i + 1)) - 1)
    in
    Some
      (make_table
         ~caption:
           [ ("histogram", "refault distance (pages evicted between eviction and refault)") ]
         ~stem:"refault_dist"
         ~header:("distance" :: List.map fst cols)
         (List.init (last + 1) (fun i ->
              Text (label i)
              :: List.map
                   (fun (c : Obs.Vmstat.capture) ->
                     Count (float_of_int c.Obs.Vmstat.refault_dist.(i)))
                   caps)))
  end

(* ------------------------------------------------------------------ *)
(* Profile table: perf-style rendering of merged phase totals.         *)
(* ------------------------------------------------------------------ *)

let profile_table (m : Obs.Prof.merged) =
  let n = Obs.Prof.n_phases in
  let ncls = Array.length m.Obs.Prof.m_classes in
  let self = Array.make_matrix ncls n 0 in
  let incl = Array.make n 0 in
  Array.iter
    (fun (cls, code, ns) ->
      let phases = Obs.Prof.path_phases code in
      (match List.rev phases with
      | leaf :: _ ->
        let i = Obs.Prof.phase_index leaf in
        self.(cls).(i) <- self.(cls).(i) + ns
      | [] -> ());
      (* Inclusive time counts a nanosecond once per phase on its path
         even if the phase recurs (it cannot, but dedup keeps the
         invariant explicit). *)
      List.iter
        (fun p ->
          let i = Obs.Prof.phase_index p in
          incl.(i) <- incl.(i) + ns)
        (List.sort_uniq compare phases))
    m.Obs.Prof.m_totals;
  let self_total i =
    let s = ref 0 in
    for c = 0 to ncls - 1 do
      s := !s + self.(c).(i)
    done;
    !s
  in
  (* Core-seconds denominator: CPU phases only — waits are simulated
     stalls, not processor time, so they get a "-" share. *)
  let cpu_total = ref 0 in
  for i = 0 to n - 1 do
    if not (Obs.Prof.wait_phase (Obs.Prof.phase_of_index i)) then
      cpu_total := !cpu_total + self_total i
  done;
  (* Guest-hook phases appear only when a guest policy actually charged
     them, keeping builtin-only tables identical to pre-SDK output. *)
  let visible =
    List.filter
      (fun p ->
        let i = Obs.Prof.phase_index p in
        (not (Obs.Prof.guest_phase p)) || self_total i > 0 || incl.(i) > 0)
      (Array.to_list Obs.Prof.all_phases)
  in
  let ns n = Ns (float_of_int n) in
  let rows =
    List.map
      (fun p ->
        let i = Obs.Prof.phase_index p in
        let st = self_total i in
        Text (Obs.Prof.phase_name p)
        :: List.init ncls (fun c -> ns self.(c).(i))
        @ [
            ns st;
            ns incl.(i);
            (if Obs.Prof.wait_phase p || !cpu_total = 0 then Dash
             else Percent (100.0 *. float_of_int st /. float_of_int !cpu_total));
          ])
      visible
  in
  make_table ~stem:"profile"
    ~header:
      (("phase" :: Array.to_list m.Obs.Prof.m_classes)
      @ [ "self"; "total"; "cpu%" ])
    rows

(* Per-cgroup end-of-run table for `repro run` / `repro fleet`:
   usage against limits, throttle and OOM counters, PSI shares of the
   run, and the read-latency tail where the group recorded requests. *)
let memcg_summary ~runtime_ns (s : Mem.Memcg.summary) =
  let psi stall =
    if runtime_ns <= 0 then Dash
    else Percent (100.0 *. float_of_int stall /. float_of_int runtime_ns)
  in
  let lim v = if v < 0 then Dash else Int v in
  let p99 lats =
    if Structures.Latencies.count lats = 0 then Dash
    else Ns (Stats.Percentile.quantile_runs lats 0.99)
  in
  subsection "cgroups";
  print_table
    (make_table ~stem:"cgroups"
       ~header:
         [
           "cgroup"; "usage"; "low"; "high"; "max"; "limit"; "throttles";
           "throttled"; "oom"; "psi_some"; "psi_full"; "p99_read";
         ]
       (List.map
          (fun (g : Mem.Memcg.report) ->
            [
              Text g.Mem.Memcg.r_name;
              Int g.Mem.Memcg.r_usage;
              Int g.Mem.Memcg.r_low;
              lim g.Mem.Memcg.r_high;
              lim g.Mem.Memcg.r_max;
              lim g.Mem.Memcg.r_limit;
              Int g.Mem.Memcg.r_throttles;
              Ns (float_of_int g.Mem.Memcg.r_throttled_ns);
              Int g.Mem.Memcg.r_oom_kills;
              psi g.Mem.Memcg.r_psi_some_ns;
              psi g.Mem.Memcg.r_psi_full_ns;
              p99 g.Mem.Memcg.r_read_latencies;
            ])
          s.Mem.Memcg.s_groups));
  note
    (Printf.sprintf "machine-wide psi: some %s, full %s"
       (render (psi s.Mem.Memcg.s_some_ns))
       (render (psi s.Mem.Memcg.s_full_ns)));
  (* memory.stat: stat names as rows, one column per cgroup.  Root's
     column is the hierarchical total (every bump lands there too). *)
  let any_stat =
    List.exists
      (fun (g : Mem.Memcg.report) -> Array.exists (fun v -> v > 0) g.Mem.Memcg.r_vm)
      s.Mem.Memcg.s_groups
  in
  if any_stat then begin
    subsection "memory.stat";
    print_table
      (make_table ~stem:"memory_stat"
         ~header:
           ("counter"
           :: List.map (fun (g : Mem.Memcg.report) -> g.Mem.Memcg.r_name)
                s.Mem.Memcg.s_groups)
         (List.init Mem.Memcg.nr_stats (fun i ->
              Text Mem.Memcg.stat_names.(i)
              :: List.map
                   (fun (g : Mem.Memcg.report) ->
                     Count (float_of_int g.Mem.Memcg.r_vm.(i)))
                   s.Mem.Memcg.s_groups)))
  end

let fault_summary (r : _ Machine.trial) =
  let n = Machine.count r in
  let transient = n Obs.Vmstat.injected_transient
  and permanent = n Obs.Vmstat.injected_permanent
  and stalls = n Obs.Vmstat.injected_stalls
  and spikes = n Obs.Vmstat.injected_tail_spikes in
  Printf.printf
    "      injected %d (transient %d, permanent %d, stalls %d, tail spikes %d)\n"
    (transient + permanent + stalls + spikes)
    transient permanent stalls spikes;
  Printf.printf
    "      recovery: retries %d, slot remaps %d, poisoned reads %d, pinned \
     writebacks %d\n"
    (n Obs.Vmstat.io_retries) (n Obs.Vmstat.io_remaps)
    (n Obs.Vmstat.poisoned_reads)
    (n Obs.Vmstat.writeback_failures);
  if n Obs.Vmstat.oom_kill > 0 then
    Printf.printf "      oom: %d kill(s), %d page(s) discarded\n"
      (n Obs.Vmstat.oom_kill)
      (n Obs.Vmstat.oom_discarded_pages);
  Printf.printf "      invariants: %s\n"
    (match n Obs.Vmstat.invariant_violations with
    | 0 -> "ok"
    | v -> Printf.sprintf "%d violation(s)" v)
