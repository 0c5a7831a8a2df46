(* Deterministic simulated-time CPU profiler.

   A profiler sink attributes every nanosecond charged through
   [Engine.Cpu.charge] (and the waits the machine models outside the
   CPU) to a fixed phase taxonomy mirroring the kernel functions the
   paper names.  Like the trace sink in [Obs], a sink only observes:
   it never draws random numbers, schedules events, or charges CPU, so
   a profiled run's simulation results are identical to an unprofiled
   one, and [disabled] is free. *)

type phase =
  | App_compute
  | Fault_handling
  | Rmap_walk
  | Pte_scan
  | Aging_walk
  | Evict_scan
  | Writeback_wait
  | Swap_wait
  | Barrier_wait
  | Oom_kill
  | Hook_fault
  | Hook_access
  | Hook_tick
  | Hook_evict

let all_phases =
  [| App_compute; Fault_handling; Rmap_walk; Pte_scan; Aging_walk;
     Evict_scan; Writeback_wait; Swap_wait; Barrier_wait; Oom_kill;
     Hook_fault; Hook_access; Hook_tick; Hook_evict |]

let n_phases = Array.length all_phases

let phase_index = function
  | App_compute -> 0
  | Fault_handling -> 1
  | Rmap_walk -> 2
  | Pte_scan -> 3
  | Aging_walk -> 4
  | Evict_scan -> 5
  | Writeback_wait -> 6
  | Swap_wait -> 7
  | Barrier_wait -> 8
  | Oom_kill -> 9
  | Hook_fault -> 10
  | Hook_access -> 11
  | Hook_tick -> 12
  | Hook_evict -> 13

let phase_of_index i =
  if i < 0 || i >= n_phases then
    invalid_arg (Printf.sprintf "Prof.phase_of_index: %d" i);
  all_phases.(i)

let phase_name = function
  | App_compute -> "app_compute"
  | Fault_handling -> "fault_handling"
  | Rmap_walk -> "rmap_walk"
  | Pte_scan -> "pte_scan"
  | Aging_walk -> "aging_walk"
  | Evict_scan -> "evict_scan"
  | Writeback_wait -> "writeback_wait"
  | Swap_wait -> "swap_wait"
  | Barrier_wait -> "barrier_wait"
  | Oom_kill -> "oom_kill"
  | Hook_fault -> "hook_on_fault"
  | Hook_access -> "hook_on_access_sample"
  | Hook_tick -> "hook_on_scan_tick"
  | Hook_evict -> "hook_evict_request"

let wait_phase = function
  | Writeback_wait | Swap_wait | Barrier_wait -> true
  | _ -> false

(* The guest-hook phases exist only for runs that host a guest policy
   behind the Policy_hooks V1 API; builtin-only runs never charge them,
   and the report tables hide their rows when empty so pre-SDK output
   is byte-identical. *)
let guest_phase = function
  | Hook_fault | Hook_access | Hook_tick | Hook_evict -> true
  | _ -> false

(* Paths: an int encodes a root-first stack of phases, 4 bits per
   frame ([phase_index + 1]; 0 terminates).  Fourteen phases fit in 4
   bits and realistic stacks are <= 4 deep, far below the 15-frame
   capacity of a 63-bit int. *)

let path_code phases =
  List.fold_left (fun acc p -> (acc * 16) + phase_index p + 1) 0 phases

let path_phases code =
  if code < 0 then invalid_arg "Prof.path_phases: negative code";
  let rec go code acc =
    if code = 0 then acc
    else begin
      let f = code mod 16 in
      if f = 0 then invalid_arg "Prof.path_phases: embedded zero frame";
      go (code / 16) (phase_of_index (f - 1) :: acc)
    end
  in
  go code []

type mode = Off | Totals | Spans

type thread_class = App | Kthread

type tinfo = {
  t_name : string;
  t_class : int;
  t_default : int; (* phase index *)
  mutable t_stack : (int * int) list; (* (phase index, begin ns), innermost first *)
  mutable t_path : int;
}

type sink = {
  record_spans : bool;
  mutable classes : string array;
  mutable threads : tinfo option array; (* indexed by tid *)
  mutable cur : int;
  mutable pending : int;
  totals : (int * int, int ref) Hashtbl.t; (* (class, path) -> ns *)
  mutable spans : (int * int * int * int) list; (* (tid, phase, t0, t1), reversed *)
}

type t = sink option

let disabled = None

let create = function
  | Off -> None
  | (Totals | Spans) as mode ->
    Some
      {
        record_spans = mode = Spans;
        classes = [| "app" |];
        threads = Array.make 8 None;
        cur = 0;
        pending = 0;
        totals = Hashtbl.create 64;
        spans = [];
      }

let enabled = function None -> false | Some _ -> true

let class_index s name =
  let n = Array.length s.classes in
  let rec find i =
    if i >= n then begin
      s.classes <- Array.append s.classes [| name |];
      n
    end
    else if String.equal s.classes.(i) name then i
    else find (i + 1)
  in
  find 0

let thread s tid =
  if tid >= 0 && tid < Array.length s.threads then s.threads.(tid) else None

let register_thread t ~tid ~name ~klass ~default =
  match t with
  | None -> ()
  | Some s ->
      if tid < 0 then invalid_arg "Prof.register_thread: negative tid";
      if tid >= Array.length s.threads then begin
        let bigger = Array.make (max (tid + 1) (2 * Array.length s.threads)) None in
        Array.blit s.threads 0 bigger 0 (Array.length s.threads);
        s.threads <- bigger
      end;
      let cls = match klass with App -> 0 | Kthread -> class_index s name in
      let d = phase_index default in
      s.threads.(tid) <-
        Some { t_name = name; t_class = cls; t_default = d;
               t_stack = []; t_path = d + 1 }

let enter_thread t ~tid =
  match t with
  | None -> ()
  | Some s ->
      s.cur <- tid;
      (* Any attribution the previous thread accrued but never pushed
         through an untagged [Cpu.charge] (e.g. a kthread step that
         went back to sleep) must not leak into this thread's charges. *)
      s.pending <- 0;
      (match thread s tid with
      | None -> ()
      | Some ti ->
          ti.t_stack <- [];
          ti.t_path <- ti.t_default + 1)

let add s cls path ns =
  match Hashtbl.find_opt s.totals (cls, path) with
  | Some r -> r := !r + ns
  | None -> Hashtbl.add s.totals (cls, path) (ref ns)

let cur_phase ti =
  match ti.t_stack with (p, _) :: _ -> p | [] -> ti.t_default

(* Where a charge tagged with phase index [i] lands: the current path
   when [i] is already the innermost phase, otherwise one frame
   deeper. *)
let tag_path ti i =
  if i = cur_phase ti then ti.t_path else (ti.t_path * 16) + i + 1

let begin_phase t ~now phase =
  match t with
  | None -> ()
  | Some s -> (
      match thread s s.cur with
      | None -> ()
      | Some ti ->
          let i = phase_index phase in
          ti.t_stack <- (i, now) :: ti.t_stack;
          ti.t_path <- (ti.t_path * 16) + i + 1)

let end_phase t ~now =
  match t with
  | None -> ()
  | Some s -> (
      match thread s s.cur with
      | None -> ()
      | Some ti -> (
          match ti.t_stack with
          | [] -> ()
          | (i, t0) :: rest ->
              ti.t_stack <- rest;
              ti.t_path <- ti.t_path / 16;
              if s.record_spans then
                s.spans <- (s.cur, i, t0, max t0 now) :: s.spans))

let charge_phase t phase ns =
  match t with
  | None -> ()
  | Some s ->
      if ns > 0 then
        match thread s s.cur with
        | None -> ()
        | Some ti ->
            add s ti.t_class (tag_path ti (phase_index phase)) ns;
            (* The caller accrues this same work into a counter the
               machine later pushes through an untagged [Cpu.charge];
               remember how much is already attributed so the
               aggregate only contributes its unattributed remainder. *)
            s.pending <- s.pending + ns

(* Scoping for nested flush points: a direct-reclaim episode runs in
   the middle of a fault handler, and its aggregate untagged charge
   must consume only the attribution accrued inside the episode — not
   the fault costs accrued earlier in the segment, which flush at
   segment end. *)
let suspend_pending t =
  match t with
  | None -> 0
  | Some s ->
      let saved = s.pending in
      s.pending <- 0;
      saved

let resume_pending t saved =
  match t with None -> () | Some s -> s.pending <- s.pending + saved

let on_cpu_charge t phase_idx ns =
  match t with
  | None -> ()
  | Some s ->
      if ns > 0 then
        match thread s s.cur with
        | None -> ()
        | Some ti ->
            if phase_idx >= 0 then add s ti.t_class (tag_path ti phase_idx) ns
            else begin
              let covered = min s.pending ns in
              s.pending <- s.pending - covered;
              let rest = ns - covered in
              if rest > 0 then add s ti.t_class ti.t_path rest
            end

let wait t ~tid ~now phase ns =
  match t with
  | None -> ()
  | Some s ->
      if ns > 0 then
        match thread s tid with
        | None -> ()
        | Some ti ->
            let i = phase_index phase in
            add s ti.t_class (i + 1) ns;
            if s.record_spans then s.spans <- (tid, i, now - ns, now) :: s.spans

let span t ~tid phase ~t0 ~t1 =
  match t with
  | None -> ()
  | Some s ->
      if s.record_spans && t1 >= t0 then
        s.spans <- (tid, phase_index phase, t0, t1) :: s.spans

let mark t ~tid ~now phase = span t ~tid phase ~t0:now ~t1:now

type capture = {
  classes : string array;
  threads : (int * string * int) array; (* (tid, name, class) sorted by tid *)
  totals : (int * int * int) array; (* (class, path, ns) sorted *)
  spans : (int * int * int * int) array; (* (tid, phase, t0, t1) in record order *)
}

let capture (t : t) =
  match t with
  | None -> None
  | Some s ->
      let tarr = s.threads in
      let threads = ref [] in
      for tid = Array.length tarr - 1 downto 0 do
        match tarr.(tid) with
        | None -> ()
        | Some ti -> threads := (tid, ti.t_name, ti.t_class) :: !threads
      done;
      let totals =
        Hashtbl.fold (fun (c, p) r acc -> (c, p, !r) :: acc) s.totals []
        |> List.sort compare |> Array.of_list
      in
      Some
        {
          classes = Array.copy s.classes;
          threads = Array.of_list !threads;
          totals;
          spans = Array.of_list (List.rev s.spans);
        }

type merged = {
  m_classes : string array;
  m_totals : (int * int * int) array;
}

let merge caps =
  let idx = Hashtbl.create 8 in
  let names = ref [] in
  let totals = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let remap =
        Array.map
          (fun name ->
            match Hashtbl.find_opt idx name with
            | Some i -> i
            | None ->
                let i = Hashtbl.length idx in
                Hashtbl.add idx name i;
                names := name :: !names;
                i)
          c.classes
      in
      Array.iter
        (fun (cls, path, ns) ->
          if cls < 0 || cls >= Array.length remap then
            failwith "Prof.merge: class index out of range";
          let key = (remap.(cls), path) in
          match Hashtbl.find_opt totals key with
          | Some r -> r := !r + ns
          | None -> Hashtbl.add totals key (ref ns))
        c.totals)
    caps;
  let m_totals =
    Hashtbl.fold (fun (c, p) r acc -> (c, p, !r) :: acc) totals []
    |> List.sort compare |> Array.of_list
  in
  { m_classes = Array.of_list (List.rev !names); m_totals }
