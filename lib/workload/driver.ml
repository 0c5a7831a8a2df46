module Prof = Obs.Prof
module Sim = Engine.Sim
module Cpu = Engine.Cpu

(* The most pages a thread touches per scheduler event, on both
   machines (DESIGN §4). *)
let segment_pages = 32

type hooks = {
  segment :
    tid:int -> Chunk.t -> first:int -> last:int -> cursor:int ref -> cpu_acc:int ref ->
    unit;
  low_memory : unit -> bool;
  request_done : tid:int -> Chunk.t -> latency_ns:int -> unit;
  thread_exit : tid:int -> unit;
}

type kthread = {
  kt : Engine.Kthread.t;
  ktid : int; (* profiler thread id: threads + index *)
  kphase : Prof.phase; (* default attribution phase / span label *)
  mutable sleeping : bool;
  mutable kwake : Sim.t -> unit; (* pre-allocated: a wakeup allocates nothing *)
}

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  rng : Engine.Rng.t;
  prof : Prof.t;
  workload : Chunk.packed;
  barrier_ns : int;
  kthread_jitter_ns : int;
  mutable hooks : hooks;
  (* Per barrier group: live members, arrived members, who is waiting. *)
  group_size : int array;
  group_arrived : int array;
  group_waiters : int list array;
  (* Per thread.  The continuations are allocated once: a segment
     schedules reused values, never fresh closures. *)
  groups : int array;
  waiting : bool array; (* parked at a barrier: an O(1) kill check *)
  arrive_ns : int array; (* when it reached the barrier *)
  finish_ns : int array;
  killed : bool array;
  stall_until : int array;
  chunk : Chunk.t array; (* in progress, with its next page and start *)
  next_index : int array;
  chunk_start : int array;
  step_k : (Sim.t -> unit) array; (* take the next step *)
  segment_k : (Sim.t -> unit) array; (* a segment's compute and waits elapsed *)
  compute_done_k : (Sim.t -> unit) array; (* [run_end], then [segment_k] *)
  resume_k : (Sim.t -> unit) array; (* a mid-chunk stall ended *)
  run_end : Sim.t -> unit;
  cursor : int ref;
  cpu_acc : int ref;
  mutable active : int;
  mutable stopped : bool;
  mutable kthreads : kthread array;
}

let threads d = Array.length d.finish_ns
let killed d tid = d.killed.(tid)
let killed_threads d = d.killed
let live d tid = d.finish_ns.(tid) < 0 && not d.killed.(tid)
let stopped d = d.stopped
let running d = (not d.stopped) && d.active > 0
let stall d ~tid ~until = d.stall_until.(tid) <- Int.max d.stall_until.(tid) until
let per_thread_finish d = Array.copy d.finish_ns
let runtime_ns d = Array.fold_left max (Sim.now d.sim) d.finish_ns

let wake_kthreads d =
  let ks_arr = d.kthreads in
  for i = 0 to Array.length ks_arr - 1 do
    let ks = ks_arr.(i) in
    if ks.sleeping then begin
      ks.sleeping <- false;
      Sim.schedule d.sim ~delay:0 ks.kwake
    end
  done

let retire d tid =
  d.finish_ns.(tid) <- Sim.now d.sim;
  d.active <- d.active - 1;
  if d.active <= 0 then begin
    d.stopped <- true;
    Sim.stop d.sim
  end

let rec run_thread d tid =
  if (not d.stopped) && not d.killed.(tid) then begin
    let su = d.stall_until.(tid) in
    if su > Sim.now d.sim then Sim.schedule_at d.sim ~time:su d.step_k.(tid)
    else
      match Chunk.packed_next d.workload ~tid with
      | Chunk.Chunk c ->
        d.chunk.(tid) <- c;
        d.chunk_start.(tid) <- Sim.now d.sim;
        process_segment d tid ~index:0
      | Chunk.Barrier -> barrier_arrive d tid
      | Chunk.Finished ->
        if d.finish_ns.(tid) < 0 then begin
          d.hooks.thread_exit ~tid;
          retire d tid
        end
  end

(* Process up to [segment_pages] of the chunk atomically, then yield to
   the event loop.  The CPU is released once the compute has elapsed;
   the thread continues once its blocked time has too.  A segment that
   did not block ends with one event that does both: nothing can be
   scheduled between the two (DESIGN §4). *)
and process_segment d tid ~index =
  let c = d.chunk.(tid) in
  let total = Chunk.page_count c.Chunk.pages in
  let seg_len = Int.min segment_pages (total - index) in
  let t0 = Sim.now d.sim in
  Cpu.run_begin d.cpu;
  Prof.enter_thread d.prof ~tid;
  d.cursor := t0;
  d.cpu_acc := if total = 0 then c.Chunk.cpu_ns else c.Chunk.cpu_ns * seg_len / total;
  d.hooks.segment ~tid c ~first:index ~last:(index + seg_len) ~cursor:d.cursor
    ~cpu_acc:d.cpu_acc;
  Cpu.charge d.cpu !(d.cpu_acc);
  let cpu_wall =
    int_of_float
      (float_of_int (Cpu.scale d.cpu !(d.cpu_acc)) *. Engine.Rng.jitter d.rng 0.02)
  in
  Prof.span d.prof ~tid Prof.App_compute ~t0 ~t1:(t0 + cpu_wall);
  let io_wait = !(d.cursor) - t0 in
  (* With [cpu_wall = 0] the kthreads woken below would run between the
     release and the continuation, so only a positive compute fuses. *)
  let fused = io_wait = 0 && cpu_wall > 0 in
  if not fused then Sim.schedule d.sim ~delay:cpu_wall d.run_end;
  if d.hooks.low_memory () then wake_kthreads d;
  d.next_index.(tid) <- index + seg_len;
  Sim.schedule d.sim ~delay:(cpu_wall + io_wait)
    (if fused then d.compute_done_k.(tid) else d.segment_k.(tid))

and segment_done d tid =
  if (not d.stopped) && not d.killed.(tid) then begin
    let c = d.chunk.(tid) in
    if d.next_index.(tid) >= Chunk.page_count c.Chunk.pages then begin
      if c.Chunk.latency_class >= 0 then
        d.hooks.request_done ~tid c ~latency_ns:(Sim.now d.sim - d.chunk_start.(tid));
      run_thread d tid
    end
    else if d.stall_until.(tid) > Sim.now d.sim then
      Sim.schedule_at d.sim ~time:d.stall_until.(tid) d.resume_k.(tid)
    else process_segment d tid ~index:d.next_index.(tid)
  end

and barrier_arrive d tid =
  let g = d.groups.(tid) in
  d.arrive_ns.(tid) <- Sim.now d.sim;
  d.group_arrived.(g) <- d.group_arrived.(g) + 1;
  d.group_waiters.(g) <- tid :: d.group_waiters.(g);
  d.waiting.(tid) <- true;
  if d.group_arrived.(g) >= d.group_size.(g) then release d g

and release d g =
  let waiters = d.group_waiters.(g) in
  d.group_arrived.(g) <- 0;
  d.group_waiters.(g) <- [];
  List.iter (fun w -> d.waiting.(w) <- false) waiters;
  Sim.schedule d.sim ~delay:d.barrier_ns (fun _ ->
      let now = Sim.now d.sim in
      List.iter
        (fun w ->
          Prof.wait d.prof ~tid:w ~now Prof.Barrier_wait (now - d.arrive_ns.(w));
          run_thread d w)
        waiters)

let kill d v =
  d.killed.(v) <- true;
  let g = d.groups.(v) in
  if d.waiting.(v) then begin
    d.group_waiters.(g) <- List.filter (fun w -> w <> v) d.group_waiters.(g);
    d.waiting.(v) <- false;
    d.group_arrived.(g) <- d.group_arrived.(g) - 1
  end;
  d.group_size.(g) <- d.group_size.(g) - 1;
  if
    d.group_size.(g) > 0
    && d.group_arrived.(g) >= d.group_size.(g)
    && d.group_waiters.(g) <> []
  then release d g;
  if d.finish_ns.(v) < 0 then retire d v

(* Run-queue latency before a kernel thread gets back on a CPU; grows
   with contention.  This is the scheduling noise the paper holds
   responsible for scan-timing variance (§VI-A). *)
let sched_delay d =
  if d.kthread_jitter_ns <= 0 then 0
  else
    let mean = float_of_int d.kthread_jitter_ns *. Cpu.load d.cpu in
    int_of_float (Engine.Rng.exponential d.rng ~mean)

(* The continuations are allocated once per kthread, not once per step. *)
let make_driver d ks =
  let rec drive () =
    if not d.stopped then begin
      Prof.enter_thread d.prof ~tid:ks.ktid;
      match ks.kt.Engine.Kthread.kstep () with
      | Engine.Kthread.Work w ->
        Cpu.run_begin d.cpu;
        Cpu.charge d.cpu w;
        let wall = Cpu.scale d.cpu w in
        let n0 = Sim.now d.sim in
        Prof.span d.prof ~tid:ks.ktid ks.kphase ~t0:n0 ~t1:(n0 + wall);
        Sim.schedule d.sim ~delay:(wall + sched_delay d) work_cont
      | Engine.Kthread.Sleep s -> Sim.schedule d.sim ~delay:(s + sched_delay d) sleep_cont
      | Engine.Kthread.Sleep_until_woken -> ks.sleeping <- true
    end
  and work_cont _ =
    Cpu.run_end d.cpu;
    drive ()
  and sleep_cont _ = drive () in
  drive

let create ~sim ~cpu ~rng ?(prof = Prof.disabled) ~barrier_ns
    ~kthread_jitter_ns ~barrier_groups workload =
  let n = Chunk.packed_threads workload in
  let groups = Option.value barrier_groups ~default:(Array.make n 0) in
  if Array.length groups <> n then invalid_arg "Driver.create: barrier_groups size";
  let group_size = Array.make (1 + Array.fold_left max 0 groups) 0 in
  Array.iter (fun g -> group_size.(g) <- group_size.(g) + 1) groups;
  let no_k : Sim.t -> unit = ignore in
  let d =
    {
      sim;
      cpu;
      rng;
      prof;
      workload;
      barrier_ns;
      kthread_jitter_ns;
      hooks =
        {
          segment = (fun ~tid:_ _ ~first:_ ~last:_ ~cursor:_ ~cpu_acc:_ -> ());
          low_memory = (fun () -> false);
          request_done = (fun ~tid:_ _ ~latency_ns:_ -> ());
          thread_exit = (fun ~tid:_ -> ());
        };
      groups;
      group_size;
      group_arrived = Array.map (fun _ -> 0) group_size;
      group_waiters = Array.map (fun _ -> []) group_size;
      waiting = Array.make n false;
      arrive_ns = Array.make n 0;
      finish_ns = Array.make n (-1);
      killed = Array.make n false;
      stall_until = Array.make n 0;
      chunk = Array.make n (Chunk.chunk (Chunk.Pages [||]));
      next_index = Array.make n 0;
      chunk_start = Array.make n 0;
      step_k = Array.make n no_k;
      segment_k = Array.make n no_k;
      compute_done_k = Array.make n no_k;
      resume_k = Array.make n no_k;
      run_end = (fun _ -> Cpu.run_end cpu);
      cursor = ref 0;
      cpu_acc = ref 0;
      active = n;
      stopped = false;
      kthreads = [||];
    }
  in
  for tid = 0 to n - 1 do
    d.step_k.(tid) <- (fun _ -> run_thread d tid);
    d.segment_k.(tid) <- (fun _ -> segment_done d tid);
    d.compute_done_k.(tid) <-
      (fun _ ->
        Cpu.run_end cpu;
        segment_done d tid);
    d.resume_k.(tid) <-
      (fun _ ->
        if (not d.stopped) && not d.killed.(tid) then
          process_segment d tid ~index:d.next_index.(tid));
    if Prof.enabled prof then
      Prof.register_thread prof ~tid ~name:(Printf.sprintf "app%d" tid) ~klass:Prof.App
        ~default:Prof.App_compute
  done;
  d

let start d hooks kthreads =
  d.hooks <- hooks;
  let n = threads d in
  let register i kt =
    let kname = kt.Engine.Kthread.kname in
    (* Aging walkers default to the linear-walk phase; everything else
       (kswapd and kin) defaults to eviction scanning. *)
    let kphase = if kname = "lru_gen_aging" then Prof.Aging_walk else Prof.Evict_scan in
    Prof.register_thread d.prof ~tid:(n + i) ~name:kname ~klass:Prof.Kthread ~default:kphase;
    let ks = { kt; ktid = n + i; kphase; sleeping = false; kwake = ignore } in
    let drive = make_driver d ks in
    ks.kwake <- (fun _ -> drive ());
    ks
  in
  d.kthreads <- Array.of_list (List.mapi register kthreads);
  Array.iter (fun ks -> Sim.schedule d.sim ~delay:0 ks.kwake) d.kthreads;
  Array.iter (fun k -> Sim.schedule d.sim ~delay:0 k) d.step_k
