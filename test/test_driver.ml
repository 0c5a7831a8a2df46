(* Thread-driver unit tests against a toy segment hook: barrier release,
   kills at a barrier, and kernel threads that sleep until woken.  The
   hook touches nothing; it records which thread ran a segment of which
   chunk, and when, and may block the segment for a set time. *)

module D = Workload.Driver
module C = Workload.Chunk
module K = Engine.Kthread

(* One chunk per page: page [p] stands for a step the test can name. *)
let step ?(cpu_ns = 1_000) p =
  C.Chunk (C.chunk ~cpu_ns (C.Range { start = p; len = 1 }))

let workload steps =
  C.Packed
    ( (module Workload.Trace),
      Workload.Trace.create
        {
          Workload.Trace.steps;
          footprint = 64;
          klass = (fun _ -> Swapdev.Compress.Zero);
          file_backed_pages = (fun _ -> false);
        } )

let barrier_ns = 500

type run = {
  sim : Engine.Sim.t;
  drv : D.t;
  seen : (int * int * int) list ref; (* (time, tid, page), newest first *)
}

(* [io_ns p]: how long the segment of page [p] blocks (the hook
   advances the cursor that far). *)
let make ?barrier_groups ?(low_memory = fun () -> false) ?(io_ns = fun _ -> 0) steps =
  let sim = Engine.Sim.create () in
  let drv =
    D.create ~sim
      ~cpu:(Engine.Cpu.create ~hw_threads:12)
      ~rng:(Engine.Rng.create 7) ~barrier_ns
      ~kthread_jitter_ns:0 ~barrier_groups (workload steps)
  in
  let seen = ref [] in
  let hooks =
    {
      D.segment =
        (fun ~tid c ~first ~last:_ ~cursor ~cpu_acc:_ ->
          let p = C.page_at c.C.pages first in
          seen := (Engine.Sim.now sim, tid, p) :: !seen;
          cursor := !cursor + io_ns p);
      low_memory;
      request_done = (fun ~tid:_ _ ~latency_ns:_ -> ());
      thread_exit = (fun ~tid:_ -> ());
    }
  in
  ({ sim; drv; seen }, hooks)

let start ?(kthreads = []) (r, hooks) =
  D.start r.drv hooks kthreads;
  r

(* When thread [tid] started its segment of page [p]; every such
   segment, oldest first. *)
let starts r ~tid ~page =
  List.rev
    (List.filter_map
       (fun (t, tid', p) -> if tid' = tid && p = page then Some t else None)
       !(r.seen))

(* Threads 0 and 1 reach the barrier after ~1 us; thread 2 after ~100
   us.  After the barrier each runs page [10 + tid]. *)
let barrier_steps =
  [|
    [| step 0; C.Barrier; step 10 |];
    [| step 1; C.Barrier; step 11 |];
    [| step ~cpu_ns:100_000 2; C.Barrier; step 12 |];
  |]

let test_barrier_waits_for_every_member () =
  let r = start (make barrier_steps) in
  Engine.Sim.run r.sim;
  let after = List.map (fun tid -> starts r ~tid ~page:(10 + tid)) [ 0; 1; 2 ] in
  (match after with
  | [ [ a ]; [ b ]; [ c ] ] ->
    Alcotest.(check bool) "held until the slow member arrived" true (a > 90_000);
    Alcotest.(check (list int)) "released together" [ a; a ] [ b; c ]
  | _ -> Alcotest.fail "each thread runs its post-barrier step once");
  Alcotest.(check bool) "run stopped" true (D.stopped r.drv)

let test_barrier_groups_are_independent () =
  (* Thread 2 alone in group 1 cannot hold back group 0. *)
  let r = start (make ~barrier_groups:[| 0; 0; 1 |] barrier_steps) in
  Engine.Sim.run r.sim;
  match (starts r ~tid:0 ~page:10, starts r ~tid:2 ~page:12) with
  | [ a ], [ c ] ->
    Alcotest.(check bool) "group 0 released early" true (a < 10_000);
    Alcotest.(check bool) "group 1 released on its own" true (c > 90_000)
  | _ -> Alcotest.fail "each thread runs its post-barrier step once"

let test_kill_releases_survivors_once () =
  (* 0 and 1 are parked; killing 2 mid-chunk assembles the group. *)
  let r = start (make barrier_steps) in
  Engine.Sim.schedule_at r.sim ~time:50_000 (fun _ -> D.kill r.drv 2);
  Engine.Sim.run r.sim;
  Alcotest.(check (list int)) "thread 0 released once" [ 50_000 + barrier_ns ]
    (starts r ~tid:0 ~page:10);
  Alcotest.(check (list int)) "thread 1 released once" [ 50_000 + barrier_ns ]
    (starts r ~tid:1 ~page:11);
  Alcotest.(check (list int)) "the dead thread never resumes" []
    (starts r ~tid:2 ~page:12);
  Alcotest.(check int) "killed at the kill time" 50_000
    (D.per_thread_finish r.drv).(2);
  Alcotest.(check bool) "killed" true (D.killed r.drv 2 && not (D.live r.drv 2))

let test_kill_parked_thread () =
  (* Killing parked thread 0 must not release thread 1 early, and must
     not be waited for once thread 2 arrives. *)
  let r = start (make barrier_steps) in
  Engine.Sim.schedule_at r.sim ~time:50_000 (fun _ -> D.kill r.drv 0);
  Engine.Sim.run r.sim;
  Alcotest.(check (list int)) "the dead thread never resumes" []
    (starts r ~tid:0 ~page:10);
  match (starts r ~tid:1 ~page:11, starts r ~tid:2 ~page:12) with
  | [ b ], [ c ] ->
    Alcotest.(check bool) "survivor waits for the slow member" true (b > 90_000);
    Alcotest.(check int) "survivors released together" b c
  | _ -> Alcotest.fail "each survivor runs its post-barrier step once"

(* A segment that did not block releases the CPU and continues in one
   event; one that blocked needs two (the release, then the wakeup). *)
let test_one_event_per_fault_free_segment () =
  let n = 8 in
  let events io_ns =
    let r = start (make ~io_ns [| Array.init n (fun p -> step p) |]) in
    Engine.Sim.run r.sim;
    Alcotest.(check bool) "ran to the end" true (D.stopped r.drv);
    Engine.Sim.events r.sim
  in
  (* Plus one start event for the lone thread. *)
  Alcotest.(check int) "fault-free chunks" (1 + n) (events (fun _ -> 0));
  Alcotest.(check int) "one blocked chunk" (1 + n + 1)
    (events (fun p -> if p = 3 then 10_000 else 0));
  Alcotest.(check int) "every chunk blocked" (1 + (2 * n)) (events (fun _ -> 10_000))

(* A kthread that records when it stepped and always sleeps until woken. *)
let sleeper sim =
  let times = ref [] in
  ( {
      K.kname = "sleeper";
      kstep =
        (fun () ->
          times := Engine.Sim.now sim :: !times;
          K.Sleep_until_woken);
    },
    times )

let test_sleep_until_woken () =
  let ((r, _) as m) = make [| [| step ~cpu_ns:200_000 0 |] |] in
  let kt, times = sleeper r.sim in
  let r = start ~kthreads:[ kt ] m in
  (* Two wakes at the same instant: the second finds it awake. *)
  Engine.Sim.schedule_at r.sim ~time:80_000 (fun _ ->
      D.wake_kthreads r.drv;
      D.wake_kthreads r.drv);
  Engine.Sim.run r.sim;
  Alcotest.(check (list int)) "steps at start and at the wake only" [ 0; 80_000 ]
    (List.rev !times)

let test_low_memory_wakes () =
  (* [low_memory] is checked after every segment: a 64-page chunk runs
     as two 32-page segments, each waking the sleeper. *)
  let pages = C.Range { start = 0; len = 64 } in
  let ((r, _) as m) =
    make ~low_memory:(fun () -> true) [| [| C.Chunk (C.chunk ~cpu_ns:1_000 pages) |] |]
  in
  let kt, times = sleeper r.sim in
  let r = start ~kthreads:[ kt ] m in
  Engine.Sim.run r.sim;
  Alcotest.(check int) "initial step plus one per segment" 3 (List.length !times)

let () =
  Alcotest.run "driver"
    [
      ( "barriers",
        [
          Alcotest.test_case "waits for every live member" `Quick
            test_barrier_waits_for_every_member;
          Alcotest.test_case "groups are independent" `Quick
            test_barrier_groups_are_independent;
          Alcotest.test_case "kill releases survivors once" `Quick
            test_kill_releases_survivors_once;
          Alcotest.test_case "kill a parked thread" `Quick test_kill_parked_thread;
        ] );
      ( "kthreads",
        [
          Alcotest.test_case "sleep until woken" `Quick test_sleep_until_woken;
          Alcotest.test_case "low memory wakes" `Quick test_low_memory_wakes;
          Alcotest.test_case "one event per fault-free segment" `Quick
            test_one_event_per_fault_free_segment;
        ] );
    ]
