type t = {
  queue : (t -> unit) Event_queue.t;
  mutable now : int;
  mutable stop_requested : bool;
  mutable events : int; (* executed by [run]; diagnostics only *)
}

(* An explicit dummy keeps popped closures collectable without pinning
   the first real event (see Event_queue.create). *)
let create () =
  {
    queue = Event_queue.create ~dummy:ignore ();
    now = 0;
    stop_requested = false;
    events = 0;
  }

let now t = t.now

let schedule t ~delay f =
  let delay = Int.max delay 0 in
  Event_queue.add t.queue ~time:(t.now + delay) f

let schedule_at t ~time f = Event_queue.add t.queue ~time:(Int.max time t.now) f

let pending t = Event_queue.size t.queue

let events t = t.events

let run ?(until = max_int) ?(cancel = Cancel.never) t =
  t.stop_requested <- false;
  let rec loop () =
    if not t.stop_requested then begin
      (* Cooperative cancellation, checked between events: the in-flight
         event always completes, so callers never observe state torn mid
         event. *)
      Cancel.check cancel;
      (* next_time/pop_payload instead of peek/pop: no option or tuple
         is allocated per event. *)
      let time = Event_queue.next_time t.queue in
      if time >= 0 && time <= until then begin
        let f = Event_queue.pop_payload t.queue in
        t.now <- time;
        t.events <- t.events + 1;
        f t;
        loop ()
      end
    end
  in
  loop ()

let stop t = t.stop_requested <- true
