(* Runtime swap-device degradation: the chaos `degrade` injector.

   Faulty_device models a *statically* configured failure plan fixed at
   wrap time; chaos transients need knobs a scheduler can turn mid-run.
   This decorator reads a mutable knob block on every submit:

   - [latency_mult] stretches the observed service time of each
     completion (the host-visible effect of throughput collapse on a
     synchronous requester);
   - [error_prob] fails operations with transient errors (link resets
     during a brown-out);
   - [wear_prob] fails operations permanently (media wear — capacity
     loss, since the swap manager retires poisoned slots for good).

   Neutral knobs (1.0 / 0.0 / 0.0) are exact identities: no RNG draw,
   no arithmetic on the completion, so a wrapped-but-quiet device is
   byte-identical to the unwrapped one.  The RNG is dedicated to this
   wrapper (derived from the machine seed, never split from the main
   stream), so runs with and without a degrade schedule share every
   other random draw. *)

type knobs = {
  mutable latency_mult : float;
  mutable error_prob : float;
  mutable wear_prob : float;
}

let neutral () = { latency_mult = 1.0; error_prob = 0.0; wear_prob = 0.0 }

let wrap ~knobs ~rng inner =
  let submit ~now ~op ~size_fraction =
    let busy0 = inner.Device.busy_until () in
    let c = inner.Device.submit ~now ~op ~size_fraction in
    (* Wear (permanent) is drawn before transient errors so the two
       probabilities consume a stable number of RNG draws per op while
       their window is open. *)
    if knobs.wear_prob > 0.0 && Engine.Rng.bool rng knobs.wear_prob then
      { c with Device.status = Device.Failed Device.Permanent }
    else if knobs.error_prob > 0.0 && Engine.Rng.bool rng knobs.error_prob
    then { c with Device.status = Device.Failed Device.Transient }
    else if knobs.latency_mult <> 1.0 then begin
      (* Stretch only the service portion — the completion minus the
         device's pre-submit busy floor — never the queueing delta.
         Thread-local cursors legitimately run ahead of simulated time
         here, so a stretched queue delta would be re-observed by the
         next submitter and multiplied again: the skew compounds
         exponentially in the multiplier.  Service time is bounded per
         op, so this keeps the slowdown linear and the window finite. *)
      let service = max 1 (c.Device.finish_ns - max now busy0) in
      { c with
        Device.finish_ns =
          c.Device.finish_ns
          + int_of_float
              (float_of_int service *. (knobs.latency_mult -. 1.0));
      }
    end
    else c
  in
  {
    Device.name = inner.Device.name ^ "+degrade";
    submit;
    reads = inner.Device.reads;
    writes = inner.Device.writes;
    busy_until = inner.Device.busy_until;
  }
