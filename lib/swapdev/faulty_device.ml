type plan = {
  read_error_prob : float;
  write_error_prob : float;
  permanent_fraction : float;
  burst_every_ops : int;
  burst_len_ops : int;
  burst_permanent : bool;
  stall_every_ops : int;
  stall_ns : int;
  tail_prob : float;
  tail_multiplier : float;
}

let none =
  {
    read_error_prob = 0.0;
    write_error_prob = 0.0;
    permanent_fraction = 0.0;
    burst_every_ops = 0;
    burst_len_ops = 0;
    burst_permanent = false;
    stall_every_ops = 0;
    stall_ns = 0;
    tail_prob = 0.0;
    tail_multiplier = 1.0;
  }

let is_none p =
  p.read_error_prob = 0.0 && p.write_error_prob = 0.0
  && (p.burst_every_ops <= 0 || p.burst_len_ops <= 0)
  && (p.stall_every_ops <= 0 || p.stall_ns <= 0)
  && (p.tail_prob = 0.0 || p.tail_multiplier <= 1.0)

(* Occasional recoverable hiccups: rare per-op errors, firmware pauses,
   a thin tail of slow completions. *)
let light =
  {
    none with
    read_error_prob = 0.002;
    write_error_prob = 0.002;
    permanent_fraction = 0.02;
    stall_every_ops = 4096;
    stall_ns = 5_000_000;
    tail_prob = 0.005;
    tail_multiplier = 8.0;
  }

(* A device on its way out: dense error bursts that are permanent (worn
   blocks), frequent stalls, a heavy latency tail. *)
let heavy =
  {
    read_error_prob = 0.01;
    write_error_prob = 0.01;
    permanent_fraction = 0.25;
    burst_every_ops = 600;
    burst_len_ops = 400;
    burst_permanent = true;
    stall_every_ops = 1024;
    stall_ns = 20_000_000;
    tail_prob = 0.02;
    tail_multiplier = 20.0;
  }

let plans = [ ("none", none); ("light", light); ("heavy", heavy) ]

let plan_names = List.map fst plans

let plan_of_name name = List.assoc_opt name plans

let wrap ~plan ~rng ~vmstat inner =
  let ops = ref 0 in
  let in_burst seq =
    plan.burst_every_ops > 0 && plan.burst_len_ops > 0
    && seq mod plan.burst_every_ops < plan.burst_len_ops
  in
  let submit ~now ~op ~size_fraction =
    let seq = !ops in
    incr ops;
    let c = inner.Device.submit ~now ~op ~size_fraction in
    let error =
      if in_burst seq then
        Some (if plan.burst_permanent then Device.Permanent else Device.Transient)
      else begin
        let p =
          match op with
          | Device.Read -> plan.read_error_prob
          | Device.Write -> plan.write_error_prob
        in
        if p > 0.0 && Engine.Rng.bool rng p then
          Some
            (if plan.permanent_fraction > 0.0
                && Engine.Rng.bool rng plan.permanent_fraction
             then Device.Permanent
             else Device.Transient)
        else None
      end
    in
    match error with
    | Some kind ->
      Obs.Vmstat.incr vmstat
        (match kind with
        | Device.Transient -> Obs.Vmstat.injected_transient
        | Device.Permanent -> Obs.Vmstat.injected_permanent);
      { c with Device.status = Device.Failed kind }
    | None ->
      (* Stalls and tail spikes delay only this completion (host-visible
         latency: firmware pauses, retries inside the controller); they
         do not extend the device's channel occupancy. *)
      let finish = ref c.Device.finish_ns in
      if plan.stall_every_ops > 0 && plan.stall_ns > 0
         && seq mod plan.stall_every_ops = plan.stall_every_ops - 1
      then begin
        Obs.Vmstat.incr vmstat Obs.Vmstat.injected_stalls;
        finish := !finish + plan.stall_ns
      end;
      if plan.tail_prob > 0.0 && plan.tail_multiplier > 1.0
         && Engine.Rng.bool rng plan.tail_prob
      then begin
        Obs.Vmstat.incr vmstat Obs.Vmstat.injected_tail_spikes;
        let observed = max 1 (!finish - now) in
        finish :=
          now
          + int_of_float (float_of_int observed *. plan.tail_multiplier)
      end;
      { c with Device.finish_ns = !finish }
  in
  {
    Device.name = inner.Device.name ^ "+faults";
    submit;
    reads = inner.Device.reads;
    writes = inner.Device.writes;
    busy_until = inner.Device.busy_until;
  }
