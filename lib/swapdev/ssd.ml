type config = {
  read_ns : int;
  write_ns : int;
  channels : int;
  jitter : float;
  cpu_per_op_ns : int;
  size_sensitivity : float;
}

(* 7.5 ms per 4 KB op as the paper measures; 8 concurrent ops reflect a
   SATA NCQ-depth worth of internal parallelism, so sustained thrash is
   bounded by per-thread fault serialization rather than raw device
   bandwidth.  Swap transfers whole 4 KB pages regardless of their
   compressibility, so the default is insensitive to [size_fraction];
   raise [size_sensitivity] to study partial-page transfers. *)
let default_config =
  { read_ns = 7_500_000; write_ns = 7_500_000; channels = 8; jitter = 0.05;
    cpu_per_op_ns = 3_000; size_sensitivity = 0.0 }

let create ?(config = default_config) ~rng () =
  if config.channels <= 0 then invalid_arg "Ssd.create: channels must be positive";
  let free_at = Array.make config.channels 0 in
  let reads = ref 0 and writes = ref 0 in
  let earliest_channel () =
    let best = ref 0 in
    for i = 1 to config.channels - 1 do
      if free_at.(i) < free_at.(!best) then best := i
    done;
    !best
  in
  let submit ~now ~op ~size_fraction =
    let base =
      match op with
      | Device.Read ->
        incr reads;
        config.read_ns
      | Device.Write ->
        incr writes;
        config.write_ns
    in
    (* Interpolate between size-blind (s = 0) and fully proportional
       (s = 1) service time; a full-size transfer always costs [base],
       so [size_sensitivity] never changes whole-page behaviour. *)
    let s = config.size_sensitivity in
    let size_scale = 1.0 -. s +. (s *. Float.max 0.01 size_fraction) in
    let service =
      int_of_float
        (float_of_int base *. size_scale *. Engine.Rng.jitter rng config.jitter)
    in
    let ch = earliest_channel () in
    let start = Int.max now free_at.(ch) in
    let finish = start + service in
    free_at.(ch) <- finish;
    { Device.finish_ns = finish; cpu_ns = config.cpu_per_op_ns; status = Device.Done }
  in
  {
    Device.name = "ssd";
    submit;
    reads = (fun () -> !reads);
    writes = (fun () -> !writes);
    busy_until = (fun () -> Array.fold_left max 0 free_at);
  }
