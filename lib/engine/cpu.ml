type t = {
  hw_threads : int;
  mutable runnable : int;
  mutable busy_ns : int;
  mutable hook : (int -> int -> unit) option;
}

let create ~hw_threads =
  if hw_threads <= 0 then invalid_arg "Cpu.create: hw_threads must be positive";
  { hw_threads; runnable = 0; busy_ns = 0; hook = None }

let runnable t = t.runnable

let run_begin t = t.runnable <- t.runnable + 1

let run_end t =
  if t.runnable <= 0 then invalid_arg "Cpu.run_end: no runnable entities";
  t.runnable <- t.runnable - 1

let load t =
  if t.runnable <= t.hw_threads then 1.0
  else float_of_int t.runnable /. float_of_int t.hw_threads

let scale t work =
  if work <= 0 then 0
  else int_of_float (float_of_int work *. load t)

let busy_ns t = t.busy_ns

let set_hook t f = t.hook <- Some f

let charge_tagged t ~phase work =
  if work > 0 then begin
    t.busy_ns <- t.busy_ns + work;
    match t.hook with None -> () | Some f -> f phase work
  end

let charge t work = charge_tagged t ~phase:(-1) work
