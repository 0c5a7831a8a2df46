type op = Read | Write

type error = Transient | Permanent

type status = Done | Failed of error

type completion = {
  finish_ns : int;
  cpu_ns : int;
  status : status;
}

type t = {
  name : string;
  submit : now:int -> op:op -> size_fraction:float -> completion;
  reads : unit -> int;
  writes : unit -> int;
  busy_until : unit -> int;
}

let ok completion = completion.status = Done
