(** Common swap-device interface.

    A device accepts 4 KB page reads/writes and models service time and
    queueing.  [submit] returns both the virtual completion time and the
    host CPU work the operation costs (interrupt handling for the SSD;
    the whole (de)compression for ZRAM, which runs on the faulting CPU
    in the kernel).

    An operation can fail: [status] distinguishes successful completions
    from transient errors (a retry may succeed — link resets, ECC
    recoveries) and permanent ones (the block is gone — media wear,
    controller death).  The physical device models ({!Ssd}, {!Zram})
    never fail; errors are injected by wrapping them in
    {!Faulty_device}. *)

type op = Read | Write

type error =
  | Transient  (** retrying the same operation may succeed *)
  | Permanent  (** the addressed block is unrecoverable *)

type status = Done | Failed of error

type completion = {
  finish_ns : int;  (** absolute virtual time the operation resolved —
                        data available on [Done], error reported on
                        [Failed] *)
  cpu_ns : int;     (** host compute consumed by this operation *)
  status : status;
}

type t = {
  name : string;
  submit : now:int -> op:op -> size_fraction:float -> completion;
      (** [size_fraction] is the compressed-size fraction for
          compressing devices; plain block devices ignore it. *)
  reads : unit -> int;
  writes : unit -> int;
  busy_until : unit -> int;
      (** latest scheduled completion over all channels; an idleness
          probe for tests *)
}

val ok : completion -> bool
(** [status = Done]. *)
