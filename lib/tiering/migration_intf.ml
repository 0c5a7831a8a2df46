(** The contract between the tiered machine and a page migration policy.

    The paper's §II-C surveys this design space: emerging systems place
    pages across a fast tier (local DRAM) and a slow tier (CXL/remote
    memory) and migrate between them.  Unlike swap-based replacement,
    slow-tier pages remain mapped — every access just pays a latency
    penalty — so policies optimize the {e placement} of the working set
    rather than avoiding faults.

    Two information channels exist, mirroring §II-A:

    - {b accessed-bit scans}: free-ish hints with coarse timing (TPP);
    - {b page poisoning}: a policy may poison PTEs; the next touch takes
      a hint fault — precise and timestamped, but the fault costs the
      application (Thermostat, AutoNUMA).

    Policies act through the machine callbacks in {!env}: [promote]
    moves a page to the fast tier (the machine demotes nothing on its
    own — if the fast tier is full the call fails), [demote] moves one
    to the slow tier, [poison] arms a hint fault.  Costs are charged via
    the returned work of {!kstep}s, as in the replacement-policy
    interface. *)

type tier = Fast | Slow

let tier_name = function Fast -> "fast" | Slow -> "slow"

type env = {
  costs : Mem.Costs.t;
  pt : Mem.Page_table.t;
  rng : Engine.Rng.t;
  now : unit -> int;
  tier_of : int -> tier option;  (** [None] until first touch *)
  fast_free : unit -> int;
  slow_free : unit -> int;
  fast_capacity : int;
  migrate_cost_ns : int;
      (** CPU work to charge per migrated page (copy + remap) *)
  promote : vpn:int -> bool;
      (** false when the fast tier is full or the page is not on slow *)
  demote : vpn:int -> bool;
  poison : vpn:int -> unit;
  unpoison : vpn:int -> unit;
}

(* One definition, in {!Engine.Kthread}, shared with the thread driver. *)
type kstep = Engine.Kthread.kstep = Work of int | Sleep of int | Sleep_until_woken

type kthread = Engine.Kthread.t = {
  kname : string;
  kstep : unit -> kstep;
}

module type S = sig
  type t

  val policy_name : string

  val create : env -> t

  val initial_tier : t -> vpn:int -> tier
  (** Placement decision on first touch.  The machine falls back to the
      other tier if the preferred tier is full. *)

  val on_placed : t -> vpn:int -> tier -> unit
  (** The machine placed a cold page (the actual tier may differ from
      the policy's preference when a tier was full). *)

  val on_hint_fault : t -> vpn:int -> tier -> write:bool -> unit
  (** A poisoned page was touched (the machine already charged the
      fault and cleared the poison). *)

  val kthreads : t -> kthread list

  val stats : t -> (string * int) list
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let packed_name (Packed ((module P), _)) = P.policy_name
