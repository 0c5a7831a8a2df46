(** Background kernel threads (kswapd, MG-LRU's aging walker, the
    migration policies' scanners): the thread driver calls [kstep]
    again each time the previous step has elapsed. *)

type kstep =
  | Work of int  (** consumed this many ns of CPU; re-step when it elapses *)
  | Sleep of int (** idle; re-step after this many ns *)
  | Sleep_until_woken
      (** idle until the machine signals memory pressure *)

type t = {
  kname : string;
  kstep : unit -> kstep;
}
