(** TPP-style transparent page placement (Maruf et al., ASPLOS'23;
    paper §II-C).

    Directly built on Clock's data structures: the fast tier keeps
    active/inactive lists balanced by accessed-bit scans, and demotion
    targets the inactive tail — "adapting Clock for page migration by
    having evictions target lower memory tiers instead of disk".
    Promotion uses NUMA-hint faults (page poisoning) on slow-tier pages:
    a page hint-faulting twice within the promotion window is considered
    part of the working set and promoted, TPP's defence against
    promoting single-touch pages.

    A headroom of free fast-tier frames is maintained so promotions
    never stall waiting for demotions. *)

let headroom_frac = 0.02 (* keep this fraction of fast frames free *)

let scan_batch = 32

let promotion_window_ns = 2_000_000_000

let poison_batch = 64 (* slow pages poisoned per step *)

let wakeup_ns = 10_000_000

let active = 0
let inactive = 1

type t = {
  env : Migration_intf.env;
  lists : Structures.Dlist.t; (* fast-tier pages, keyed by vpn *)
  last_hint_ns : int array;   (* vpn -> last hint-fault time, -1 none *)
  mutable poison_cursor : int;
  mutable just_worked : bool;
  mutable scans : int;
  mutable rotations : int;
  mutable deactivations : int;
  mutable hint_promotions : int;
}

let policy_name = "tpp"

let create (env : Migration_intf.env) =
  let pages = Mem.Page_table.pages env.Migration_intf.pt in
  {
    env;
    lists = Structures.Dlist.create ~nodes:pages ~lists:2;
    last_hint_ns = Array.make pages (-1);
    poison_cursor = 0;
    just_worked = false;
    scans = 0;
    rotations = 0;
    deactivations = 0;
    hint_promotions = 0;
  }

let headroom t =
  max 1 (int_of_float (float_of_int t.env.Migration_intf.fast_capacity
                       *. headroom_frac))

let initial_tier t ~vpn:_ =
  if t.env.Migration_intf.fast_free () > headroom t then Migration_intf.Fast
  else Migration_intf.Slow

let on_placed t ~vpn = function
  | Migration_intf.Fast -> Structures.Dlist.move_head t.lists ~list:active ~node:vpn
  | Migration_intf.Slow -> ()

(* Scan one fast-tier page from a list tail, Clock style. *)
let scan_one t ~list ~on_idle (work : int ref) =
  match Structures.Dlist.tail t.lists list with
  | None -> false
  | Some vpn ->
    let c = t.env.Migration_intf.costs in
    work := !work + c.Mem.Costs.rmap_walk_ns;
    t.scans <- t.scans + 1;
    let pte = Mem.Page_table.get t.env.Migration_intf.pt vpn in
    if (not (Mem.Pte.present pte)) || t.env.Migration_intf.tier_of vpn <> Some Migration_intf.Fast
    then begin
      Structures.Dlist.remove t.lists ~node:vpn;
      true
    end
    else if Mem.Pte.accessed pte then begin
      Mem.Page_table.set t.env.Migration_intf.pt vpn (Mem.Pte.clear_accessed pte);
      Structures.Dlist.move_head t.lists ~list:active ~node:vpn;
      t.rotations <- t.rotations + 1;
      true
    end
    else begin
      on_idle vpn;
      true
    end

let demote_for_headroom t (work : int ref) =
  let needed = ref (headroom t - t.env.Migration_intf.fast_free ()) in
  let budget = ref (4 * scan_batch) in
  while !needed > 0 && !budget > 0 do
    (* Rebalance: keep the inactive list populated. *)
    if
      Structures.Dlist.size t.lists inactive * 2
      < Structures.Dlist.size t.lists active
    then
      ignore
        (scan_one t ~list:active
           ~on_idle:(fun vpn ->
             Structures.Dlist.move_head t.lists ~list:inactive ~node:vpn;
             t.deactivations <- t.deactivations + 1)
           work);
    let demoted =
      scan_one t ~list:inactive
        ~on_idle:(fun vpn ->
          if t.env.Migration_intf.demote ~vpn then begin
            Structures.Dlist.remove t.lists ~node:vpn;
            work := !work + t.env.Migration_intf.migrate_cost_ns;
            decr needed
          end)
        work
    in
    if not demoted then begin
      (* Inactive drained: pull from active. *)
      ignore
        (scan_one t ~list:active
           ~on_idle:(fun vpn ->
             Structures.Dlist.move_head t.lists ~list:inactive ~node:vpn)
           work)
    end;
    decr budget
  done

(* Poison a rotating batch of slow-tier pages so their next touches
   produce promotion candidates. *)
let arm_hints t (work : int ref) =
  let pages = Mem.Page_table.pages t.env.Migration_intf.pt in
  let c = t.env.Migration_intf.costs in
  let armed = ref 0 and scanned = ref 0 in
  while !armed < poison_batch && !scanned < 4 * poison_batch do
    let vpn = t.poison_cursor in
    t.poison_cursor <- (t.poison_cursor + 1) mod pages;
    incr scanned;
    work := !work + c.Mem.Costs.pte_scan_ns;
    if t.env.Migration_intf.tier_of vpn = Some Migration_intf.Slow then begin
      t.env.Migration_intf.poison ~vpn;
      incr armed
    end
  done

let on_hint_fault t ~vpn tier ~write:_ =
  match tier with
  | Migration_intf.Fast -> ()
  | Migration_intf.Slow ->
    let now = t.env.Migration_intf.now () in
    let last = t.last_hint_ns.(vpn) in
    t.last_hint_ns.(vpn) <- now;
    (* Second touch within the window: working set, promote. *)
    if last >= 0 && now - last <= promotion_window_ns then begin
      if t.env.Migration_intf.promote ~vpn then begin
        t.hint_promotions <- t.hint_promotions + 1;
        Structures.Dlist.move_head t.lists ~list:active ~node:vpn
      end
    end
    else
      (* First touch: re-arm so a second touch is observable. *)
      t.env.Migration_intf.poison ~vpn

(* One sweep of work, then sleep until the next period. *)
let kthread t () =
  if t.just_worked then begin
    t.just_worked <- false;
    Migration_intf.Sleep wakeup_ns
  end
  else begin
    let work = ref 1_000 in
    demote_for_headroom t work;
    arm_hints t work;
    t.just_worked <- true;
    Migration_intf.Work !work
  end

let kthreads t = [ { Migration_intf.kname = "tpp"; kstep = kthread t } ]

let stats t =
  [
    ("active", Structures.Dlist.size t.lists active);
    ("inactive", Structures.Dlist.size t.lists inactive);
    ("scans", t.scans);
    ("rotations", t.rotations);
    ("deactivations", t.deactivations);
    ("hint_promotions", t.hint_promotions);
  ]
