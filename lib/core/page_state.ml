(* Page [vpn]'s state is the four words of the array from [4 * vpn]: its
   retained swap-cache slot, the thread that faulted it in, the thread
   that owns it, and flag bits.  The fault and reclaim paths read and
   write several of them per page, so they share one cache line. *)
let stride = 4

let f_retained = 0
let f_faulted_by = 1
let f_owner = 2
let f_flags = 3

let pinned_bit = 1
let ra_pending_bit = 2

type t = int array

let create ~pages =
  if pages < 0 then invalid_arg "Page_state.create";
  let t = Array.make (stride * pages) (-1) in
  for vpn = 0 to pages - 1 do
    t.((stride * vpn) + f_flags) <- 0
  done;
  t

let[@inline] get t vpn f = t.((stride * vpn) + f)

let[@inline] set t vpn f v = t.((stride * vpn) + f) <- v

let[@inline] retained t vpn = get t vpn f_retained
let[@inline] set_retained t vpn slot = set t vpn f_retained slot
let[@inline] faulted_by t vpn = get t vpn f_faulted_by
let[@inline] set_faulted_by t vpn tid = set t vpn f_faulted_by tid
let[@inline] owner t vpn = get t vpn f_owner
let[@inline] set_owner t vpn tid = set t vpn f_owner tid

let[@inline] flag t vpn bit = get t vpn f_flags land bit <> 0

let[@inline] set_flag t vpn bit on =
  let f = get t vpn f_flags in
  set t vpn f_flags (if on then f lor bit else f land lnot bit)

let[@inline] pinned t vpn = flag t vpn pinned_bit
let[@inline] set_pinned t vpn on = set_flag t vpn pinned_bit on
let[@inline] ra_pending t vpn = flag t vpn ra_pending_bit
let[@inline] set_ra_pending t vpn on = set_flag t vpn ra_pending_bit on
