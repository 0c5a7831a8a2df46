(* Page [vpn]'s state is one word: from the low bit up, the pinned and
   readahead-pending flags (1 bit each), the thread that faulted it in
   (16 bits), the thread that owns it (16 bits) and its retained
   swap-cache slot (29 bits, the top one the sign bit, read with [lsr]).
   Each number field holds its value + 1, so [-1] ("none") is 0 and a
   fresh page is the word 0. *)

let pinned_bit = 1
let ra_pending_bit = 2

let tid_bits = 16
let faulted_by_shift = 2
let owner_shift = faulted_by_shift + tid_bits
let retained_shift = owner_shift + tid_bits
let slot_bits = Sys.int_size - retained_shift

let max_tid = (1 lsl tid_bits) - 2
let max_slot = (1 lsl slot_bits) - 2

let tid_mask = (1 lsl tid_bits) - 1

type t = int array

let create ~pages =
  if pages < 0 then invalid_arg "Page_state.create";
  Array.make pages 0

let[@inline] tid_field t vpn shift = ((t.(vpn) lsr shift) land tid_mask) - 1

let[@inline] set_tid_field name t vpn shift tid =
  let x = tid + 1 in
  if x lsr tid_bits <> 0 then
    invalid_arg (Printf.sprintf "Page_state.%s: thread %d outside -1..%d" name tid max_tid);
  t.(vpn) <- t.(vpn) land lnot (tid_mask lsl shift) lor (x lsl shift)

let[@inline] retained t vpn = (t.(vpn) lsr retained_shift) - 1

let set_retained t vpn slot =
  let x = slot + 1 in
  if x lsr slot_bits <> 0 then
    invalid_arg
      (Printf.sprintf "Page_state.set_retained: slot %d outside -1..%d" slot max_slot);
  t.(vpn) <- t.(vpn) land lnot (-1 lsl retained_shift) lor (x lsl retained_shift)

let[@inline] faulted_by t vpn = tid_field t vpn faulted_by_shift
let set_faulted_by t vpn tid = set_tid_field "set_faulted_by" t vpn faulted_by_shift tid
let[@inline] owner t vpn = tid_field t vpn owner_shift
let set_owner t vpn tid = set_tid_field "set_owner" t vpn owner_shift tid

let[@inline] flag t vpn bit = t.(vpn) land bit <> 0

let[@inline] set_flag t vpn bit on =
  let f = t.(vpn) in
  t.(vpn) <- (if on then f lor bit else f land lnot bit)

let[@inline] pinned t vpn = flag t vpn pinned_bit
let[@inline] set_pinned t vpn on = set_flag t vpn pinned_bit on
let[@inline] ra_pending t vpn = flag t vpn ra_pending_bit
let[@inline] set_ra_pending t vpn on = set_flag t vpn ra_pending_bit on
