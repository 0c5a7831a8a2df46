type t = int

let flag_present = 1
let flag_accessed = 2
let flag_dirty = 4
let flag_file = 8
let flag_swapped = 16
let payload_shift = 8

let empty = 0

let present t = t land flag_present <> 0

let accessed t = t land flag_accessed <> 0

let dirty t = t land flag_dirty <> 0

let file_backed t = t land flag_file <> 0

let swapped t = t land flag_swapped <> 0

let payload t = t lsr payload_shift

let pfn t =
  if not (present t) then invalid_arg "Pte.pfn: entry not present";
  payload t

let swap_slot t =
  if not (swapped t) then invalid_arg "Pte.swap_slot: entry not swapped";
  payload t

let mapped ~pfn ~file_backed =
  (pfn lsl payload_shift) lor flag_present lor (if file_backed then flag_file else 0)

let set_accessed t = t lor flag_accessed

let clear_accessed t = t land lnot flag_accessed

let set_dirty t = t lor flag_dirty

let clear_dirty t = t land lnot flag_dirty

let to_swapped t ~slot =
  (slot lsl payload_shift) lor flag_swapped lor (t land flag_file)

let to_mapped t ~pfn =
  (pfn lsl payload_shift) lor flag_present lor (t land flag_file)
