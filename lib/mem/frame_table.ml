(* A frame's owner is one word, [asid lsl vpn_bits lor vpn], or -1 when
   unmapped: a reverse-map lookup reads one word of one array. *)
let vpn_bits = 40

let vpn_mask = (1 lsl vpn_bits) - 1

let max_asid = max_int lsr vpn_bits

let unmapped = -1

type t = {
  owner : int array;
  mutable mapped : int;
}

let create ~frames =
  if frames <= 0 then invalid_arg "Frame_table.create: frames must be positive";
  { owner = Array.make frames unmapped; mapped = 0 }

let frames t = Array.length t.owner

let[@inline] check t pfn =
  if pfn < 0 || pfn >= frames t then invalid_arg "Frame_table: pfn out of range"

let set_owner t ~pfn ~asid ~vpn =
  check t pfn;
  if asid < 0 || asid > max_asid then invalid_arg "Frame_table: asid out of range";
  if vpn < 0 || vpn > vpn_mask then invalid_arg "Frame_table: vpn out of range";
  if t.owner.(pfn) = unmapped then t.mapped <- t.mapped + 1;
  t.owner.(pfn) <- (asid lsl vpn_bits) lor vpn

let clear_owner t ~pfn =
  check t pfn;
  if t.owner.(pfn) <> unmapped then begin
    t.mapped <- t.mapped - 1;
    t.owner.(pfn) <- unmapped
  end

let owner t pfn =
  check t pfn;
  let w = t.owner.(pfn) in
  if w = unmapped then None else Some (w lsr vpn_bits, w land vpn_mask)

(* Unboxed owner lookups for reclaim loops: -1 = unmapped, no option or
   tuple allocated. *)
let[@inline] owner_asid t pfn =
  check t pfn;
  let w = t.owner.(pfn) in
  if w = unmapped then -1 else w lsr vpn_bits

let[@inline] owner_vpn t pfn =
  check t pfn;
  let w = t.owner.(pfn) in
  if w = unmapped then -1 else w land vpn_mask

let is_mapped t pfn =
  check t pfn;
  t.owner.(pfn) <> unmapped

let mapped_count t = t.mapped
