(* A frame's owner is its vpn, or -1 when unmapped: a reverse-map lookup
   reads one word of one array. *)
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

let set_owner t ~pfn ~vpn =
  check t pfn;
  if vpn < 0 then invalid_arg "Frame_table: vpn out of range";
  if t.owner.(pfn) = unmapped then t.mapped <- t.mapped + 1;
  t.owner.(pfn) <- vpn

let clear_owner t ~pfn =
  check t pfn;
  if t.owner.(pfn) <> unmapped then begin
    t.mapped <- t.mapped - 1;
    t.owner.(pfn) <- unmapped
  end

let[@inline] owner_vpn t pfn =
  check t pfn;
  t.owner.(pfn)

let is_mapped t pfn =
  check t pfn;
  t.owner.(pfn) <> unmapped

let mapped_count t = t.mapped
