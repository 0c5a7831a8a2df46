type t = {
  ptes : int array;
  (* Workingset shadow tokens (see Workingset), parallel to [ptes]
     because a swapped PTE's payload already holds its swap slot.
     0 = no shadow.  Lazily allocated on the first [set_shadow] so
     runs that never evict pay nothing. *)
  mutable shadows : int array;
  region_size : int;
  mutable resident : int; (* pages with Pte.present, maintained by [set] *)
}

let create ?(region_size = 512) ~pages () =
  if pages <= 0 then invalid_arg "Page_table.create: pages must be positive";
  if region_size <= 0 then invalid_arg "Page_table.create: region_size must be positive";
  { ptes = Array.make pages Pte.empty; shadows = [||]; region_size;
    resident = 0 }

let pages t = Array.length t.ptes

let region_size t = t.region_size

let regions t = (pages t + t.region_size - 1) / t.region_size

let[@inline] check t vpn =
  if vpn < 0 || vpn >= pages t then invalid_arg "Page_table: vpn out of range"

let[@inline] get t vpn =
  check t vpn;
  t.ptes.(vpn)

let set t vpn pte =
  check t vpn;
  (* Keep the resident count incremental: gauges sample it every tick,
     and a full scan per sample dominates at multi-million-page scale. *)
  let old = t.ptes.(vpn) in
  if Pte.present pte then begin
    if not (Pte.present old) then t.resident <- t.resident + 1
  end
  else if Pte.present old then t.resident <- t.resident - 1;
  t.ptes.(vpn) <- pte

let shadow t vpn =
  check t vpn;
  if Array.length t.shadows = 0 then Workingset.no_shadow else t.shadows.(vpn)

let set_shadow t vpn token =
  check t vpn;
  if Array.length t.shadows = 0 then begin
    if token <> Workingset.no_shadow then begin
      t.shadows <- Array.make (pages t) Workingset.no_shadow;
      t.shadows.(vpn) <- token
    end
  end
  else t.shadows.(vpn) <- token

let clear_shadow t vpn = set_shadow t vpn Workingset.no_shadow

let region_of t vpn =
  check t vpn;
  vpn / t.region_size

let region_bounds t r =
  if r < 0 || r >= regions t then invalid_arg "Page_table.region_bounds";
  let first = r * t.region_size in
  (first, min (first + t.region_size - 1) (pages t - 1))

let resident t = t.resident

(* O(pages) recount, kept as the oracle the invariants audit checks the
   incremental counter against. *)
let resident_scan t =
  Array.fold_left (fun acc pte -> if Pte.present pte then acc + 1 else acc) 0 t.ptes

let iter_region t r f =
  let first, last = region_bounds t r in
  for vpn = first to last do
    f vpn t.ptes.(vpn)
  done
