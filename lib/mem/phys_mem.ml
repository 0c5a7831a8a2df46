(* A frame's free and online flags share one byte of [flags]. *)
let free_bit = 1

let online_bit = 2

type t = {
  total : int;
  stack : int array;
  flags : Bytes.t;
  mutable top : int; (* number of free frames on the stack *)
  mutable online_count : int;
  low_watermark : int;
  high_watermark : int;
}

let create ?low_watermark ?high_watermark ~frames () =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  (* Kernel-like fractions: the free cushion is a small slice of memory,
     so bursty demand can outrun kswapd and fall into direct reclaim. *)
  let low =
    match low_watermark with
    | Some l -> l
    | None -> min (max 1 (frames / 4)) (max 16 (frames / 100))
  in
  let high =
    match high_watermark with
    | Some h -> h
    | None -> min (max low (frames / 2)) (max 32 (frames / 50))
  in
  if low < 0 || low > high || high > frames then
    invalid_arg "Phys_mem.create: bad watermarks";
  let stack = Array.init frames (fun i -> frames - 1 - i) in
  {
    total = frames;
    stack;
    flags = Bytes.make frames (Char.chr (free_bit lor online_bit));
    top = frames;
    online_count = frames;
    low_watermark = low;
    high_watermark = high;
  }

let frames t = t.total

let[@inline] flags t pfn = Char.code (Bytes.get t.flags pfn)

let[@inline] set_flags t pfn v = Bytes.set t.flags pfn (Char.unsafe_chr v)

let[@inline] free_flag t pfn = flags t pfn land free_bit <> 0

let[@inline] online_flag t pfn = flags t pfn land online_bit <> 0

let free_count t = t.top

let used_count t = t.online_count - t.top

let online_count t = t.online_count

let low_watermark t = t.low_watermark

let high_watermark t = t.high_watermark

(* Unboxed allocator for the fault path: -1 instead of None, so a
   successful allocation allocates nothing on the OCaml heap.  Offline
   frames are never on the stack, so hotplug costs nothing here. *)
let alloc_pfn t =
  if t.top = 0 then -1
  else begin
    t.top <- t.top - 1;
    let pfn = t.stack.(t.top) in
    set_flags t pfn online_bit;
    pfn
  end

let alloc t =
  let pfn = alloc_pfn t in
  if pfn < 0 then None else Some pfn

let free t pfn =
  if pfn < 0 || pfn >= t.total then invalid_arg "Phys_mem.free: pfn out of range";
  let f = flags t pfn in
  if f land free_bit <> 0 then invalid_arg "Phys_mem.free: double free";
  if f land online_bit = 0 then invalid_arg "Phys_mem.free: frame is offline";
  set_flags t pfn (free_bit lor online_bit);
  t.stack.(t.top) <- pfn;
  t.top <- t.top + 1

let is_free t pfn =
  if pfn < 0 || pfn >= t.total then invalid_arg "Phys_mem.is_free: pfn out of range";
  free_flag t pfn

let is_online t pfn =
  if pfn < 0 || pfn >= t.total then
    invalid_arg "Phys_mem.is_online: pfn out of range";
  online_flag t pfn

(* Memory hotplug (chaos injectors).  Offlining a free frame pulls it
   off the free stack (swap-remove: the stack is unordered between
   refills, and alloc order stays deterministic because offline events
   land at fixed virtual times); offlining an allocated frame is the
   second half of a migration — the caller has already moved the
   contents, so the frame is simply no longer accounted anywhere. *)
let offline_free t pfn =
  if pfn < 0 || pfn >= t.total then
    invalid_arg "Phys_mem.offline_free: pfn out of range";
  if not (online_flag t pfn) then invalid_arg "Phys_mem.offline_free: already offline";
  if not (free_flag t pfn) then invalid_arg "Phys_mem.offline_free: frame in use";
  let i = ref (-1) in
  for k = 0 to t.top - 1 do
    if t.stack.(k) = pfn then i := k
  done;
  if !i < 0 then invalid_arg "Phys_mem.offline_free: frame not on free stack";
  t.top <- t.top - 1;
  t.stack.(!i) <- t.stack.(t.top);
  set_flags t pfn 0;
  t.online_count <- t.online_count - 1

let offline_used t pfn =
  if pfn < 0 || pfn >= t.total then
    invalid_arg "Phys_mem.offline_used: pfn out of range";
  if not (online_flag t pfn) then invalid_arg "Phys_mem.offline_used: already offline";
  if free_flag t pfn then invalid_arg "Phys_mem.offline_used: frame is free";
  set_flags t pfn 0;
  t.online_count <- t.online_count - 1

let online t pfn =
  if pfn < 0 || pfn >= t.total then
    invalid_arg "Phys_mem.online: pfn out of range";
  if online_flag t pfn then invalid_arg "Phys_mem.online: already online";
  set_flags t pfn (free_bit lor online_bit);
  t.online_count <- t.online_count + 1;
  t.stack.(t.top) <- pfn;
  t.top <- t.top + 1

let below_low t = t.top < t.low_watermark

let above_high t = t.top >= t.high_watermark
