(* DAMON-style adaptive region access monitor.

   Like the kernel's data-access monitor, the address space is covered
   by a small set of contiguous regions that split where access is
   non-uniform and merge back where neighbours look alike, so the
   row count per snapshot stays bounded however large the footprint is.

   Unlike the kernel we can afford an exact read: every aggregation
   tick counts the present pages whose accessed bit is set in each
   region — no random sampling, so the monitor is deterministic.  The
   bits are read, never cleared; clearing belongs to the policies'
   scanners, and a region's count therefore reflects accesses since the
   *policy* last scanned it.  Observation only: the monitor draws no
   randomness and schedules nothing, so a monitored run's results are
   identical to an unmonitored one. *)

type config = {
  aggregate_every_ns : int;
  min_regions : int;
  max_regions : int;
  merge_threshold_pct : int;
}

let default_config =
  {
    aggregate_every_ns = 100_000_000;
    min_regions = 10;
    max_regions = 100;
    merge_threshold_pct = 10;
  }

type region = {
  mutable r_start : int;
  mutable r_end : int; (* exclusive *)
}

type row = {
  w_t_ns : int;
  w_start : int;
  w_pages : int;
  w_accessed : int;
}

type t = {
  config : config;
  mutable regions : region list; (* [] until the first tick *)
  mutable rows_rev : row list;
  mutable nr_rows : int;
}

let create config =
  if config.aggregate_every_ns <= 0 then
    invalid_arg "Damon.create: aggregate_every_ns must be positive";
  if config.min_regions <= 0 || config.max_regions < config.min_regions then
    invalid_arg "Damon.create: need 0 < min_regions <= max_regions";
  { config; regions = []; rows_rev = []; nr_rows = 0 }

let aggregate_every_ns t = t.config.aggregate_every_ns

(* Initial layout: the address space cut into [min_regions] even chunks
   (fewer when the space is smaller than that). *)
let initial_regions config ~pages =
  let n = min config.min_regions pages in
  let chunk = pages / n in
  let rem = pages mod n in
  let rec build i start acc =
    if i >= n then List.rev acc
    else
      let len = chunk + if i < rem then 1 else 0 in
      build (i + 1) (start + len)
        ({ r_start = start; r_end = start + len } :: acc)
  in
  build 0 0 []

let count_accessed pt ~start ~stop =
  let a = ref 0 in
  for vpn = start to stop - 1 do
    let pte = Page_table.get pt vpn in
    if Pte.present pte && Pte.accessed pte then a := !a + 1
  done;
  !a

let pct ~accessed ~pages = if pages = 0 then 0 else 100 * accessed / pages

(* Merge adjacent regions whose access fractions differ by at most the
   threshold, never dropping below [min_regions]. *)
let merge_pass config regions access =
  let nr = ref (List.length regions) in
  let rec go = function
    | a :: b :: rest when !nr > config.min_regions ->
      let pa = pct ~accessed:(access a) ~pages:(a.r_end - a.r_start) in
      let pb = pct ~accessed:(access b) ~pages:(b.r_end - b.r_start) in
      if abs (pa - pb) <= config.merge_threshold_pct then begin
        a.r_end <- b.r_end;
        nr := !nr - 1;
        go (a :: rest)
      end
      else a :: go (b :: rest)
    | l -> l
  in
  go regions

(* Split regions whose two halves disagree by more than the threshold —
   the deterministic stand-in for DAMON's random split probes — while
   staying within [max_regions]. *)
let split_pass config pt regions =
  let nr = ref (List.length regions) in
  let rec go = function
    | [] -> []
    | r :: rest ->
      let pages = r.r_end - r.r_start in
      if pages >= 2 && !nr < config.max_regions then begin
        let mid = r.r_start + (pages / 2) in
        let la = count_accessed pt ~start:r.r_start ~stop:mid in
        let ra = count_accessed pt ~start:mid ~stop:r.r_end in
        let lp = pct ~accessed:la ~pages:(mid - r.r_start) in
        let rp = pct ~accessed:ra ~pages:(r.r_end - mid) in
        if abs (lp - rp) > config.merge_threshold_pct then begin
          let right = { r_start = mid; r_end = r.r_end } in
          r.r_end <- mid;
          nr := !nr + 1;
          r :: go (right :: rest)
        end
        else r :: go rest
      end
      else r :: go rest
  in
  go regions

let tick t ~now ~pt =
  if t.regions = [] then
    t.regions <- initial_regions t.config ~pages:(Page_table.pages pt);
  (* Count, snapshot, then adapt the layout for the next tick. *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let a = count_accessed pt ~start:r.r_start ~stop:r.r_end in
      Hashtbl.replace counts r.r_start a;
      t.rows_rev <-
        {
          w_t_ns = now;
          w_start = r.r_start;
          w_pages = r.r_end - r.r_start;
          w_accessed = a;
        }
        :: t.rows_rev;
      t.nr_rows <- t.nr_rows + 1)
    t.regions;
  let access r = try Hashtbl.find counts r.r_start with Not_found -> 0 in
  t.regions <- split_pass t.config pt (merge_pass t.config t.regions access)

type capture = {
  rows : row array; (* tick order *)
}

let capture t =
  let rows =
    Array.make t.nr_rows { w_t_ns = 0; w_start = 0; w_pages = 0; w_accessed = 0 }
  in
  List.iteri (fun i r -> rows.(t.nr_rows - 1 - i) <- r) t.rows_rev;
  { rows }
