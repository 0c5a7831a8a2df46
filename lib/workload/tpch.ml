type config = {
  table_pages : int;
  shuffle_pages : int;
  hash_pages : int;
  threads : int;
  queries : int;
  scan_chunk_pages : int;
  cpu_per_page_ns : int;
  probe_batch : int;
  window_min : float;
  hash_skew : float;
  sort_passes : int;
  dimension_pages : int;
      (** dimension tables at the front of the table region: small,
          zipf-probed by every stage of every query, so their warmth
          spans the whole spectrum from blazing to barely-reused *)
}

let default_config =
  {
    table_pages = 7_000;
    shuffle_pages = 4_500;
    hash_pages = 2_000;
    threads = 12;
    queries = 6;
    scan_chunk_pages = 32;
    cpu_per_page_ns = 12_000_000;
    probe_batch = 24;
    window_min = 0.6;
    hash_skew = 0.7;
    sort_passes = 2;
    dimension_pages = 1_200;
  }

let workload_name = "tpch"

(* Spark-SQL-style query plan: a scan stage streams the columnar table
   and materializes a shuffle partition; a sort/build stage makes
   [sort_passes] passes over that partition while building a hash table;
   a probe stage re-streams the table against the hash table and shuffle
   data; some queries end with an aggregation pass.  The shuffle
   partition and hash table are the reusable working set the replacement
   policy must protect from the table stream — per-thread work is
   balanced and stages end in barriers, which is why TPC-H runtime
   tracks its fault count so linearly (paper §V-A). *)
type stage_kind = Scan_shuffle | Sort_build | Probe | Aggregate

let stages_of_query qi =
  if qi mod 3 = 1 then [| Scan_shuffle; Sort_build; Probe; Aggregate |]
  else if qi mod 3 = 2 then [| Scan_shuffle; Probe |]
  else [| Scan_shuffle; Sort_build; Probe |]

type query_plan = {
  window_lo : int;
  window_len : int;
  shuffle_lo : int;   (* relative to the shuffle region *)
  shuffle_len : int;
  stages : stage_kind array;
}

(* One thread's cursor: the steps of its current stage, [steps.(0 ..
   len - 1)], of which [pos] have been handed out, and the next
   [(query, stage)] pair to unfold.  [steps] is reused across stages. *)
type thread = {
  rng : Engine.Rng.t;
  mutable steps : Chunk.step array;
  mutable len : int;
  mutable pos : int;
  mutable query : int;
  mutable stage : int;
}

type t = {
  config : config;
  zipfs : Zipf.t * Zipf.t;  (* hash-table and dimension-table probes *)
  queries : query_plan array;
  threads : thread array;
  shuffle_base : int;
  hash_base : int;
  footprint : int;
}

let push th step =
  if th.len = Array.length th.steps then begin
    let grown = Array.make (2 * th.len) Chunk.Barrier in
    Array.blit th.steps 0 grown 0 th.len;
    th.steps <- grown
  end;
  th.steps.(th.len) <- step;
  th.len <- th.len + 1

(* Probe traffic interleaved with a scan chunk: half hash-table lookups,
   a quarter dimension-table lookups, a quarter revisits of this query's
   shuffle partition.  The zipf skews give these regions a continuous
   spectrum of reuse distances for the policies to discriminate. *)
let probe_chunk t rng ~plan ~write =
  let config = t.config in
  let hash_zipf, dim_zipf = t.zipfs in
  let q = config.probe_batch / 4 in
  let pages =
    Array.init config.probe_batch (fun i ->
        if i < 2 * q then t.hash_base + Zipf.sample hash_zipf rng
        else if i < 3 * q then Zipf.sample dim_zipf rng
        else
          t.shuffle_base
          + ((plan.shuffle_lo + Engine.Rng.int rng plan.shuffle_len)
            mod config.shuffle_pages))
  in
  Chunk.chunk ~write
    ~cpu_ns:(config.probe_batch * config.cpu_per_page_ns / 8)
    (Chunk.Pages pages)

(* Emit chunks for a sequential pass over [lo, lo+len) (wrapping within
   [base, base+modulus)), interleaving [between] after each chunk. *)
let sequential_pass config ~push ~base ~modulus ~lo ~len ~write ?(between = fun () -> ())
    () =
  let pos = ref lo and remaining = ref len in
  while !remaining > 0 do
    let chunk_len = min config.scan_chunk_pages !remaining in
    let start = base + (!pos mod modulus) in
    let chunk_len = min chunk_len (modulus - (!pos mod modulus)) in
    push
      (Chunk.Chunk
         (Chunk.chunk ~write
            ~cpu_ns:(chunk_len * config.cpu_per_page_ns)
            (Chunk.Range { start; len = chunk_len })));
    between ();
    pos := !pos + chunk_len;
    remaining := !remaining - chunk_len
  done

(* Unfold one stage of [plan] for thread [th] into its step buffer, drawing
   from the thread's own generator. *)
let stage_steps t th ~plan ~tid kind =
  let config = t.config in
  let shuffle_base = t.shuffle_base in
  let push = push th in
  th.len <- 0;
  th.pos <- 0;
  let table_slice = plan.window_len / config.threads in
  let table_lo = plan.window_lo + (tid * table_slice) in
  let shuffle_slice = max 1 (plan.shuffle_len / config.threads) in
  let shuffle_lo = plan.shuffle_lo + (tid * shuffle_slice) in
  let probes ~write () = push (Chunk.Chunk (probe_chunk t th.rng ~plan ~write)) in
  (match kind with
  | Scan_shuffle ->
    (* Stream the table slice with dimension/hash probes, then
       materialize the shuffle partition. *)
    sequential_pass config ~push ~base:0 ~modulus:config.table_pages ~lo:table_lo
      ~len:table_slice ~write:false ~between:(probes ~write:false) ();
    sequential_pass config ~push ~base:shuffle_base ~modulus:config.shuffle_pages
      ~lo:shuffle_lo ~len:shuffle_slice ~write:true ()
  | Sort_build ->
    (* Repeated passes over the shuffle partition (external-sort style),
       building the hash table as we go. *)
    for _pass = 1 to config.sort_passes do
      sequential_pass config ~push ~base:shuffle_base ~modulus:config.shuffle_pages
        ~lo:shuffle_lo ~len:shuffle_slice ~write:true ~between:(probes ~write:true) ()
    done
  | Probe ->
    (* Re-stream the table slice against the hash table, dimension
       tables and the shuffle partition. *)
    sequential_pass config ~push ~base:0 ~modulus:config.table_pages ~lo:table_lo
      ~len:table_slice ~write:false ~between:(probes ~write:false) ();
    sequential_pass config ~push ~base:shuffle_base ~modulus:config.shuffle_pages
      ~lo:shuffle_lo ~len:shuffle_slice ~write:false ()
  | Aggregate ->
    sequential_pass config ~push ~base:shuffle_base ~modulus:config.shuffle_pages
      ~lo:shuffle_lo ~len:shuffle_slice ~write:true ~between:(probes ~write:false) ());
  push Chunk.Barrier

(* [create] draws the query plans and one generator per thread; a
   thread's steps are drawn from its generator one stage at a time, as
   [next] reaches them, in the order a whole script built up front would
   draw them. *)
let create ?(config = default_config) ~rng () =
  let shuffle_base = config.table_pages in
  let hash_base = shuffle_base + config.shuffle_pages in
  let footprint = hash_base + config.hash_pages in
  let zipfs =
    ( Zipf.create ~n:config.hash_pages ~exponent:config.hash_skew,
      Zipf.create ~n:(min config.dimension_pages config.table_pages) ~exponent:0.8 )
  in
  let queries =
    Array.init config.queries (fun qi ->
        let frac =
          config.window_min +. Engine.Rng.float rng (1.0 -. config.window_min)
        in
        let window_len = int_of_float (float_of_int config.table_pages *. frac) in
        let shuffle_len =
          min config.shuffle_pages (max config.threads (window_len / 2))
        in
        {
          window_lo = Engine.Rng.int rng config.table_pages;
          window_len;
          shuffle_lo = Engine.Rng.int rng config.shuffle_pages;
          shuffle_len;
          stages = stages_of_query qi;
        })
  in
  let threads =
    Array.init config.threads (fun _ ->
        {
          rng = Engine.Rng.split rng;
          steps = Array.make 16 Chunk.Barrier;
          len = 0;
          pos = 0;
          query = 0;
          stage = 0;
        })
  in
  { config; zipfs; queries; threads; shuffle_base; hash_base; footprint }

let threads t = t.config.threads

let footprint_pages t = t.footprint

let page_klass t page =
  if page < t.shuffle_base then Swapdev.Compress.Columnar
  else if page < t.hash_base then Swapdev.Compress.Columnar
  else Swapdev.Compress.Numeric

let file_backed _t _page = false

let rec next t ~tid =
  if tid < 0 || tid >= Array.length t.threads then invalid_arg "Tpch.next: bad thread id";
  let th = t.threads.(tid) in
  if th.pos < th.len then begin
    let step = th.steps.(th.pos) in
    th.pos <- th.pos + 1;
    step
  end
  else if th.query = Array.length t.queries then begin
    th.steps <- [||];
    th.len <- 0;
    Chunk.Finished
  end
  else begin
    let plan = t.queries.(th.query) in
    stage_steps t th ~plan ~tid plan.stages.(th.stage);
    if th.stage + 1 < Array.length plan.stages then th.stage <- th.stage + 1
    else begin
      th.query <- th.query + 1;
      th.stage <- 0
    end;
    next t ~tid
  end

let hash_base t = t.hash_base

let shuffle_base t = t.shuffle_base
