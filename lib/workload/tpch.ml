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

type t = {
  config : config;
  script : Script.t;
  shuffle_base : int;
  hash_base : int;
  footprint : int;
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
  if qi mod 3 = 1 then [ Scan_shuffle; Sort_build; Probe; Aggregate ]
  else if qi mod 3 = 2 then [ Scan_shuffle; Probe ]
  else [ Scan_shuffle; Sort_build; Probe ]

type query_plan = {
  window_lo : int;
  window_len : int;
  shuffle_lo : int;   (* relative to the shuffle region *)
  shuffle_len : int;
  stages : stage_kind list;
}

(* Probe traffic interleaved with a scan chunk: half hash-table lookups,
   a quarter dimension-table lookups, a quarter revisits of this query's
   shuffle partition.  The zipf skews give these regions a continuous
   spectrum of reuse distances for the policies to discriminate. *)
let probe_chunk config rng ~zipfs ~shuffle_base ~hash_base ~plan ~write =
  let hash_zipf, dim_zipf = zipfs in
  let q = config.probe_batch / 4 in
  let pages =
    Array.init config.probe_batch (fun i ->
        if i < 2 * q then hash_base + Zipf.sample hash_zipf rng
        else if i < 3 * q then Zipf.sample dim_zipf rng
        else
          shuffle_base
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

let stage_steps config rng ~zipfs ~shuffle_base ~hash_base ~plan ~tid kind =
  let acc = ref [] in
  let push s = acc := s :: !acc in
  let table_slice = plan.window_len / config.threads in
  let table_lo = plan.window_lo + (tid * table_slice) in
  let shuffle_slice = max 1 (plan.shuffle_len / config.threads) in
  let shuffle_lo = plan.shuffle_lo + (tid * shuffle_slice) in
  let probes ~write () =
    push
      (Chunk.Chunk
         (probe_chunk config rng ~zipfs ~shuffle_base ~hash_base ~plan ~write))
  in
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
  push Chunk.Barrier;
  List.rev !acc

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
  let thread_rngs = Array.init config.threads (fun _ -> Engine.Rng.split rng) in
  let steps =
    Array.init config.threads (fun tid ->
        let acc = ref [] in
        Array.iter
          (fun plan ->
            List.iter
              (fun kind ->
                acc :=
                  List.rev_append
                    (stage_steps config thread_rngs.(tid) ~zipfs ~shuffle_base
                       ~hash_base ~plan ~tid kind)
                    !acc)
              plan.stages)
          queries;
        Array.of_list (List.rev !acc))
  in
  { config; script = Script.create steps; shuffle_base; hash_base; footprint }

let threads t = t.config.threads

let footprint_pages t = t.footprint

let page_klass t page =
  if page < t.shuffle_base then Swapdev.Compress.Columnar
  else if page < t.hash_base then Swapdev.Compress.Columnar
  else Swapdev.Compress.Numeric

let file_backed _t _page = false

let next t ~tid = Script.next t.script ~tid

let hash_base t = t.hash_base

let shuffle_base t = t.shuffle_base
