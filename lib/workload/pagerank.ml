type config = {
  graph : Graph.config;
  threads : int;
  iterations : int;
  block_vertices : int;
  cpu_per_edge_ns : int;
  rank_bytes : int;
  edge_bytes : int;
  page_bytes : int;
}

(* Geometry note: ranks + offsets together exceed a 50%-of-footprint
   memory capacity, so the replacement policy has to pick which of the
   zipf-warm rank pages stay resident — those choices, not the CSR
   stream, are PageRank's critical faults (paper §V-B). *)
let default_config =
  {
    graph =
      {
        Graph.n = 1_572_864;
        avg_degree = 3;
        deg_exponent = 0.9;
        target_exponent = 1.2;
      };
    threads = 12;
    iterations = 10;
    block_vertices = 4096;
    cpu_per_edge_ns = 10_000;
    rank_bytes = 8;
    edge_bytes = 4;
    page_bytes = 4096;
  }

(* Per-block access plan, independent of iteration parity. *)
type block_plan = {
  edges : int;
  csr_start : int;   (* first neighbour page (absolute) *)
  csr_len : int;
  meta_pages : int array; (* offset-array pages of this block (absolute) *)
  rank_reads : int array; (* rank pages gathered, relative to a rank base *)
  dst_start : int;   (* first destination rank page, relative *)
  dst_len : int;
}

(* What the step streams read.  The graph itself is a temporary of
   [build_plan]: caching it would pin three int arrays of [n] per seed. *)
type plan = {
  blocks : block_plan array;
  offsets_pages : int;
  neighbor_pages : int;
  rank_pages : int;
}

type t = {
  config : config;
  plan : plan;
  script : Script.t;
  footprint : int;
  rank_a_base : int;
  rank_b_base : int;
}

let workload_name = "pagerank"

(* Plans are immutable once built, so every domain shares them.  Trials
   reuse a small set of seeds. *)
let plan_cache : (config * int, plan) Memo.t = Memo.create ~bound:65

(* Sort [a.(0 .. len - 1)] ascending in place: a heapsort that, unlike
   [Array.sort], allocates no exception per sift. *)
let sort_prefix (a : int array) len =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c n
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for n = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(n);
    a.(n) <- x;
    sift 0 n
  done

let build_plan (config : config) seed =
  let graph = Graph.generate ~config:config.graph ~seed () in
  let n = Graph.n graph in
  let pb = config.page_bytes in
  let offsets_pages = ((n + 1) * config.rank_bytes / pb) + 1 in
  let neighbor_pages = (Graph.m graph * config.edge_bytes / pb) + 1 in
  let rank_pages = (n * config.rank_bytes / pb) + 1 in
  let offsets_base = 0 in
  let neighbors_base = offsets_pages in
  let bv = config.block_vertices in
  let nblocks = (n + bv - 1) / bv in
  let ranks_per_page = pb / config.rank_bytes in
  let edges_per_page = pb / config.edge_bytes in
  (* One scratch generator: [iter_in_neighbors] reseeds it per vertex. *)
  let rng = Engine.Rng.create 0 in
  (* A block's gathered rank pages, deduplicated with one stamp per rank
     page (the index of the last block that touched it) and collected in
     one buffer that every block reuses, so the scratch is 2 * rank_pages
     words; a [rank_pages]-long array per block would be quadratic in n. *)
  let stamp = Array.make rank_pages (-1) in
  let buf = Array.make rank_pages 0 and len = ref 0 in
  let block = ref 0 in
  let touch u =
    let p = u / ranks_per_page in
    if stamp.(p) <> !block then begin
      stamp.(p) <- !block;
      buf.(!len) <- p;
      incr len
    end
  in
  let blocks =
    Array.init nblocks (fun b ->
        let v_lo = b * bv in
        let v_hi = min n (v_lo + bv) - 1 in
        let e_lo = Graph.offset graph v_lo in
        let e_hi = Graph.offset graph (v_hi + 1) in
        block := b;
        len := 0;
        for v = v_lo to v_hi do
          Graph.iter_in_neighbors graph ~rng v touch
        done;
        sort_prefix buf !len;
        let rank_reads = Array.sub buf 0 !len in
        let meta_lo = offsets_base + (v_lo / ranks_per_page) in
        let meta_hi = offsets_base + (v_hi / ranks_per_page) in
        {
          edges = e_hi - e_lo;
          csr_start = neighbors_base + (e_lo / edges_per_page);
          csr_len = (e_hi / edges_per_page) - (e_lo / edges_per_page) + 1;
          meta_pages = Array.init (meta_hi - meta_lo + 1) (fun i -> meta_lo + i);
          rank_reads;
          dst_start = v_lo / ranks_per_page;
          dst_len = (v_hi / ranks_per_page) - (v_lo / ranks_per_page) + 1;
        })
  in
  { blocks; offsets_pages; neighbor_pages; rank_pages }

let plan_for config seed =
  Memo.find_or_build plan_cache (config, seed) (fun () -> build_plan config seed)

let block_steps config plan ~rank_src_base ~rank_dst_base b =
  let bp = plan.blocks.(b) in
  let cpu_half = max 1 (bp.edges * config.cpu_per_edge_ns / 2) in
  let gather =
    Array.append bp.meta_pages
      (Array.map (fun p -> rank_src_base + p) bp.rank_reads)
  in
  [
    Chunk.Chunk
      (Chunk.chunk ~cpu_ns:cpu_half
         (Chunk.Range { start = bp.csr_start; len = bp.csr_len }));
    Chunk.Chunk (Chunk.chunk ~cpu_ns:cpu_half (Chunk.Pages gather));
    Chunk.Chunk
      (Chunk.chunk ~write:true ~cpu_ns:(max 1 (cpu_half / 8))
         (Chunk.Range { start = rank_dst_base + bp.dst_start; len = bp.dst_len }));
  ]

let create ?(config = default_config) ~seed () =
  let plan = plan_for config seed in
  let nblocks = Array.length plan.blocks in
  let rank_a_base = plan.offsets_pages + plan.neighbor_pages in
  let rank_b_base = rank_a_base + plan.rank_pages in
  let footprint = rank_b_base + plan.rank_pages in
  let threads = config.threads in
  (* A block's steps depend only on which rank array the iteration reads:
     build both variants once and share them across iterations. *)
  let variant ~src ~dst =
    Array.init nblocks (block_steps config plan ~rank_src_base:src ~rank_dst_base:dst)
  in
  let even = variant ~src:rank_a_base ~dst:rank_b_base in
  let odd = variant ~src:rank_b_base ~dst:rank_a_base in
  let steps =
    Array.init threads (fun tid ->
        let acc = ref [] in
        for iter = 0 to config.iterations - 1 do
          let block = if iter mod 2 = 0 then even else odd in
          (* Static contiguous block ranges, like an OpenMP static
             schedule: whichever thread drew the permuted hubs carries
             visibly more edges this trial. *)
          let lo = tid * nblocks / threads in
          let hi = ((tid + 1) * nblocks / threads) - 1 in
          for b = lo to hi do
            acc := List.rev_append block.(b) !acc
          done;
          acc := Chunk.Barrier :: !acc
        done;
        Array.of_list (List.rev !acc))
  in
  {
    config;
    plan;
    script = Script.create steps;
    footprint;
    rank_a_base;
    rank_b_base;
  }

let threads t = t.config.threads

let footprint_pages t = t.footprint

let page_klass t page =
  if page < t.rank_a_base then Swapdev.Compress.Graph_csr else Swapdev.Compress.Numeric

let file_backed _t _page = false

let next t ~tid = Script.next t.script ~tid

let rank_pages t = t.plan.rank_pages
