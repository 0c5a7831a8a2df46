type variant = A | B | C

let variant_name = function A -> "ycsb-a" | B -> "ycsb-b" | C -> "ycsb-c"

let update_fraction = function A -> 0.5 | B -> 0.05 | C -> 0.0

type config = {
  items : int;
  requests : int;
  threads : int;
  zipf_exponent : float;
  items_per_page : int;
  request_cpu_ns : int;
  load_batch : int;
}

let default_config =
  {
    items = 110_000;
    requests = 1_100_000;
    threads = 4;
    zipf_exponent = 0.99;
    items_per_page = 8;
    request_cpu_ns = 400_000;
    load_batch = 64;
  }

type phase = Loading of int (* next item in this thread's slice *) | Running | Done

type thread_state = {
  mutable phase : phase;
  mutable remaining : int; (* requests left in the run phase *)
  slice_lo : int;
  slice_hi : int; (* exclusive *)
  rng : Engine.Rng.t;
  req_pages : int array; (* [| meta page; item page |] of the current request *)
  read_step : Chunk.step; (* both request steps touch [req_pages] *)
  update_step : Chunk.step;
}

type t = {
  config : config;
  variant : variant;
  store : Kv_store.t;
  zipf : Zipf.t;
  states : thread_state array;
}

let workload_name = "ycsb"

let create ?(config = default_config) ~variant ~rng () =
  let store = Kv_store.create ~items_per_page:config.items_per_page ~items:config.items () in
  let zipf = Zipf.create ~n:config.items ~exponent:config.zipf_exponent in
  let per_thread = config.items / config.threads in
  let req_per_thread = config.requests / config.threads in
  let states =
    Array.init config.threads (fun tid ->
        let slice_lo = tid * per_thread in
        let slice_hi =
          if tid = config.threads - 1 then config.items else slice_lo + per_thread
        in
        let req_pages = [| 0; 0 |] in
        (* An update rewrites the item in place but only reads the hash
           page. *)
        let request ~write ~latency_class =
          Chunk.Chunk
            (Chunk.chunk ~write ~read_prefix:1 ~cpu_ns:config.request_cpu_ns
               ~latency_class (Chunk.Pages req_pages))
        in
        {
          phase = Loading slice_lo;
          remaining = req_per_thread;
          slice_lo;
          slice_hi;
          rng = Engine.Rng.split rng;
          req_pages;
          read_step = request ~write:false ~latency_class:Chunk.read_class;
          update_step = request ~write:true ~latency_class:Chunk.write_class;
        })
  in
  { config; variant; store; zipf; states }

let store t = t.store

let threads t = t.config.threads

let footprint_pages t = Kv_store.footprint_pages t.store

let page_klass t page =
  if Kv_store.is_meta_page t.store page then Swapdev.Compress.Numeric
  else Swapdev.Compress.Kv_item

let file_backed _t _page = false

(* One load chunk: insert a batch of consecutive items (slab append) and
   touch their metadata and item pages, each once, in page order.  The
   store lays every metadata page before every item page, and
   consecutive items have non-decreasing item pages, so only the hashed
   metadata pages need sorting: a short insertion sort. *)
let load_chunk t st next_item =
  let batch = min t.config.load_batch (st.slice_hi - next_item) in
  let pages = Array.make (2 * batch) 0 in
  for j = 0 to batch - 1 do
    let p = Kv_store.meta_page t.store ~key:(next_item + j) in
    let i = ref j in
    while !i > 0 && pages.(!i - 1) > p do
      pages.(!i) <- pages.(!i - 1);
      decr i
    done;
    pages.(!i) <- p;
    pages.(batch + j) <- Kv_store.item_page t.store (next_item + j)
  done;
  let distinct = ref 1 in
  for i = 1 to Array.length pages - 1 do
    if pages.(i) <> pages.(!distinct - 1) then begin
      pages.(!distinct) <- pages.(i);
      incr distinct
    end
  done;
  st.phase <- Loading (next_item + batch);
  Chunk.chunk ~write:true
    ~cpu_ns:(batch * t.config.request_cpu_ns / 4)
    (Chunk.Pages (Array.sub pages 0 !distinct))

(* One request: fills the thread's [req_pages] and returns its prebuilt
   read or update step (see the lifetime rule in {!Chunk}). *)
let request_step t st =
  let item = Zipf.sample t.zipf st.rng in
  let is_update = Engine.Rng.bool st.rng (update_fraction t.variant) in
  st.remaining <- st.remaining - 1;
  if st.remaining <= 0 then st.phase <- Done;
  st.req_pages.(0) <- Kv_store.meta_page t.store ~key:item;
  st.req_pages.(1) <- Kv_store.item_page t.store item;
  if is_update then st.update_step else st.read_step

let next t ~tid =
  let st = t.states.(tid) in
  match st.phase with
  | Loading next_item ->
    if next_item >= st.slice_hi then begin
      st.phase <- Running;
      (* Rendezvous: measurement starts when every thread finishes loading. *)
      Chunk.Barrier
    end
    else Chunk.Chunk (load_chunk t st next_item)
  | Running ->
    if st.remaining <= 0 then begin
      st.phase <- Done;
      Chunk.Finished
    end
    else request_step t st
  | Done -> Chunk.Finished
