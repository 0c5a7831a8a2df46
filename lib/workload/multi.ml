type t = {
  parts : Chunk.packed array;
  page_base : int array;   (* tenant -> first page *)
  thread_map : (int * int) array; (* global tid -> (tenant, local tid) *)
  groups : int array;
  footprint : int;
}

let workload_name = "multi"

let create parts =
  if parts = [] then invalid_arg "Multi.create: no tenants";
  let parts = Array.of_list parts in
  let n = Array.length parts in
  let page_base = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun i p ->
      page_base.(i) <- !total;
      total := !total + Chunk.packed_footprint p)
    parts;
  let thread_map =
    Array.concat
      (List.init n (fun i ->
           Array.init (Chunk.packed_threads parts.(i)) (fun local -> (i, local))))
  in
  let groups = Array.map fst thread_map in
  { parts; page_base; thread_map; groups; footprint = !total }

let tenants t = Array.length t.parts

let threads t = Array.length t.thread_map

let footprint_pages t = t.footprint

let barrier_groups t = Array.copy t.groups

let tenant_of_thread t tid = fst t.thread_map.(tid)

let tenant_page_range t i =
  let last =
    if i + 1 < Array.length t.parts then t.page_base.(i + 1) - 1 else t.footprint - 1
  in
  (t.page_base.(i), last)

let tenant_of_page t page =
  (* Tenants are few; a linear scan is fine. *)
  let rec go i =
    if i + 1 >= Array.length t.page_base then i
    else if page < t.page_base.(i + 1) then i
    else go (i + 1)
  in
  go 0

let page_klass t page =
  let i = tenant_of_page t page in
  Chunk.packed_klass t.parts.(i) (page - t.page_base.(i))

let file_backed t page =
  let i = tenant_of_page t page in
  Chunk.packed_file_backed t.parts.(i) (page - t.page_base.(i))

let shift_pages base = function
  | Chunk.Range { start; len } -> Chunk.Range { start = start + base; len }
  | Chunk.Pages a -> Chunk.Pages (Array.map (fun p -> p + base) a)

let next t ~tid =
  let tenant, local = t.thread_map.(tid) in
  match Chunk.packed_next t.parts.(tenant) ~tid:local with
  | Chunk.Finished -> Chunk.Finished
  | Chunk.Barrier -> Chunk.Barrier
  | Chunk.Chunk c ->
    Chunk.Chunk { c with Chunk.pages = shift_pages t.page_base.(tenant) c.Chunk.pages }
