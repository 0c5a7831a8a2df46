type config = {
  n : int;
  avg_degree : int;
  deg_exponent : float;
  target_exponent : float;
}

let default_config =
  { n = 524_288; avg_degree = 8; deg_exponent = 0.9; target_exponent = 1.2 }

type t = {
  config : config;
  degree : int array;
  offsets : int array; (* length n+1 *)
  target_zipf : Zipf.t;
  seed : int;
  m : int;
  max_degree : int;
}

(* The degree normaliser, sum over r = 1..n of 1 / r^theta: n [**]
   calls, the same for every seed, so computed once per (n, theta). *)
let harmonics : (int * float, float) Memo.t = Memo.create ~bound:64

let harmonic ~n ~theta =
  Memo.find_or_build harmonics (n, theta) (fun () ->
      let sum = ref 0.0 in
      for r = 1 to n do
        sum := !sum +. (1.0 /. (float_of_int r ** theta))
      done;
      !sum)

let generate ?(config = default_config) ~seed () =
  if config.n <= 0 then invalid_arg "Graph.generate: n must be positive";
  if config.avg_degree <= 0 then invalid_arg "Graph.generate: avg_degree";
  let theta = config.deg_exponent in
  if not (theta > 0.0 && Float.is_finite theta) then
    invalid_arg "Graph.generate: deg_exponent must be positive and finite";
  let rng = Engine.Rng.create seed in
  let n = config.n in
  (* Random permutation: which vertex ids are the hubs. *)
  let perm = Array.init n (fun i -> i) in
  Engine.Rng.shuffle rng perm;
  (* In-degree of the vertex at zipf rank r: c / (r+1)^theta, with c set
     so the total lands on n * avg_degree. *)
  let m_target = n * config.avg_degree in
  let c = float_of_int m_target /. harmonic ~n ~theta in
  (* The term strictly decreases in r (theta > 0), so once it drops
     below 2 every later degree truncates to 1. *)
  let degree = Array.make n 1 in
  let rec place r =
    if r < n then begin
      let term = c /. (float_of_int (r + 1) ** theta) in
      if term >= 2.0 then begin
        degree.(perm.(r)) <- int_of_float term;
        place (r + 1)
      end
    end
  in
  place 0;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + degree.(v)
  done;
  let max_degree = Array.fold_left Int.max 0 degree in
  {
    config;
    degree;
    offsets;
    target_zipf = Zipf.create ~n ~exponent:config.target_exponent;
    seed;
    m = offsets.(n);
    max_degree;
  }

let n t = t.config.n

let m t = t.m

let degree t v =
  if v < 0 || v >= t.config.n then invalid_arg "Graph.degree: vertex out of range";
  t.degree.(v)

let offset t v =
  if v < 0 || v > t.config.n then invalid_arg "Graph.offset: vertex out of range";
  t.offsets.(v)

let max_degree t = t.max_degree

(* Neighbour endpoints are zipfian over raw vertex ids: out-hubs cluster
   at low ids, as in datasets ordered by popularity or crawl time.  This
   gives the rank array a hot head and a long lukewarm tail — the pages
   whose eviction timing drives PageRank's runtime variance.  (In-degree
   hubs, i.e. where the *work* lands, are permuted per trial.) *)
let iter_in_neighbors t ~rng v f =
  let d = degree t v in
  Engine.Rng.reseed rng (t.seed lxor ((v + 1) * 0x5DEECE66D));
  for _ = 1 to d do
    f (Zipf.sample t.target_zipf rng)
  done
