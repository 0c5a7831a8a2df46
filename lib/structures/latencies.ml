type t = { mutable buf : int array; mutable n : int }

let create () = { buf = Array.make 1024 0; n = 0 }

let push l ns =
  if ns < 0 then invalid_arg "Latencies.push: negative latency";
  if l.n = Array.length l.buf then begin
    let bigger = Array.make (2 * l.n) 0 in
    Array.blit l.buf 0 bigger 0 l.n;
    l.buf <- bigger
  end;
  l.buf.(l.n) <- ns;
  l.n <- l.n + 1

let bits = 11
let mask = (1 lsl bits) - 1

(* LSD radix sort on [bits]-bit digits, one pass per digit of the largest
   value (three below 2^33 ns), so no range is capped.  Passes alternate
   between the buffer and [out]; an odd count starts from the buffer, an
   even one from a copy in [out], so the last pass lands in [out]. *)
let seal l =
  let n = l.n and buf = l.buf in
  l.n <- 0;
  let rec digits v = if v = 0 then 0 else 1 + digits (v lsr bits) in
  let top = ref 0 in
  for i = 0 to n - 1 do top := Int.max !top buf.(i) done;
  let passes = digits !top in
  (* [count.(d)] ends up the first slot of digit [d]'s values *)
  let out = Array.make n 0 and count = Array.make (mask + 2) 0 in
  if passes land 1 = 0 then Array.blit buf 0 out 0 n;
  for pass = 0 to passes - 1 do
    let odd = (passes - pass) land 1 = 1 and shift = pass * bits in
    let src = if odd then buf else out and dst = if odd then out else buf in
    Array.fill count 0 (mask + 2) 0;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land mask in
      count.(d + 1) <- count.(d + 1) + 1
    done;
    for d = 1 to mask do count.(d) <- count.(d) + count.(d - 1) done;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land mask in
      dst.(count.(d)) <- src.(i);
      count.(d) <- count.(d) + 1
    done
  done;
  out

(* Runs: LEB128 (delta, count) pairs, each value the delta above the
   previous run's (the first above 0), seven bits a byte, low bits
   first.  Every constructor goes through [encode], which refuses
   anything but strictly ascending non-negative values with counts of
   at least 1, so equal multisets encode to equal bytes. *)
type runs = { count : int; data : string }

let empty = { count = 0; data = "" }

let rec varint_length v = if v < 0x80 then 1 else 1 + varint_length (v lsr 7)

let rec put_varint b pos v =
  if v < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_varint b (pos + 1) (v lsr 7)
  end

(* Where [encode] puts runs.  A fill runs twice: first [sizing], when
   [put] checks each run and counts its bytes into [pos], then into
   [b], allocated at exactly that size. *)
type sink = {
  mutable b : Bytes.t;
  mutable sizing : bool;
  mutable pos : int;
  mutable prev : int;  (* the last value put; -1 before the first *)
  mutable total : int;
}

let put s v c =
  let delta = v - Int.max s.prev 0 in
  if s.sizing then begin
    if v <= s.prev || c < 1 || c > Sys.max_array_length - s.total then
      invalid_arg "Latencies: runs out of order, empty or too long";
    s.pos <- s.pos + varint_length delta + varint_length c;
    s.total <- s.total + c
  end
  else s.pos <- put_varint s.b (put_varint s.b s.pos delta) c;
  s.prev <- v

(* [fill s] puts every run into [s], ascending. *)
let encode fill =
  let s = { b = Bytes.empty; sizing = true; pos = 0; prev = -1; total = 0 } in
  fill s;
  s.b <- Bytes.create s.pos;
  s.sizing <- false;
  s.pos <- 0;
  s.prev <- -1;
  fill s;
  { count = s.total; data = Bytes.unsafe_to_string s.b }

(* A reader positioned on one run: [value] occurring [run] times, the
   first of them at rank [start]; [run = 0] before the first. *)
type cursor = {
  r : runs;
  mutable pos : int;
  mutable value : int;
  mutable run : int;
  mutable start : int;
}

let cursor r = { r; pos = 0; value = 0; run = 0; start = 0 }

let varint c =
  let data = c.r.data in
  let v = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let byte = Char.code (String.unsafe_get data c.pos) in
    c.pos <- c.pos + 1;
    v := !v lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := byte >= 0x80
  done;
  !v

(* Step to the next run; false past the last. *)
let next c =
  c.pos < String.length c.r.data
  && begin
       c.start <- c.start + c.run;
       c.value <- c.value + varint c;
       c.run <- varint c;
       true
     end

let fold f init r =
  let c = cursor r in
  let acc = ref init in
  while next c do acc := f !acc c.value c.run done;
  !acc

(* A descent starts a run whose value is below the last one's, which
   [put] refuses. *)
let of_sorted (a : int array) =
  let n = Array.length a in
  encode (fun s ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if i + 1 = n || a.(i + 1) <> a.(i) then begin
          put s a.(i) (i + 1 - !start);
          start := i + 1
        end
      done)

let of_runs runs = encode (fun s -> List.iter (fun (v, c) -> put s v c) runs)

let seal_runs l = of_sorted (seal l)

let count r = r.count

let sum r = fold (fun s v c -> s + (v * c)) 0 r

let rank_reader r =
  let c = cursor r in
  fun i ->
    if i < 0 || i >= r.count then invalid_arg "Latencies.rank_reader: rank out of range";
    if i < c.start then begin
      c.pos <- 0;
      c.value <- 0;
      c.run <- 0;
      c.start <- 0
    end;
    while i >= c.start + c.run do ignore (next c) done;
    c.value

let merge2 a b =
  encode (fun s ->
      let ca = cursor a and cb = cursor b in
      let more_a = ref (next ca) and more_b = ref (next cb) in
      while !more_a || !more_b do
        if !more_a && ((not !more_b) || ca.value < cb.value) then begin
          put s ca.value ca.run;
          more_a := next ca
        end
        else if !more_b && ((not !more_a) || cb.value < ca.value) then begin
          put s cb.value cb.run;
          more_b := next cb
        end
        else begin
          put s ca.value (ca.run + cb.run);
          more_a := next ca;
          more_b := next cb
        end
      done)

(* Merged pairs go to the back of the queue: log2 k rounds for k runs. *)
let rec merge = function
  | [] -> empty
  | [ a ] -> a
  | a :: b :: rest -> merge (rest @ [ merge2 a b ])

let to_array r =
  let a = Array.make r.count 0 in
  ignore (fold (fun i v c -> Array.fill a i c v; i + c) 0 r);
  a
