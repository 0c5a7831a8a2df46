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

let merge2 a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  Array.init (na + nb) (fun _ ->
      if !j = nb || (!i < na && a.(!i) <= b.(!j)) then (incr i; a.(!i - 1))
      else (incr j; b.(!j - 1)))

(* Merged pairs go to the back of the queue: log2 k rounds for k arrays. *)
let rec merge = function
  | [] -> [||]
  | [ a ] -> a
  | a :: b :: rest -> merge (rest @ [ merge2 a b ])
