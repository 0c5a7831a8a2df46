(* Binary min-heap over parallel arrays.

   Keys live in two unboxed int arrays (time, insertion sequence) so
   sift comparisons never chase a pointer; payloads sit in a third
   array indexed the same way.  [pop] overwrites the vacated payload
   slot with [dummy] so popped payloads are collectable the moment the
   caller drops them, and [clear] discards the arrays entirely so a
   drained queue does not pin its high-water-mark capacity. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
  mutable dummy : 'a option;
      (* overwrites vacated slots; defaults to the first payload ever
         added, which then stays reachable — pass [~dummy] to [create]
         when that matters *)
}

let create ?dummy () =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0; dummy }

let size t = t.len

let is_empty t = t.len = 0

(* Both sifts move a hole instead of swapping entries: the entry being
   placed travels in arguments while parents (or children) shift into
   the hole, and it is written once, at its final slot.  A swap would
   store every payload twice per level, each store paying the write
   barrier. *)
let rec sift_up t hole time seq payload =
  let parent = (hole - 1) / 2 in
  if
    hole > 0
    &&
    let pt = t.times.(parent) in
    time < pt || (time = pt && seq < t.seqs.(parent))
  then begin
    t.times.(hole) <- t.times.(parent);
    t.seqs.(hole) <- t.seqs.(parent);
    t.payloads.(hole) <- t.payloads.(parent);
    sift_up t parent time seq payload
  end
  else begin
    t.times.(hole) <- time;
    t.seqs.(hole) <- seq;
    t.payloads.(hole) <- payload
  end

let rec sift_down t hole time seq payload =
  let l = (2 * hole) + 1 in
  let c =
    if l >= t.len then -1
    else
      let r = l + 1 in
      if r < t.len then
        let lt = t.times.(l) and rt = t.times.(r) in
        if rt < lt || (rt = lt && t.seqs.(r) < t.seqs.(l)) then r else l
      else l
  in
  if
    c >= 0
    &&
    let ct = t.times.(c) in
    ct < time || (ct = time && t.seqs.(c) < seq)
  then begin
    t.times.(hole) <- t.times.(c);
    t.seqs.(hole) <- t.seqs.(c);
    t.payloads.(hole) <- t.payloads.(c);
    sift_down t c time seq payload
  end
  else begin
    t.times.(hole) <- time;
    t.seqs.(hole) <- seq;
    t.payloads.(hole) <- payload
  end

let grow t payload =
  let cap = max 16 (2 * t.len) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let fill = match t.dummy with Some d -> d | None -> payload in
  let payloads = Array.make cap fill in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let add t ~time payload =
  if time < 0 then invalid_arg "Event_queue.add: negative time";
  (match t.dummy with None -> t.dummy <- Some payload | Some _ -> ());
  if t.len = Array.length t.times then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time seq payload

(* Remove the root: sift the last entry down from the root's slot, then
   blank the vacated slot so its payload is not kept alive by the spare
   capacity. *)
let drop_min t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) t.payloads.(last);
  match t.dummy with
  | Some d -> t.payloads.(last) <- d
  | None -> ()

let next_time t = if t.len = 0 then -1 else t.times.(0)

let pop_payload t =
  if t.len = 0 then invalid_arg "Event_queue.pop_payload: empty";
  let payload = t.payloads.(0) in
  drop_min t;
  payload

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    let payload = t.payloads.(0) in
    drop_min t;
    Some (time, payload)
  end

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.payloads <- [||];
  t.len <- 0
