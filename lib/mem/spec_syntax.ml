let ( let* ) = Result.bind

(* [col] is 0-based; positions print 1-based. *)
let err col msg = Error (Printf.sprintf "1:%d: %s" (col + 1) msg)

(* The first error, or every element parsed. *)
let all parse xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = parse x in
      go (y :: acc) rest
  in
  go [] xs

(* ------------------------------------------------------------------ *)
(* Segments and fields                                                 *)

type value = { key : string; col : int; text : string }

type segment = { start : int; cls : string; fields : value list }

let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* Strip surrounding blanks, keeping the start column honest. *)
let trim (col, s) =
  let n = String.length s in
  let b = ref 0 and e = ref n in
  while !b < n && is_blank s.[!b] do incr b done;
  while !e > !b && is_blank s.[!e - 1] do decr e done;
  (col + !b, String.sub s !b (!e - !b))

(* The [sep]-separated pieces of [s] (which starts at column [col]),
   trimmed, blank ones dropped. *)
let pieces sep (col, s) =
  let n = String.length s in
  let rec go start i acc =
    if i < n && s.[i] <> sep then go start (i + 1) acc
    else
      let acc =
        match trim (col + start, String.sub s start (i - start)) with
        | _, "" -> acc
        | piece -> piece :: acc
      in
      if i = n then List.rev acc else go (i + 1) (i + 1) acc
  in
  go 0 0 []

(* The trimmed parts before and after the first [c], if any. *)
let cut c (col, s) =
  Option.map
    (fun i ->
      ( trim (col, String.sub s 0 i),
        trim (col + i + 1, String.sub s (i + 1) (String.length s - i - 1)) ))
    (String.index_opt s c)

let segment (start, s) =
  let cls, body =
    match cut ':' (start, s) with
    | Some ((_, cls), body) -> (cls, body)
    | None -> (s, (start, ""))
  in
  let rec fields acc = function
    | [] -> Ok { start; cls; fields = List.rev acc }
    | (fcol, f) :: rest -> (
      match cut '=' (fcol, f) with
      | Some ((_, key), (col, text)) when key <> "" && text <> "" ->
        if List.exists (fun v -> v.key = key) acc then
          err fcol (Printf.sprintf "duplicate key %S" key)
        else fields ({ key; col; text } :: acc) rest
      | _ -> err fcol (Printf.sprintf "field %S is not key=value" f))
  in
  fields [] (pieces ',' body)

let segments s = all segment (pieces ';' (0, s))

let field seg k = List.find_opt (fun v -> v.key = k) seg.fields

let require ~cls seg k =
  match field seg k with
  | Some v -> Ok v
  | None -> err seg.start (Printf.sprintf "%s: missing %s=" cls k)

let optional seg k parse =
  match field seg k with
  | None -> Ok None
  | Some v -> Result.map Option.some (parse v)

let reject_unknown ~cls ~known seg =
  match List.find_opt (fun v -> not (List.mem v.key known)) seg.fields with
  | None -> Ok ()
  | Some v -> err seg.start (Printf.sprintf "%s: unknown key %S" cls v.key)

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

(* An error about [v], prefixed with its key. *)
let bad v fmt = Printf.ksprintf (fun msg -> err v.col (v.key ^ ": " ^ msg)) fmt

let name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       s

type amount =
  | Pages of int
  | Frac of float

let amount v =
  let s = v.text in
  if String.starts_with ~prefix:"-" s then bad v "negative amount %S" s
  else if String.ends_with ~suffix:"%" s then
    match float_of_string_opt (String.sub s 0 (String.length s - 1)) with
    | Some f when f >= 0.0 && Float.is_finite f -> Ok (Frac (f /. 100.0))
    | _ -> bad v "bad percentage %S" s
  else
    match int_of_string_opt s with
    | Some p when p >= 0 -> Ok (Pages p)
    | _ -> bad v "bad page count %S" s

(* [%g]'s six significant digits, or as many more as it takes for
   [back] to accept the parse of the printed text. *)
let shortest_g ~back x =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || back (float_of_string s) then s else go (digits + 1)
  in
  go 6

let float_to_string x = shortest_g ~back:(fun y -> y = x) x

let amount_to_string = function
  | Pages p -> string_of_int p
  | Frac f -> shortest_g ~back:(fun y -> y /. 100.0 = f) (f *. 100.0) ^ "%"

(* 2^62: the least float above [max_int]. *)
let int_limit = 0x1p62

let resolve ~capacity = function
  | Pages p -> p
  | Frac f ->
    let x = f *. float_of_int capacity in
    if x >= int_limit then max_int else int_of_float x

let time ~zero_ok v =
  let s = v.text in
  let checked n = if n = 0 && not zero_ok then bad v "must be positive" else Ok n in
  let scaled =
    List.find_opt
      (fun (suffix, _) ->
        String.length s > String.length suffix && String.ends_with ~suffix s)
      [ ("us", 1e3); ("ms", 1e6); ("s", 1e9) ]
  in
  (* Negative times are named as such: CI and the tests match on the
     message. *)
  if String.starts_with ~prefix:"-" s then bad v "negative time %S" s
  else
    match scaled with
    | Some (suffix, mult) -> (
      let digits = String.sub s 0 (String.length s - String.length suffix) in
      match float_of_string_opt digits with
      | Some f when f >= 0.0 ->
        let x = f *. mult in
        if x >= int_limit then bad v "time %S out of range" s
        else if x > 0.0 && x < 1.0 then bad v "time %S is under 1ns" s
        else checked (int_of_float x)
      | _ -> bad v "bad time %S" s)
    | None -> (
      match int_of_string_opt s with
      | Some n when n >= 0 -> checked n
      | _ -> bad v "bad time %S" s)

let time_to_string v =
  if v > 0 && v mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (v / 1_000_000_000)
  else if v > 0 && v mod 1_000_000 = 0 then Printf.sprintf "%dms" (v / 1_000_000)
  else if v > 0 && v mod 1_000 = 0 then Printf.sprintf "%dus" (v / 1_000)
  else string_of_int v

let threads v =
  let range (col, r) =
    let bad_range what = err col (Printf.sprintf "%s: bad thread %s %S" v.key what r) in
    match String.index_opt r '-' with
    | None -> (
      match int_of_string_opt r with
      | Some t when t >= 0 -> Ok (t, t)
      | _ -> bad_range "id")
    | Some i -> (
      match
        ( int_of_string_opt (String.sub r 0 i),
          int_of_string_opt (String.sub r (i + 1) (String.length r - i - 1)) )
      with
      | Some lo, Some hi when 0 <= lo && lo <= hi -> Ok (lo, hi)
      | _ -> bad_range "range")
  in
  match pieces '+' (v.col, v.text) with
  | [] -> bad v "empty thread list"
  | rs -> all range rs

let threads_to_string rs =
  String.concat "+"
    (List.map
       (fun (lo, hi) -> if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi)
       rs)
