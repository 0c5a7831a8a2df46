module M = Mem.Phys_mem

let test_alloc_free () =
  let m = M.create ~frames:4 () in
  Alcotest.(check int) "free" 4 (M.free_count m);
  let a = Option.get (M.alloc m) in
  let b = Option.get (M.alloc m) in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "used" 2 (M.used_count m);
  M.free m a;
  Alcotest.(check int) "free again" 3 (M.free_count m);
  Alcotest.(check bool) "is_free" true (M.is_free m a);
  Alcotest.(check bool) "not free" false (M.is_free m b)

let test_exhaustion () =
  let m = M.create ~frames:2 () in
  ignore (M.alloc m);
  ignore (M.alloc m);
  Alcotest.(check (option int)) "exhausted" None (M.alloc m)

let test_double_free_rejected () =
  let m = M.create ~frames:2 () in
  let a = Option.get (M.alloc m) in
  M.free m a;
  Alcotest.check_raises "double free" (Invalid_argument "Phys_mem.free: double free")
    (fun () -> M.free m a)

let test_watermarks () =
  let m = M.create ~frames:100 ~low_watermark:10 ~high_watermark:20 () in
  Alcotest.(check int) "low" 10 (M.low_watermark m);
  Alcotest.(check int) "high" 20 (M.high_watermark m);
  Alcotest.(check bool) "above high initially" true (M.above_high m);
  let held = ref [] in
  for _ = 1 to 95 do
    held := Option.get (M.alloc m) :: !held
  done;
  Alcotest.(check bool) "below low at 5 free" true (M.below_low m);
  Alcotest.(check bool) "not above high" false (M.above_high m);
  List.iter (M.free m) !held;
  Alcotest.(check bool) "recovered" true (M.above_high m)

let test_default_watermarks_ordered () =
  let m = M.create ~frames:10_000 () in
  Alcotest.(check bool) "0 < low <= high" true
    (M.low_watermark m > 0 && M.low_watermark m <= M.high_watermark m)

let test_bad_watermarks () =
  Alcotest.check_raises "low > high" (Invalid_argument "Phys_mem.create: bad watermarks")
    (fun () -> ignore (M.create ~frames:10 ~low_watermark:5 ~high_watermark:2 ()))

let prop_conservation =
  QCheck.Test.make ~name:"free + used = total under random ops" ~count:200
    QCheck.(list bool)
    (fun ops ->
      let m = M.create ~frames:8 () in
      let held = ref [] in
      List.iter
        (fun alloc ->
          if alloc then (
            match M.alloc m with Some pfn -> held := pfn :: !held | None -> ())
          else
            match !held with
            | pfn :: rest ->
              M.free m pfn;
              held := rest
            | [] -> ())
        ops;
      M.free_count m + M.used_count m = M.frames m
      && M.used_count m = List.length !held)

let prop_alloc_unique =
  QCheck.Test.make ~name:"allocations are unique" ~count:100
    QCheck.(int_range 1 64)
    (fun n ->
      let m = M.create ~frames:n () in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      for _ = 1 to n do
        match M.alloc m with
        | Some pfn ->
          if Hashtbl.mem seen pfn then ok := false;
          Hashtbl.add seen pfn ()
        | None -> ok := false
      done;
      !ok)

(* Model-based: a set model (free / allocated / offline) replays
   [alloc_pfn], [free], [offline_free], [offline_used] and [online],
   out-of-range frames and every rejected transition included, and after
   each operation the counters and per-frame flags must agree with it. *)
let frames = 8

type state = Free | Used | Offline

type op = Alloc | Free_op of int | Offline_free of int | Offline_used of int | Online of int

let show_op = function
  | Alloc -> "alloc_pfn"
  | Free_op p -> Printf.sprintf "free %d" p
  | Offline_free p -> Printf.sprintf "offline_free %d" p
  | Offline_used p -> Printf.sprintf "offline_used %d" p
  | Online p -> Printf.sprintf "online %d" p

let arb_ops =
  let pfn = QCheck.Gen.int_range (-1) frames in
  QCheck.make ~print:QCheck.Print.(list show_op)
    QCheck.Gen.(
      list_size (0 -- 80)
        (frequency
           [
             (4, return Alloc);
             (3, map (fun p -> Free_op p) pfn);
             (1, map (fun p -> Offline_free p) pfn);
             (1, map (fun p -> Offline_used p) pfn);
             (1, map (fun p -> Online p) pfn);
           ]))

(* The error the model expects, or [None] when the transition is legal. *)
let model_error model = function
  | Alloc -> None
  | Free_op p | Offline_free p | Offline_used p | Online p as op -> (
    let name, rule =
      match op with
      | Free_op _ ->
        ("free", function Free -> Some "double free" | Offline -> Some "frame is offline" | Used -> None)
      | Offline_free _ ->
        ( "offline_free",
          function Offline -> Some "already offline" | Used -> Some "frame in use" | Free -> None )
      | Offline_used _ ->
        ( "offline_used",
          function Offline -> Some "already offline" | Free -> Some "frame is free" | Used -> None )
      | _ -> ("online", function Offline -> None | Free | Used -> Some "already online")
    in
    if p < 0 || p >= frames then Some (Printf.sprintf "Phys_mem.%s: pfn out of range" name)
    else Option.map (Printf.sprintf "Phys_mem.%s: %s" name) (rule model.(p)))

let run_op m = function
  | Alloc -> M.alloc_pfn m
  | Free_op p -> M.free m p; p
  | Offline_free p -> M.offline_free m p; p
  | Offline_used p -> M.offline_used m p; p
  | Online p -> M.online m p; p

let count model s = Array.fold_left (fun acc x -> if x = s then acc + 1 else acc) 0 model

let step m model op =
  match (model_error model op, run_op m op) with
  | Some _, _ -> false (* the model expected a rejection *)
  | None, pfn ->
    (match op with
    | Alloc ->
      if pfn >= 0 then (
        assert (model.(pfn) = Free);
        model.(pfn) <- Used)
      else assert (count model Free = 0)
    | Free_op p | Online p -> model.(p) <- Free
    | Offline_free p | Offline_used p -> model.(p) <- Offline);
    true
  | exception Invalid_argument msg -> model_error model op = Some msg

let agrees m model =
  M.free_count m = count model Free
  && M.used_count m = count model Used
  && M.online_count m = frames - count model Offline
  && Array.for_all Fun.id
       (Array.mapi
          (fun p s -> M.is_free m p = (s = Free) && M.is_online m p = (s <> Offline))
          model)

let prop_model =
  QCheck.Test.make ~name:"hotplug and allocation match a set model" ~count:300 arb_ops
    (fun ops ->
      let m = M.create ~frames () in
      let model = Array.make frames Free in
      List.for_all (fun op -> step m model op && agrees m model) ops)

let () =
  Alcotest.run "phys_mem"
    [
      ( "unit",
        [
          Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "watermarks" `Quick test_watermarks;
          Alcotest.test_case "default watermarks" `Quick test_default_watermarks_ordered;
          Alcotest.test_case "bad watermarks" `Quick test_bad_watermarks;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_conservation; prop_alloc_unique; prop_model ] );
    ]
