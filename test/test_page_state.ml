(* Page_state packs five fields into one word per page; this checks it
   against a record per page under random updates, including every
   field's extreme values and the values one past them, which must raise
   and leave the page as it was. *)
module P = Repro_core.Page_state

type page = {
  mutable retained : int;
  mutable faulted_by : int;
  mutable owner : int;
  mutable pinned : bool;
  mutable ra_pending : bool;
}

type op =
  | Retained of int * int
  | Faulted_by of int * int
  | Owner of int * int
  | Pinned of int * bool
  | Ra_pending of int * bool

let pages = 5

let show = function
  | Retained (vpn, v) -> Printf.sprintf "retained %d %d" vpn v
  | Faulted_by (vpn, v) -> Printf.sprintf "faulted_by %d %d" vpn v
  | Owner (vpn, v) -> Printf.sprintf "owner %d %d" vpn v
  | Pinned (vpn, b) -> Printf.sprintf "pinned %d %b" vpn b
  | Ra_pending (vpn, b) -> Printf.sprintf "ra_pending %d %b" vpn b

(* Mostly values in [-1 .. max], with the two ends and the two values
   just outside them drawn often. *)
let value max =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-1) max);
        (1, return (-1));
        (1, return max);
        (1, return (max + 1));
        (1, return (-2));
      ])

let op =
  QCheck.Gen.(
    int_bound (pages - 1) >>= fun vpn ->
    oneof
      [
        map (fun v -> Retained (vpn, v)) (value P.max_slot);
        map (fun v -> Faulted_by (vpn, v)) (value P.max_tid);
        map (fun v -> Owner (vpn, v)) (value P.max_tid);
        map (fun b -> Pinned (vpn, b)) bool;
        map (fun b -> Ra_pending (vpn, b)) bool;
      ])

let fits max v = v >= -1 && v <= max

let apply t model = function
  | Retained (vpn, v) ->
    if fits P.max_slot v then begin
      P.set_retained t vpn v;
      model.(vpn).retained <- v
    end
    else (
      try
        P.set_retained t vpn v;
        QCheck.Test.fail_reportf "set_retained %d accepted" v
      with Invalid_argument _ -> ())
  | Faulted_by (vpn, v) ->
    if fits P.max_tid v then begin
      P.set_faulted_by t vpn v;
      model.(vpn).faulted_by <- v
    end
    else (
      try
        P.set_faulted_by t vpn v;
        QCheck.Test.fail_reportf "set_faulted_by %d accepted" v
      with Invalid_argument _ -> ())
  | Owner (vpn, v) ->
    if fits P.max_tid v then begin
      P.set_owner t vpn v;
      model.(vpn).owner <- v
    end
    else (
      try
        P.set_owner t vpn v;
        QCheck.Test.fail_reportf "set_owner %d accepted" v
      with Invalid_argument _ -> ())
  | Pinned (vpn, b) ->
    P.set_pinned t vpn b;
    model.(vpn).pinned <- b
  | Ra_pending (vpn, b) ->
    P.set_ra_pending t vpn b;
    model.(vpn).ra_pending <- b

let agrees t model =
  Array.for_all Fun.id
    (Array.mapi
       (fun vpn m ->
         P.retained t vpn = m.retained
         && P.faulted_by t vpn = m.faulted_by
         && P.owner t vpn = m.owner
         && P.pinned t vpn = m.pinned
         && P.ra_pending t vpn = m.ra_pending)
       model)

let prop_matches_model =
  QCheck.Test.make ~name:"matches a record per page" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show ops))
       QCheck.Gen.(list_size (1 -- 60) op))
    (fun ops ->
      let t = P.create ~pages in
      let model =
        Array.init pages (fun _ ->
            { retained = -1; faulted_by = -1; owner = -1; pinned = false; ra_pending = false })
      in
      agrees t model
      && List.for_all
           (fun o ->
             apply t model o;
             agrees t model)
           ops)

let test_limits () =
  Alcotest.(check int) "max_tid" 65_534 P.max_tid;
  Alcotest.(check int) "max_slot" ((1 lsl 29) - 2) P.max_slot;
  let t = P.create ~pages:2 in
  P.set_retained t 1 P.max_slot;
  P.set_owner t 1 P.max_tid;
  P.set_faulted_by t 1 P.max_tid;
  P.set_pinned t 1 true;
  P.set_ra_pending t 1 true;
  Alcotest.(check int) "largest slot" P.max_slot (P.retained t 1);
  Alcotest.(check int) "largest owner" P.max_tid (P.owner t 1);
  Alcotest.(check int) "largest faulter" P.max_tid (P.faulted_by t 1);
  Alcotest.(check (list int)) "neighbour untouched" [ -1; -1; -1 ]
    [ P.retained t 0; P.owner t 0; P.faulted_by t 0 ];
  Alcotest.check_raises "slot one past"
    (Invalid_argument "Page_state.set_retained: slot 536870911 outside -1..536870910")
    (fun () -> P.set_retained t 0 (P.max_slot + 1));
  Alcotest.check_raises "thread one past"
    (Invalid_argument "Page_state.set_owner: thread 65535 outside -1..65534")
    (fun () -> P.set_owner t 0 (P.max_tid + 1))

let () =
  Alcotest.run "page_state"
    [
      ( "model",
        [
          Alcotest.test_case "limits" `Quick test_limits;
          QCheck_alcotest.to_alcotest prop_matches_model;
        ] );
    ]
