(* Property tests run against EVERY registered policy: whatever the
   replacement decisions, the memory-accounting invariants must hold. *)

module PI = Policy.Policy_intf

(* crash-test raises at construction by design; it has no replacement
   behaviour to property-test. *)
let specs =
  List.filter
    (fun s -> s <> Policy.Registry.Crash_test)
    (List.filter_map Policy.Registry.of_name Policy.Registry.known_names)

(* Replay a random sequence of page touches through the harness and
   check conservation + structural invariants at the end. *)
let replay spec ops =
  let frames = 12 and pages = 48 in
  let world = Testsupport.Harness.make_world ~frames ~pages () in
  let packed = Policy.Registry.create spec world.Testsupport.Harness.env in
  let (PI.Packed ((module P), p)) = packed in
  List.iter
    (fun (vpn, write) ->
      let vpn = vpn mod pages in
      let pte = Mem.Page_table.get world.Testsupport.Harness.pt vpn in
      if Mem.Pte.present pte then Testsupport.Harness.touch world packed ~write vpn
      else ignore (Testsupport.Harness.map_page world packed ~write vpn))
    ops;
  P.check_invariants p;
  (world, packed)

let ops_gen = QCheck.(list_of_size Gen.(5 -- 300) (pair small_nat bool))

let prop_conservation spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: frames conserved" (Policy.Registry.name spec))
    ~count:50 ops_gen
    (fun ops ->
      let world, _ = replay spec ops in
      let mem = world.Testsupport.Harness.mem in
      let used = Mem.Phys_mem.used_count mem in
      let resident = Testsupport.Harness.resident world in
      let mapped = Mem.Frame_table.mapped_count world.Testsupport.Harness.frames in
      used = resident && used = mapped
      && used <= Mem.Phys_mem.frames mem)

let prop_no_resident_above_capacity spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: residency bounded" (Policy.Registry.name spec))
    ~count:50 ops_gen
    (fun ops ->
      let world, _ = replay spec ops in
      Testsupport.Harness.resident world <= 12)

let prop_evicted_pages_become_swapped spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: evicted pages are swapped" (Policy.Registry.name spec))
    ~count:30 ops_gen
    (fun ops ->
      let world, _ = replay spec ops in
      (* Every page the policy reclaimed and never refaulted must be in
         swapped state; either way it must not be present AND reclaimed. *)
      List.for_all
        (fun vpn ->
          let pte = Mem.Page_table.get world.Testsupport.Harness.pt vpn in
          Mem.Pte.present pte || Mem.Pte.swapped pte)
        world.Testsupport.Harness.reclaimed_vpns)

let prop_pfn_owner_agrees spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: frame-table/PTE agreement" (Policy.Registry.name spec))
    ~count:30 ops_gen
    (fun ops ->
      let world, _ = replay spec ops in
      let pt = world.Testsupport.Harness.pt in
      let ok = ref true in
      for vpn = 0 to Mem.Page_table.pages pt - 1 do
        let pte = Mem.Page_table.get pt vpn in
        if
          Mem.Pte.present pte
          && Mem.Frame_table.owner_vpn world.Testsupport.Harness.frames
               (Mem.Pte.pfn pte)
             <> vpn
        then ok := false
      done;
      !ok)

(* Belady's OPT lower-bounds every online policy on a recorded script
   trace: replay the same single-threaded reference string through the
   harness (which does no readahead) and through the offline simulation
   at the harness's frame count.  No replacement decision can beat
   clairvoyance at equal capacity, so this must hold for every
   registered policy — builtin, baseline, or hook-API guest. *)
let prop_belady_lower_bound spec =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: Belady lower-bounds faults"
         (Policy.Registry.name spec))
    ~count:30 ops_gen
    (fun ops ->
      let frames = 12 and pages = 48 in
      let world = Testsupport.Harness.make_world ~frames ~pages () in
      let packed = Policy.Registry.create spec world.Testsupport.Harness.env in
      let trace = List.map (fun (vpn, _) -> vpn mod pages) ops in
      let faults = ref 0 in
      List.iter
        (fun vpn ->
          let pte = Mem.Page_table.get world.Testsupport.Harness.pt vpn in
          if Mem.Pte.present pte then
            Testsupport.Harness.touch world packed ~write:false vpn
          else begin
            incr faults;
            ignore (Testsupport.Harness.map_page world packed vpn)
          end)
        trace;
      let b =
        Policy.Belady.simulate ~capacity:frames ~trace:(Array.of_list trace)
      in
      !faults >= b.Policy.Belady.faults)

let () =
  let props =
    List.concat_map
      (fun spec ->
        [
          prop_conservation spec;
          prop_no_resident_above_capacity spec;
          prop_evicted_pages_become_swapped spec;
          prop_pfn_owner_agrees spec;
          prop_belady_lower_bound spec;
        ])
      specs
  in
  Alcotest.run "policy_properties"
    [ ("invariants", List.map QCheck_alcotest.to_alcotest props) ]
