(* Quickstart: build a machine by hand, run a custom access pattern
   under MG-LRU, and read the metrics.

     dune exec examples/quickstart.exe

   The pattern is the classic policy stress: a hot set that must be kept
   resident while a large cold region streams past it. *)

let () =
  (* A 1024-page address space: pages 0-63 are hot (touched every pass),
     the rest are streamed once per pass. *)
  let hot = Array.init 64 (fun i -> i) in
  let stream pass =
    Array.init 480 (fun i -> 64 + (((pass * 480) + i) mod 960))
  in
  let steps =
    List.concat_map
      (fun pass -> [ hot; stream pass; hot ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let workload = Workload.Trace.of_page_lists ~footprint:1024 steps in

  (* Memory for half the footprint, SSD swap, paper-default cost model. *)
  let config = Repro_core.Machine.default_config ~capacity_frames:512 ~seed:42 in

  let result =
    Repro_core.Machine.run config
      ~policy:(Policy.Registry.create Policy.Registry.Mglru_default)
      ~workload:(Workload.Chunk.Packed ((module Workload.Trace), workload))
  in

  let open Repro_core.Machine in
  Printf.printf "policy            : %s\n" result.policy_name;
  Printf.printf "virtual runtime   : %.3f s\n" (float_of_int result.runtime_ns /. 1e9);
  Printf.printf "major faults      : %d\n" result.major_faults;
  Printf.printf "minor faults      : %d (first touches)\n" result.minor_faults;
  Printf.printf "swap reads/writes : %d / %d\n"
    (count result Obs.Vmstat.pswpin)
    (count result Obs.Vmstat.pswpout);
  Printf.printf "direct reclaims   : %d\n"
    (count result Obs.Vmstat.direct_reclaims);
  Printf.printf "resident at end   : %d pages\n" result.resident_at_end;
  print_newline ();
  print_endline "policy internals:";
  List.iter (fun (k, v) -> Printf.printf "  %-24s %d\n" k v) result.policy_stats;
  print_newline ();
  print_endline
    "A good policy keeps the 64 hot pages resident through the streams;";
  print_endline
    "compare major faults against Policy.Registry.Fifo or Policy.Registry.Clock."
