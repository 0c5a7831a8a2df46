module R = Repro_core.Report

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (R.f2 3.14159);
  Alcotest.(check string) "f3" "0.042" (R.f3 0.0419);
  Alcotest.(check string) "fnorm" "1.25x" (R.fnorm 1.2501);
  Alcotest.(check string) "fsec large" "120s" (R.fsec 120.4);
  Alcotest.(check string) "fsec mid" "3.5s" (R.fsec 3.5);
  Alcotest.(check string) "fsec small" "0.123s" (R.fsec 0.1234)

let test_fcount_separators () =
  Alcotest.(check string) "small" "999" (R.fcount 999.0);
  Alcotest.(check string) "thousands" "1,000" (R.fcount 1000.0);
  Alcotest.(check string) "millions" "12,345,678" (R.fcount 12345678.0)

let test_fns_units () =
  Alcotest.(check string) "ns" "250ns" (R.fns 250.0);
  Alcotest.(check string) "us" "2.5us" (R.fns 2500.0);
  Alcotest.(check string) "ms" "7.50ms" (R.fns 7.5e6);
  Alcotest.(check string) "s" "1.20s" (R.fns 1.2e9)

(* The renderers go to stdout; capture them via a temp redirect. *)
let capture f =
  let path = Filename.temp_file "report" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let inc = open_in path in
  let n = in_channel_length inc in
  let s = really_input_string inc n in
  close_in inc;
  Sys.remove path;
  s

let table ?caption ?export_only header rows =
  R.make_table ?caption ?export_only ~stem:"t" ~header rows

let figure ?(before = []) ?(after = []) title tables = { R.title; before; tables; after }

let test_table_alignment () =
  let out =
    capture (fun () ->
        R.print_table
          (table [ "name"; "value" ] [ [ R.Text "a"; R.Int 1 ]; [ R.Text "longer"; R.Int 22 ] ]))
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (match lines with
  | header :: sep :: _ ->
    Alcotest.(check int) "separator width matches header" (String.length header)
      (String.length sep)
  | _ -> Alcotest.fail "expected at least header + separator");
  Alcotest.(check int) "four lines" 4 (List.length lines);
  Alcotest.(check (list string)) "first column left, the rest right"
    [ "name    value"; "------  -----"; "a           1"; "longer     22" ]
    lines

let test_table_ragged_rows () =
  (* Rows narrower than the header must not crash. *)
  let out =
    capture (fun () -> R.print_table (table [ "a"; "b"; "c" ] [ [ R.Text "x" ] ]))
  in
  Alcotest.(check bool) "rendered" true (String.length out > 0)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_section_banner () =
  let out = capture (fun () -> R.print_figure (figure "Hello" [])) in
  Alcotest.(check bool) "contains title" true
    (contains_substring out "=== Hello ===")

(* Notes around the tables; a subsection title only where the caption
   path changes; export-only tables never print. *)
let test_figure_layout () =
  let row = [ [ R.Text "x"; R.Percent 12.345 ] ] in
  let out =
    capture (fun () ->
        R.print_figure
          (figure "F" ~before:[ "lead" ] ~after:[ "tail" ]
             [
               table ~caption:[ ("w", "tpch") ] [ "k"; "v" ] row;
               table ~caption:[ ("w", "tpch") ] [ "k"; "v" ] row;
               table ~caption:[ ("w", "tpch") ] ~export_only:true [ "hidden"; "v" ] row;
               table ~caption:[ ("w", "pagerank") ] [ "k"; "v" ] [ [ R.Text "y"; R.Dash ] ];
             ]))
  in
  Alcotest.(check string) "layout"
    "\n=========\n=== F ===\n=========\n  lead\n\n--- tpch ---\nk      v\n-  -----\nx  12.3%\n\
     k      v\n-  -----\nx  12.3%\n\n--- pagerank ---\nk  v\n-  -\ny  -\n  tail\n"
    out

let () =
  Alcotest.run "report"
    [
      ( "unit",
        [
          Alcotest.test_case "formatters" `Quick test_formatters;
          Alcotest.test_case "fcount" `Quick test_fcount_separators;
          Alcotest.test_case "fns units" `Quick test_fns_units;
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "section banner" `Quick test_section_banner;
          Alcotest.test_case "figure layout" `Quick test_figure_layout;
        ] );
    ]
