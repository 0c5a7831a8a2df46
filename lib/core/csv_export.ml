let quote field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

(* Atomic replacement (temp + fsync + rename): a crash mid-export can
   never leave a torn CSV where a complete one stood. *)
let write ~path ~header rows =
  Atomic_io.replace ~path (fun out ->
      let put row = output_string out (String.concat "," (List.map quote row) ^ "\n") in
      put header;
      List.iter put rows)

(* NaN marks a cell with failed trials; export it explicitly rather
   than as the platform's "nan" spelling. *)
let number fmt x = if Float.is_nan x then Report.failed_marker else Printf.sprintf fmt x

let field = function
  | Report.Text s -> s
  | Report.Dash -> "-"
  | Report.Int n -> string_of_int n
  | Report.Count x -> number "%.0f" x
  | Report.Ratio x | Report.Seconds x | Report.Ns x | Report.Fixed (_, x) | Report.Percent x ->
    number "%.6g" x

let write_figure ~dir (f : Report.figure) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let columns (t : Report.table) = List.map fst t.caption @ t.header in
  let lines (t : Report.table) =
    List.map (fun row -> List.map snd t.caption @ List.map field row) t.rows
  in
  let stems =
    List.fold_left
      (fun acc (t : Report.table) -> if List.mem t.stem acc then acc else t.stem :: acc)
      [] f.tables
  in
  List.map
    (fun stem ->
      let tables = List.filter (fun (t : Report.table) -> t.stem = stem) f.tables in
      let header = columns (List.hd tables) in
      if List.exists (fun t -> columns t <> header) tables then
        invalid_arg (Printf.sprintf "Csv_export.write_figure: %s: tables disagree on columns" stem);
      let path = Filename.concat dir (stem ^ ".csv") in
      write ~path ~header (List.concat_map lines tables);
      path)
    (List.rev stems)
