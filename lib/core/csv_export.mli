(** CSV rendering of {!Report.figure} values, for external plotting.

    One generic rule, with no knowledge of any figure: the tables of a
    figure that share a stem go to [DIR/STEM.csv], whose header is the
    caption column names followed by the table header, and whose lines
    are one per row, prefixed by that table's caption titles.  A number
    is written [%.6g] — a count [%.0f], so it stays exact — NaN as
    ["failed"], and {!Report.Dash} as ["-"].  Export-only tables are
    written like the printed ones. *)

val write : path:string -> header:string list -> string list list -> unit
(** Atomic (temp + fsync + rename) CSV write, quoting fields that
    contain commas, quotes or newlines. *)

val write_figure : dir:string -> Report.figure -> string list
(** Write every table of the figure under [dir] (created if missing) and
    return the paths written, in order of first appearance.
    @raise Invalid_argument if two tables sharing a stem disagree on
    their columns. *)
