(** The lexical layer shared by the [--cgroups] and [--chaos] specs
    (README, "Spec syntax").  Each grammar ({!Memcg.parse_spec},
    [Chaos.parse_spec]) keeps only its classes, keys, defaults and
    cross-segment checks; everything below is common to both.

    A spec is one line of [;]-separated segments, each
    [CLASS:key=value,key=value,...].  Blanks around segments, classes,
    keys and values are ignored, and so are empty segments and fields.
    Errors read ["1:COL: message"], COL being the 1-based column of the
    offending segment or value (specs are single-line). *)

val err : int -> string -> ('a, string) result
(** [err col msg] is [Error "1:COL: msg"] for the 0-based column [col]. *)

(** {1 Segments and fields} *)

type value = {
  key : string;
  col : int;     (** 0-based column of the value's first character *)
  text : string; (** the value, blanks trimmed *)
}
(** One [key=value] field.  Value parsers name [key] in their errors. *)

type segment = {
  start : int;         (** 0-based column of the segment *)
  cls : string;        (** the text before [:], or the whole segment *)
  fields : value list; (** in spec order, keys distinct *)
}

val segments : string -> (segment list, string) result
(** The non-blank segments, in order.  Fails on a field that is not
    [key=value] or on a key given twice in one segment. *)

val require : cls:string -> segment -> string -> (value, string) result
(** The field, or ["CLS: missing KEY="] at the segment's column. *)

val optional :
  segment -> string -> (value -> ('a, string) result) -> ('a option, string) result
(** [optional seg key parse]: [None] without the field, else the parse. *)

val reject_unknown :
  cls:string -> known:string list -> segment -> (unit, string) result
(** ["CLS: unknown key \"K\""] at the segment's column for the first key
    not in [known]. *)

(** {1 Values} *)

val name_ok : string -> bool
(** A cgroup name: non-empty [A-Za-z0-9_-]. *)

type amount =
  | Pages of int  (** absolute page count *)
  | Frac of float (** fraction of capacity; written as a percentage *)

val amount : value -> (amount, string) result
(** A page count ([4096]) or a percentage ([35%]), not negative; a
    percentage must be finite. *)

val amount_to_string : amount -> string
(** Pages as an integer; a fraction as a percentage with
    {!float_to_string}'s digits, so that {!amount} reads back the stored
    fraction. *)

val float_to_string : float -> string
(** [%g] with the fewest significant digits, six or more, that
    [float_of_string] maps back to the value; a value that [%g] already
    prints exactly keeps those bytes.  Spec printers use it so that two
    specs print alike only when they parse alike. *)

val resolve : capacity:int -> amount -> int
(** Pages as given; a fraction of [capacity] truncated to whole pages,
    [max_int] when that does not fit an [int]. *)

val time : zero_ok:bool -> value -> (int, string) result
(** Nanoseconds: an integer, or a float with a [us], [ms] or [s] suffix,
    truncated to whole ns.  Refused: negative times, values that do not
    fit an [int], non-zero values under 1 ns, and 0 unless [zero_ok]. *)

val time_to_string : int -> string
(** The largest of [s], [ms], [us] that divides the value exactly, else
    plain ns. *)

val threads : value -> ((int * int) list, string) result
(** Inclusive thread-id ranges joined with [+]: [0-1+4+6-7]. *)

val threads_to_string : (int * int) list -> string
(** A one-thread range prints as the bare id. *)
