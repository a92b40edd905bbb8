(** ASCII table rendering for the experiment harness.

    [minflo bench --paper] prints paper-style tables (Table 1, Figure 7
    series) with this module so outputs are diffable and readable in a
    terminal. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given header cells. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_separator : t -> unit
(** Inserts a horizontal rule before the next row. *)

val render : t -> string
(** Render with a box-drawing frame and padded cells. *)

val print : t -> unit
