(** Plain-text tables: the output format of every experiment.

    The bench harness prints one {!t} per reproduced claim; the same value
    can be dumped as CSV for external plotting. *)

type cell = Str of string | Int of int | Float of float | Sci of float
(** [Float] renders with 4 decimals; [Sci] in scientific notation — use it
    for the 1e-300-scale tail probabilities of E2. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> cell list -> unit
(** Raises [Invalid_argument] if the row width does not match the header. *)

val render : t -> string
(** Aligned ASCII rendering with title and header rule. *)

val to_csv : t -> string
