(** The one JSON writer behind every artefact: events, metrics, the run
    manifest and detlint's report and ledger.

    Write-only, no parser. Every decision about the bytes lives here:
    string escaping, the float form, key order and layout. Emitters build
    a {!t} and pick one of the two printed forms. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** Printed by {!float_str}. *)
  | Num of string
      (** A number literal printed verbatim, for a field with its own
          fixed format (the manifest's ["%.3f"] times). The caller
          guarantees it is a valid JSON number. *)
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Members are printed in ascending byte order of their keys
          ([String.compare]), whatever order they are given in. *)

val to_line : t -> string
(** Fully compact, no spaces and no newline: one JSONL line. *)

val to_file : t -> string
(** The file layout, ending in a newline. The top-level container's
    members go one per line, indented two spaces, and so do the members
    of each container directly inside it (four spaces); an object member
    reads ["key": value] at those two levels. Anything deeper, and every
    empty container, is printed as by {!to_line}. *)

val write : path:string -> string -> unit
(** Write [contents] to [path], creating missing parent directories. *)

val escape : string -> string
(** JSON string-body escaping: quotes, backslashes, and control
    characters ([\n], [\r], [\t] by name, the rest as [\u00XX]). *)

val float_str : float -> string
(** Exact decimal: ["%.17g"], which round-trips every finite double.
    [nan] and infinities render as the JSON strings ["\"nan\""],
    ["\"inf\""], ["\"-inf\""] — metrics never produce them, but a
    diagnostic stream must stay well-formed if one appears. *)
