type cell = Str of string | Int of int | Float of float | Sci of float

type t = { title : string; columns : string list; mutable rev_rows : cell list list }

let create ~title ~columns = { title; columns; rev_rows = [] }

let cell_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_nan f then "nan"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.1f" f
      else Printf.sprintf "%.4f" f
  | Sci f -> Printf.sprintf "%.3e" f

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row (%s): expected %d cells, got %d" t.title
         (List.length t.columns) (List.length row));
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let render t =
  let header = t.columns in
  let body = List.map (List.map cell_to_string) (rows t) in
  let all = header :: body in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> Stdlib.max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let render_line cells =
    String.concat "  " (List.map2 pad widths cells) |> String.trim
    |> fun s -> "  " ^ s
  in
  let rule =
    "  " ^ String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n"
    (("== " ^ t.title ^ " ==") :: render_line header :: rule
     :: List.map render_line body)

let escape_csv s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let line cells = String.concat "," (List.map escape_csv cells) in
  String.concat "\n"
    (line t.columns :: List.map (fun r -> line (List.map cell_to_string r)) (rows t))
