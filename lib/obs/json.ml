type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Num of string
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let float_str x =
  if Float.is_nan x then "\"nan\""
  else if Float.equal x Float.infinity then "\"inf\""
  else if Float.equal x Float.neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" x

(* Depth-0 and depth-1 containers of a file put each member on its own
   line; everything else is compact. *)
let rec add b ~file depth v =
  let str s =
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  in
  let seq open_ close_ item xs =
    let broken = file && depth < 2 && xs <> [] in
    let newline d =
      if broken then Buffer.add_string b ("\n" ^ String.make (2 * d) ' ')
    in
    Buffer.add_char b open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        newline (depth + 1);
        item (if broken then ": " else ":") x)
      xs;
    newline depth;
    Buffer.add_char b close_
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (Bool.to_string x)
  | Int i -> Buffer.add_string b (Int.to_string i)
  | Float x -> Buffer.add_string b (float_str x)
  | Num s -> Buffer.add_string b s
  | String s -> str s
  | List vs -> seq '[' ']' (fun _ v -> add b ~file (depth + 1) v) vs
  | Obj ms ->
      seq '{' '}'
        (fun colon (k, v) ->
          str k;
          Buffer.add_string b colon;
          add b ~file (depth + 1) v)
        (List.stable_sort (fun (k, _) (k', _) -> String.compare k k') ms)

let print ~file v =
  let b = Buffer.create 1024 in
  add b ~file 0 v;
  Buffer.contents b

let to_line v = print ~file:false v

let to_file v = print ~file:true v ^ "\n"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write ~path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
