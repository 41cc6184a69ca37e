(* A minimal JSON reader for the benchmark's own two input files
   (BENCHMARK.json and expected.json). Obs.Json only writes; nothing in the
   tree parses, and no JSON library is installed. Numbers are read as
   floats; \u escapes outside ASCII are not needed by either file and are
   rejected. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip_ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' when !pos + 4 <= n -> (
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code when code < 0x80 ->
                  pos := !pos + 4;
                  Buffer.add_char b (Char.chr code)
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          members []
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              elements (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          elements []
    | '"' ->
        incr pos;
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad value")
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse s

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let string = function Str s -> Some s | _ -> None

let list = function Arr l -> l | _ -> []
