type t = { mutable rev : Event.t list }

let create () = { rev = [] }

let push t ev = t.rev <- ev :: t.rev

let events t = List.rev t.rev

let merge a b = { rev = b.rev @ a.rev }

let to_jsonl t =
  match t.rev with
  | [] -> ""
  | _ ->
      let b = Buffer.create 4096 in
      List.iter
        (fun ev ->
          Buffer.add_string b (Event.to_json ev);
          Buffer.add_char b '\n')
        (events t);
      Buffer.contents b

let digest t = Digest.to_hex (Digest.string (to_jsonl t))
