type t = { mutable rev : Event.t list }

let create () = { rev = [] }

let push t ev = t.rev <- ev :: t.rev

let events t = List.rev t.rev

let merge a b = { rev = b.rev @ a.rev }

let digest t = Digest.to_hex (Digest.string (Event.to_jsonl (events t)))
