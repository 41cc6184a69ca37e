type t = { mutable received : int; push : Event.t -> unit }

(* The one disabled sink, told apart by identity. Immutable in practice:
   [emit] checks for it before touching [received], so it is never written
   to and is safe to hold in any number of domains. *)
let null = { received = 0; push = ignore }

let create push = { received = 0; push }

let enabled s = s != null

let emit s ev =
  if s != null then begin
    s.received <- s.received + 1;
    s.push ev
  end

let received s = s.received

let tee a b =
  if a == null && b == null then null
  else
    create (fun ev ->
        emit a ev;
        emit b ev)
