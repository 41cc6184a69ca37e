type round_record = {
  round : int;
  active_before : int;
  killed : int array;
  partial_sends : int;
  messages_delivered : int;
  newly_decided : int;
  newly_halted : int;
  ones_pending : int option;
}

type t = { mutable rev_records : round_record list }

let create () = { rev_records = [] }

let record t r = t.rev_records <- r :: t.rev_records

(* The façade over the unified event stream: decode the engine's Round
   events back into the record shape this module has always stored. Other
   events (kills, decisions) carry per-item detail the trace never held;
   they pass through untouched for any teed consumer. *)
let sink t =
  Obs.Sink.create (fun ev ->
      match ev with
      | Obs.Event.Round
          {
            engine = Obs.Event.Sync;
            round;
            active;
            victims;
            partial_sends;
            delivered;
            newly_decided;
            newly_halted;
            ones_pending;
          } ->
          record t
            {
              round;
              active_before = active;
              killed = victims;
              partial_sends;
              messages_delivered = delivered;
              newly_decided;
              newly_halted;
              ones_pending;
            }
      | _ -> ())

let records t = List.rev t.rev_records

let to_csv t =
  let header =
    "round,active,kills,partial_sends,delivered,newly_decided,newly_halted,ones_pending"
  in
  let line r =
    Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%s" r.round r.active_before
      (Array.length r.killed) r.partial_sends r.messages_delivered
      r.newly_decided r.newly_halted
      (match r.ones_pending with None -> "" | Some o -> string_of_int o)
  in
  String.concat "\n" (header :: List.map line (records t))

let render t =
  let line r =
    Printf.sprintf
      "r%-4d active=%-5d kills=%-3d partial=%-2d delivered=%-7d decided+=%-3d halted+=%-3d ones=%s"
      r.round r.active_before (Array.length r.killed) r.partial_sends
      r.messages_delivered r.newly_decided r.newly_halted
      (match r.ones_pending with None -> "-" | Some o -> string_of_int o)
  in
  String.concat "\n" (List.map line (records t))
