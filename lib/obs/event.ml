type engine = Sync | Async | Byz

type t =
  | Round of {
      engine : engine;
      round : int;
      active : int;
      victims : int array;
      partial_sends : int;
      delivered : int;
      newly_decided : int;
      newly_halted : int;
      ones_pending : int option;
    }
  | Kill of { engine : engine; round : int; victim : int; delivered_to : int }
  | Decision of { engine : engine; round : int; pid : int; value : int }
  | Valency_probe of { round : int; pr_one : float; expected_rounds : float }
  | Band of {
      round : int;
      ones : int;
      zeros : int;
      flip_lo : int;
      flip_hi : int;
      margin : int;
      action : string;
      kills : int;
    }
  | Checkpoint of { chunk : int; resumed : bool }
  | Chunk_retry of { chunk : int; attempt : int; trial : int; error : string }
  | Chunk_failed of { chunk : int; attempts : int; trial : int; error : string }
  | Watchdog of { experiment : string }

let engine_label = function Sync -> "sim" | Async -> "async" | Byz -> "byz"

(* Keys below are written in ascending ASCII order by hand; the JSONL
   digest tests pin the exact bytes. *)
let to_json ev =
  match ev with
  | Round
      {
        engine;
        round;
        active;
        victims;
        partial_sends;
        delivered;
        newly_decided;
        newly_halted;
        ones_pending;
      } ->
      Printf.sprintf
        "{\"active\":%d,\"delivered\":%d,\"engine\":\"%s\",\"event\":\"round\",\
         \"newly_decided\":%d,\"newly_halted\":%d,\"ones_pending\":%s,\
         \"partial_sends\":%d,\"round\":%d,\"victims\":[%s]}"
        active delivered (engine_label engine) newly_decided newly_halted
        (match ones_pending with None -> "null" | Some o -> string_of_int o)
        partial_sends round
        (String.concat ","
           (Array.to_list (Array.map string_of_int victims)))
  | Kill { engine; round; victim; delivered_to } ->
      Printf.sprintf
        "{\"delivered_to\":%d,\"engine\":\"%s\",\"event\":\"kill\",\
         \"round\":%d,\"victim\":%d}"
        delivered_to (engine_label engine) round victim
  | Decision { engine; round; pid; value } ->
      Printf.sprintf
        "{\"engine\":\"%s\",\"event\":\"decision\",\"pid\":%d,\"round\":%d,\
         \"value\":%d}"
        (engine_label engine) pid round value
  | Valency_probe { round; pr_one; expected_rounds } ->
      Printf.sprintf
        "{\"event\":\"valency_probe\",\"expected_rounds\":%s,\"pr_one\":%s,\
         \"round\":%d}"
        (Json.float_str expected_rounds) (Json.float_str pr_one) round
  | Band { round; ones; zeros; flip_lo; flip_hi; margin; action; kills } ->
      Printf.sprintf
        "{\"action\":\"%s\",\"event\":\"band\",\"flip_hi\":%d,\"flip_lo\":%d,\
         \"kills\":%d,\"margin\":%d,\"ones\":%d,\"round\":%d,\"zeros\":%d}"
        (Json.escape action) flip_hi flip_lo kills margin ones round zeros
  | Checkpoint { chunk; resumed } ->
      Printf.sprintf "{\"chunk\":%d,\"event\":\"checkpoint\",\"resumed\":%b}"
        chunk resumed
  | Chunk_retry { chunk; attempt; trial; error } ->
      Printf.sprintf
        "{\"attempt\":%d,\"chunk\":%d,\"error\":\"%s\",\
         \"event\":\"chunk_retry\",\"trial\":%d}"
        attempt chunk (Json.escape error) trial
  | Chunk_failed { chunk; attempts; trial; error } ->
      Printf.sprintf
        "{\"attempts\":%d,\"chunk\":%d,\"error\":\"%s\",\
         \"event\":\"chunk_failed\",\"trial\":%d}"
        attempts chunk (Json.escape error) trial
  | Watchdog { experiment } ->
      Printf.sprintf "{\"event\":\"watchdog\",\"experiment\":\"%s\"}"
        (Json.escape experiment)

let to_jsonl evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string b (to_json ev);
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b
