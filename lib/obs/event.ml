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

let to_json ev =
  let open Json in
  let obj event members = Obj (("event", String event) :: members) in
  let engine e = ("engine", String (engine_label e)) in
  match ev with
  | Round { engine = e; round; active; victims; partial_sends; delivered;
            newly_decided; newly_halted; ones_pending } ->
      obj "round"
        [ engine e; ("round", Int round); ("active", Int active);
          ("victims", List (List.map (fun v -> Int v) (Array.to_list victims)));
          ("partial_sends", Int partial_sends); ("delivered", Int delivered);
          ("newly_decided", Int newly_decided);
          ("newly_halted", Int newly_halted);
          ( "ones_pending",
            Option.fold ~none:Null ~some:(fun o -> Int o) ones_pending ) ]
  | Kill { engine = e; round; victim; delivered_to } ->
      obj "kill"
        [ engine e; ("round", Int round); ("victim", Int victim);
          ("delivered_to", Int delivered_to) ]
  | Decision { engine = e; round; pid; value } ->
      obj "decision"
        [ engine e; ("round", Int round); ("pid", Int pid);
          ("value", Int value) ]
  | Valency_probe { round; pr_one; expected_rounds } ->
      obj "valency_probe"
        [ ("round", Int round); ("pr_one", Float pr_one);
          ("expected_rounds", Float expected_rounds) ]
  | Band { round; ones; zeros; flip_lo; flip_hi; margin; action; kills } ->
      obj "band"
        [ ("round", Int round); ("ones", Int ones); ("zeros", Int zeros);
          ("flip_lo", Int flip_lo); ("flip_hi", Int flip_hi);
          ("margin", Int margin); ("action", String action);
          ("kills", Int kills) ]
  | Checkpoint { chunk; resumed } ->
      obj "checkpoint" [ ("chunk", Int chunk); ("resumed", Bool resumed) ]
  | Chunk_retry { chunk; attempt; trial; error } ->
      obj "chunk_retry"
        [ ("chunk", Int chunk); ("attempt", Int attempt); ("trial", Int trial);
          ("error", String error) ]
  | Chunk_failed { chunk; attempts; trial; error } ->
      obj "chunk_failed"
        [ ("chunk", Int chunk); ("attempts", Int attempts);
          ("trial", Int trial); ("error", String error) ]
  | Watchdog { experiment } ->
      obj "watchdog" [ ("experiment", String experiment) ]

let to_jsonl evs =
  String.concat "" (List.map (fun ev -> Json.to_line (to_json ev) ^ "\n") evs)
