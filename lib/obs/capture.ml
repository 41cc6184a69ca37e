type t = {
  record_events : bool;
  mutable metrics : Metrics.t;
  mutable events : Event.t list;
}

let create ?(events = false) () =
  { record_events = events; metrics = Metrics.create (); events = [] }

let record_events t = t.record_events

let set t ~metrics ~events =
  t.metrics <- metrics;
  t.events <- events

let metrics t = t.metrics

let events t = t.events

let metrics_json t = Json.to_file (Metrics.to_json t.metrics)

let events_jsonl t = Event.to_jsonl t.events

let digest t =
  Digest.to_hex (Digest.string (metrics_json t ^ "\x00" ^ events_jsonl t))
