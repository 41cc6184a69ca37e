type metric =
  | Counter of { mutable count : int }
  | Int_hist of Stats.Histogram.t
  | Float_stats of Stats.Welford.t

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function
  | Counter _ -> "counter"
  | Int_hist _ -> "int_histogram"
  | Float_stats _ -> "float_stats"

let clash name m wanted =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name (kind_name m)
       wanted)

let incr ?(by = 1) t name =
  if by < 0 then invalid_arg "Obs.Metrics.incr: negative amount";
  match Hashtbl.find_opt t.tbl name with
  | None -> Hashtbl.replace t.tbl name (Counter { count = by })
  | Some (Counter c) -> c.count <- c.count + by
  | Some m -> clash name m "counter"

let observe_int t name v =
  match Hashtbl.find_opt t.tbl name with
  | None ->
      let h = Stats.Histogram.create () in
      Stats.Histogram.add h v;
      Hashtbl.replace t.tbl name (Int_hist h)
  | Some (Int_hist h) -> Stats.Histogram.add h v
  | Some m -> clash name m "int_histogram"

let observe t name v =
  match Hashtbl.find_opt t.tbl name with
  | None ->
      let w = Stats.Welford.create () in
      Stats.Welford.add w v;
      Hashtbl.replace t.tbl name (Float_stats w)
  | Some (Float_stats w) -> Stats.Welford.add w v
  | Some m -> clash name m "float_stats"

let absorb_event t ev =
  match ev with
  | Event.Round
      {
        engine;
        victims;
        partial_sends;
        delivered;
        newly_decided = _;
        newly_halted;
        ones_pending;
        _;
      } ->
      let e = Event.engine_label engine in
      incr t (e ^ ".rounds");
      incr t (e ^ ".delivered") ~by:delivered;
      incr t (e ^ ".kills") ~by:(Array.length victims);
      incr t (e ^ ".partial_sends") ~by:partial_sends;
      incr t (e ^ ".halts") ~by:newly_halted;
      (match ones_pending with
      | Some o -> observe_int t (e ^ ".ones_pending") o
      | None -> ())
  | Event.Kill { engine; delivered_to; _ } ->
      let e = Event.engine_label engine in
      incr t (e ^ ".kill_events");
      if delivered_to > 0 then incr t (e ^ ".partial_kill_events")
  | Event.Decision { engine; round; _ } ->
      let e = Event.engine_label engine in
      incr t (e ^ ".decisions");
      observe_int t (e ^ ".decision_round") round
  | Event.Valency_probe { pr_one; expected_rounds; _ } ->
      incr t "lb.valency_probes";
      observe t "lb.valency_pr_one" pr_one;
      observe t "lb.valency_expected_rounds" expected_rounds
  | Event.Band { action; kills; _ } ->
      incr t "lb.band_rounds";
      incr t ("lb.band_action." ^ action);
      incr t "lb.band_kills" ~by:kills
  | Event.Checkpoint { resumed; _ } ->
      incr t (if resumed then "runner.chunks_resumed" else "runner.chunks_stored")
  | Event.Chunk_retry _ -> incr t "runner.chunk_retries"
  | Event.Chunk_failed _ -> incr t "runner.chunk_failures"
  | Event.Watchdog _ -> incr t "supervise.watchdog_fires"

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl []
  |> List.sort String.compare

let is_empty t = Hashtbl.length t.tbl = 0

let counter_value t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> 0
  | Some (Counter c) -> c.count
  | Some m -> clash name m "counter"

(* Fresh copies everywhere: merge/prefixed outputs must never alias their
   inputs' mutable cells ([Histogram.merge]/[Welford.merge] already return
   fresh values, including against an empty operand). *)
let copy_metric = function
  | Counter { count } -> Counter { count }
  | Int_hist h -> Int_hist (Stats.Histogram.merge h (Stats.Histogram.create ()))
  | Float_stats w -> Float_stats (Stats.Welford.merge w (Stats.Welford.create ()))

let merge a b =
  let out = create () in
  List.iter
    (fun name -> Hashtbl.replace out.tbl name (copy_metric (Hashtbl.find a.tbl name)))
    (names a);
  List.iter
    (fun name ->
      let mb = Hashtbl.find b.tbl name in
      match Hashtbl.find_opt out.tbl name with
      | None -> Hashtbl.replace out.tbl name (copy_metric mb)
      | Some (Counter c) -> (
          match mb with
          | Counter c' -> c.count <- c.count + c'.count
          | m -> clash name m "counter")
      | Some (Int_hist h) -> (
          match mb with
          | Int_hist h' ->
              Hashtbl.replace out.tbl name (Int_hist (Stats.Histogram.merge h h'))
          | m -> clash name m "int_histogram")
      | Some (Float_stats w) -> (
          match mb with
          | Float_stats w' ->
              Hashtbl.replace out.tbl name
                (Float_stats (Stats.Welford.merge w w'))
          | m -> clash name m "float_stats"))
    (names b);
  out

let prefixed prefix t =
  let out = create () in
  List.iter
    (fun name ->
      Hashtbl.replace out.tbl (prefix ^ name)
        (copy_metric (Hashtbl.find t.tbl name)))
    (names t);
  out

let metric_json =
  let open Json in
  let obj kind count members =
    Obj (("kind", String kind) :: ("count", Int count) :: members)
  in
  function
  | Counter { count } -> obj "counter" count []
  | Int_hist h ->
      obj "int_histogram" (Stats.Histogram.count h)
        [ ( "bins",
            List
              (List.map
                 (fun (v, c) -> List [ Int v; Int c ])
                 (Stats.Histogram.bins h)) ) ]
  | Float_stats w ->
      obj "float_stats" (Stats.Welford.count w)
        [ ("max", Float (Stats.Welford.max w));
          ("mean", Float (Stats.Welford.mean w));
          ("min", Float (Stats.Welford.min w));
          ("total", Float (Stats.Welford.total w)) ]

let to_json t =
  let metric name = (name, metric_json (Hashtbl.find t.tbl name)) in
  Json.Obj
    [ ("metrics", Json.Obj (List.map metric (names t)));
      ("schema", Json.String "metrics/v1") ]

let digest t = Digest.to_hex (Digest.string (Json.to_file (to_json t)))
