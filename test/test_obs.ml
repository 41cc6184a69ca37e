(* Observability layer tests: the determinism contract (metrics and event
   digests byte-identical at --jobs 1 vs --jobs 3, across engines), the
   zero-cost-when-disabled sink contract, and the metrics registry's
   merge/prefix/kind algebra. *)

let to_alcotest = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  at 0

(* --- digests are --jobs-independent (the QCheck satellite) -------------- *)

let sim_digest ~jobs ~n ~t ~trials ~seed protocol make_adversary =
  let capture = Obs.Capture.create ~events:true () in
  ignore
    (Sim.Runner.run_trials ~max_rounds:2000 ~jobs ~capture ~trials ~seed
       ~gen_inputs:(Sim.Runner.input_gen_random ~n)
       ~t protocol make_adversary);
  Obs.Capture.digest capture

let prop_synran_digest_jobs =
  QCheck.Test.make ~name:"SynRan capture digest identical at jobs 1 vs 3"
    ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 8 24))
    (fun (seed, trials) ->
      let n = 24 in
      let digest jobs =
        sim_digest ~jobs ~n ~t:(n - 1) ~trials ~seed
          (Core.Synran.protocol n) (fun () ->
            Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
              ~bit_of_msg:Core.Synran.bit_of_msg ())
      in
      digest 1 = digest 3)

let prop_floodset_digest_jobs =
  QCheck.Test.make ~name:"FloodSet capture digest identical at jobs 1 vs 3"
    ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 8 24))
    (fun (seed, trials) ->
      let n = 16 and t = 4 in
      let digest jobs =
        sim_digest ~jobs ~n ~t ~trials ~seed
          (Baselines.Floodset.protocol ~rounds:(t + 1) ())
          (fun () -> Baselines.Adversaries.drip ~per_round:1)
      in
      digest 1 = digest 3)

(* A fold's capture digest paired with its summary, at one worker count. *)
let digest_and_summary run =
  let capture = Obs.Capture.create ~events:true () in
  let s = Sim.Runner.value (run capture) in
  (Obs.Capture.digest capture, s)

let prop_eig_digest_jobs =
  QCheck.Test.make
    ~name:"EIG capture digest and summary identical at jobs 1 vs 3" ~count:6
    QCheck.(pair (int_range 1 1000) (int_range 8 20))
    (fun (seed, trials) ->
      let t = 2 in
      let n = (3 * t) + 1 in
      let at jobs =
        digest_and_summary (fun capture ->
            Byz.Engine.run_trials ~jobs ~capture ~trials ~seed
              ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
              ~t (Byz.Eig.protocol ~t)
              (fun () -> Byz.Adversary.crash_like ~victims:[ (1, 0) ]))
      in
      at 1 = at 3)

let prop_async_splitter_digest_jobs =
  QCheck.Test.make
    ~name:"async Ben-Or splitter capture digest and summary identical at jobs 1 vs 3"
    ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 8 20))
    (fun (seed, trials) ->
      let n = 4 and t = 1 in
      let at jobs =
        digest_and_summary (fun capture ->
            Async.Engine.run_trials ~phase_of:Async.Benor.phase ~jobs ~capture
              ~trials ~seed
              ~gen_inputs:(fun rng -> Prng.Sample.random_bits rng n)
              ~t (Async.Benor.protocol ~t) Async.Benor.splitter)
      in
      at 1 = at 3)

(* --- capture contents --------------------------------------------------- *)

let test_capture_counts_trials () =
  let n = 16 and trials = 12 and seed = 11 in
  let capture = Obs.Capture.create ~events:true () in
  ignore
    (Sim.Runner.run_trials ~jobs:1 ~capture ~trials ~seed
       ~gen_inputs:(Sim.Runner.input_gen_random ~n)
       ~t:(n - 1) (Core.Synran.protocol n)
       (fun () ->
         Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
           ~bit_of_msg:Core.Synran.bit_of_msg ()));
  let m = Obs.Capture.metrics capture in
  check_int "runner.trials counts every trial" trials
    (Obs.Metrics.counter_value m "runner.trials");
  check_bool "the event stream is non-empty" true
    (Obs.Capture.events capture <> []);
  check_bool "every sim event tags the Sync engine" true
    (List.for_all
       (function
         | Obs.Event.Round { engine; _ }
         | Obs.Event.Kill { engine; _ }
         | Obs.Event.Decision { engine; _ } ->
             engine = Obs.Event.Sync
         | _ -> true)
       (Obs.Capture.events capture))

let test_capture_without_events () =
  (* events:false (the default) still accumulates metrics but records no
     stream. *)
  let n = 16 in
  let capture = Obs.Capture.create () in
  ignore
    (Sim.Runner.run_trials ~jobs:1 ~capture ~trials:5 ~seed:3
       ~gen_inputs:(Sim.Runner.input_gen_random ~n)
       ~t:(n - 1) (Core.Synran.protocol n)
       (fun () ->
         Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
           ~bit_of_msg:Core.Synran.bit_of_msg ()));
  check_bool "metrics still accumulate" false
    (Obs.Metrics.is_empty (Obs.Capture.metrics capture));
  check_bool "no events recorded" true (Obs.Capture.events capture = [])

(* --- the zero-cost-when-disabled sink contract -------------------------- *)

let engine_run sink =
  let n = 16 in
  let rng = Prng.Rng.create 5 in
  let inputs = Prng.Sample.random_bits (Prng.Rng.create 6) n in
  Sim.Engine.run ~max_rounds:2000 ~sink (Core.Synran.protocol n)
    (Core.Lb_adversary.band_control ~rules:Core.Onesided.paper
       ~bit_of_msg:Core.Synran.bit_of_msg ())
    ~inputs ~t:(n - 1) ~rng

let test_disabled_sink_receives_nothing () =
  (* [null] is the one disabled sink: neither a whole engine run nor a
     direct emit gets an event past its gate. *)
  ignore (engine_run Obs.Sink.null);
  Obs.Sink.emit Obs.Sink.null (Obs.Event.Watchdog { experiment = "e1" });
  check_bool "the null sink is disabled" false (Obs.Sink.enabled Obs.Sink.null);
  check_int "the null sink accepted no events" 0
    (Obs.Sink.received Obs.Sink.null)

let test_enabled_sink_receives () =
  (* Sanity for the guard in the other direction: the same run with an
     enabled sink does deliver events. *)
  let sink = Obs.Sink.create (fun _ -> ()) in
  ignore (engine_run sink);
  check_bool "enabled sink received events" true (Obs.Sink.received sink > 0)

let test_sink_outcome_unchanged () =
  (* Attaching a sink must not perturb the execution itself. *)
  let on = engine_run (Obs.Sink.create (fun _ -> ())) in
  let off = engine_run Obs.Sink.null in
  check_bool "outcome identical with sink on vs off" true
    (on.Sim.Engine.rounds_executed = off.Sim.Engine.rounds_executed
    && on.decisions = off.decisions
    && on.kills_used = off.kills_used)

let test_tee () =
  let a = Obs.Sink.create (fun _ -> ()) in
  let b = Obs.Sink.create (fun _ -> ()) in
  let ev = Obs.Event.Checkpoint { chunk = 0; resumed = false } in
  Obs.Sink.emit (Obs.Sink.tee a b) ev;
  check_int "tee forwards to both" 2 (Obs.Sink.received a + Obs.Sink.received b);
  check_bool "tee of two nulls is disabled" false
    (Obs.Sink.enabled (Obs.Sink.tee Obs.Sink.null Obs.Sink.null))

(* --- event JSON: shape and escaping ------------------------------------- *)

(* --- Json ---------------------------------------------------------------- *)

(* The one string escaper behind every JSON artefact. *)
let test_json_escape () =
  let check = Alcotest.(check string) in
  check "plain text untouched" "e1 ok" (Obs.Json.escape "e1 ok");
  check "quote and backslash" {|a\"b\\c|} (Obs.Json.escape {|a"b\c|});
  check "named controls" {|\n\r\t|} (Obs.Json.escape "\n\r\t");
  check "other controls as \\u" {|\u0000\u0001\u001f|}
    (Obs.Json.escape "\x00\x01\x1f");
  check "DEL and UTF-8 bytes pass through" "\x7f\xc3\xa9"
    (Obs.Json.escape "\x7f\xc3\xa9")

let test_json_float_str () =
  List.iter
    (fun x ->
      Alcotest.(check bool)
        (Printf.sprintf "%h round-trips" x)
        true
        (Float.equal x (float_of_string (Obs.Json.float_str x))))
    [ 0.0; -0.0; 0.1; 1.0 /. 3.0; 1e-300; 5e-324; Float.max_float; -2.5 ];
  Alcotest.(check string) "0.1 exact" "0.10000000000000001"
    (Obs.Json.float_str 0.1);
  Alcotest.(check string) "nan" {|"nan"|} (Obs.Json.float_str Float.nan);
  Alcotest.(check string) "inf" {|"inf"|} (Obs.Json.float_str Float.infinity);
  Alcotest.(check string) "-inf" {|"-inf"|}
    (Obs.Json.float_str Float.neg_infinity)

(* The body of a JSON string literal decoded: the inverse of
   [Obs.Json.escape]. Raises on a raw quote or control byte, or a
   malformed escape. *)
let unescape e =
  let b = Buffer.create (String.length e) in
  let rec go i =
    if i < String.length e then
      match e.[i] with
      | '\\' ->
          let next =
            match e.[i + 1] with
            | ('"' | '\\' | '/') as c -> c
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'u' -> Char.chr (int_of_string ("0x" ^ String.sub e (i + 2) 4))
            | c -> failwith (Printf.sprintf "bad escape \\%c" c)
          in
          Buffer.add_char b next;
          go (i + if e.[i + 1] = 'u' then 6 else 2)
      | '"' -> failwith "raw quote"
      | c when Char.code c < 0x20 -> failwith "raw control byte"
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let test_json_control_bytes () =
  for code = 0 to 0x1f do
    let body =
      match Char.chr code with
      | '\n' -> {|\n|}
      | '\r' -> {|\r|}
      | '\t' -> {|\t|}
      | _ -> Printf.sprintf "\\u%04x" code
    in
    Alcotest.(check string)
      (Printf.sprintf "byte 0x%02x" code)
      ("\"" ^ body ^ "\"")
      (Obs.Json.to_line (Obs.Json.String (String.make 1 (Char.chr code))))
  done

let prop_json_escape_round_trip =
  QCheck.Test.make ~name:"escape decodes back to every byte string" ~count:500
    QCheck.string
    (fun s -> unescape (Obs.Json.escape s) = s)

let prop_json_float_round_trip =
  QCheck.Test.make ~name:"a printed Float reads back exactly" ~count:1000
    QCheck.float
    (fun x ->
      let printed = Obs.Json.to_line (Obs.Json.Float x) in
      if Float.is_finite x then Float.equal x (float_of_string printed)
      else List.mem printed [ {|"nan"|}; {|"inf"|}; {|"-inf"|} ])

let prop_json_key_order =
  QCheck.Test.make ~name:"object keys print in ascending byte order"
    ~count:300
    QCheck.(small_list (pair (string_of_size (Gen.int_bound 3)) small_int))
    (fun members ->
      (* Distinct keys, in the order given. *)
      let members =
        List.fold_left
          (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
          [] members
      in
      let expected =
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":%d" (Obs.Json.escape k) v)
               (List.sort (fun (a, _) (b, _) -> String.compare a b) members))
        ^ "}"
      in
      let obj ms = Obs.Json.(Obj (List.map (fun (k, v) -> (k, Int v)) ms)) in
      Obs.Json.to_line (obj members) = expected
      && Obs.Json.to_line (obj (List.rev members)) = expected)

let test_json_empty_containers () =
  let check = Alcotest.(check string) in
  check "empty object line" "{}" (Obs.Json.to_line (Obs.Json.Obj []));
  check "empty list line" "[]" (Obs.Json.to_line (Obs.Json.List []));
  check "empty object file" "{}\n" (Obs.Json.to_file (Obs.Json.Obj []));
  check "empty list file" "[]\n" (Obs.Json.to_file (Obs.Json.List []));
  check "empty members stay on their line" "{\n  \"a\": {},\n  \"b\": []\n}\n"
    (Obs.Json.to_file Obs.Json.(Obj [ ("b", List []); ("a", Obj []) ]))

let test_json_file_layout () =
  (* Depths 0 and 1 one member per line, deeper compact; Num verbatim. *)
  let v =
    Obs.Json.(
      Obj
        [
          ("x", List [ Int 1; Obj [ ("k", List [ Num "0.500"; Null ]) ] ]);
          ("s", String "v");
          ("o", Obj [ ("t", Bool true) ]);
        ])
  in
  Alcotest.(check string)
    "file layout"
    {|{
  "o": {
    "t": true
  },
  "s": "v",
  "x": [
    1,
    {"k":[0.500,null]}
  ]
}
|}
    (Obs.Json.to_file v);
  Alcotest.(check string)
    "line form" {|{"o":{"t":true},"s":"v","x":[1,{"k":[0.500,null]}]}|}
    (Obs.Json.to_line v)

(* One event per constructor, each field set apart from its neighbours,
   with text that needs every kind of escape. *)
let every_event =
  Obs.Event.
    [
      Round
        {
          engine = Sync;
          round = 3;
          active = 61;
          victims = [| 2; 5 |];
          partial_sends = 1;
          delivered = 3721;
          newly_decided = 4;
          newly_halted = 2;
          ones_pending = Some 30;
        };
      Round
        {
          engine = Byz;
          round = 1;
          active = 7;
          victims = [||];
          partial_sends = 0;
          delivered = 49;
          newly_decided = 0;
          newly_halted = 0;
          ones_pending = None;
        };
      Kill { engine = Async; round = 12; victim = 4; delivered_to = 9 };
      Decision { engine = Sync; round = 7; pid = 11; value = 1 };
      Valency_probe { round = 2; pr_one = 0.1; expected_rounds = 1.0 /. 3.0 };
      Valency_probe
        { round = 5; pr_one = Float.nan; expected_rounds = Float.infinity };
      Band
        {
          round = 4;
          ones = 40;
          zeros = 21;
          flip_lo = 28;
          flip_hi = 33;
          margin = -2;
          action = "trim";
          kills = 7;
        };
      Checkpoint { chunk = 6; resumed = true };
      (* Printexc renders [Failure "boom"] with embedded quotes: the error
         field must escape quotes, backslashes and newlines or the JSONL
         stream breaks at the first retried chunk. *)
      Chunk_retry
        { chunk = 2; attempt = 0; trial = 17; error = "Failure(\"boom\")\nat C:\\tmp" };
      Chunk_failed
        {
          chunk = 4;
          attempts = 3;
          trial = 35;
          error = "injected fault: body@4:raise";
        };
      Watchdog { experiment = "e1\t\r\x01" };
    ]

let test_event_jsonl_pinned () =
  (* The bytes a build from before Obs.Json.t printed for [every_event]. *)
  Alcotest.(check string)
    "one line per constructor"
    {|{"active":61,"delivered":3721,"engine":"sim","event":"round","newly_decided":4,"newly_halted":2,"ones_pending":30,"partial_sends":1,"round":3,"victims":[2,5]}
{"active":7,"delivered":49,"engine":"byz","event":"round","newly_decided":0,"newly_halted":0,"ones_pending":null,"partial_sends":0,"round":1,"victims":[]}
{"delivered_to":9,"engine":"async","event":"kill","round":12,"victim":4}
{"engine":"sim","event":"decision","pid":11,"round":7,"value":1}
{"event":"valency_probe","expected_rounds":0.33333333333333331,"pr_one":0.10000000000000001,"round":2}
{"event":"valency_probe","expected_rounds":"inf","pr_one":"nan","round":5}
{"action":"trim","event":"band","flip_hi":33,"flip_lo":28,"kills":7,"margin":-2,"ones":40,"round":4,"zeros":21}
{"chunk":6,"event":"checkpoint","resumed":true}
{"attempt":0,"chunk":2,"error":"Failure(\"boom\")\nat C:\\tmp","event":"chunk_retry","trial":17}
{"attempts":3,"chunk":4,"error":"injected fault: body@4:raise","event":"chunk_failed","trial":35}
{"event":"watchdog","experiment":"e1\t\r\u0001"}
|}
    (Obs.Event.to_jsonl every_event)

let test_metrics_file_pinned () =
  (* Every metric kind, and a name that needs escaping; the bytes a build
     from before Obs.Json.t printed. *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "sim.rounds" ~by:12;
  Obs.Metrics.incr m "a\"quoted\"";
  List.iter (Obs.Metrics.observe_int m "sim.decision_round") [ 3; 1; 3; 7 ];
  List.iter
    (fun (pr_one, expected_rounds) ->
      Obs.Metrics.absorb_event m
        (Obs.Event.Valency_probe { round = 1; pr_one; expected_rounds }))
    [ (0.1, 2.5); (0.25, 1e-300); (1.0 /. 3.0, 4.0) ];
  Alcotest.(check string)
    "metrics/v1 file"
    {|{
  "metrics": {
    "a\"quoted\"": {"count":1,"kind":"counter"},
    "lb.valency_expected_rounds": {"count":3,"kind":"float_stats","max":4,"mean":2.1666666666666665,"min":1e-300,"total":6.5},
    "lb.valency_pr_one": {"count":3,"kind":"float_stats","max":0.33333333333333331,"mean":0.22777777777777777,"min":0.10000000000000001,"total":0.68333333333333335},
    "lb.valency_probes": {"count":3,"kind":"counter"},
    "sim.decision_round": {"bins":[[1,1],[3,2],[7,1]],"count":4,"kind":"int_histogram"},
    "sim.rounds": {"count":12,"kind":"counter"}
  },
  "schema": "metrics/v1"
}
|}
    (Obs.Json.to_file (Obs.Metrics.to_json m))

let test_event_metrics_split () =
  (* Satellite: recovered attempts and terminal failures are distinct
     registry names — a retried-but-recovered run must never look failed
     in the metrics. *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.absorb_event m
    (Obs.Event.Chunk_retry { chunk = 0; attempt = 0; trial = 1; error = "e" });
  Obs.Metrics.absorb_event m
    (Obs.Event.Chunk_retry { chunk = 0; attempt = 1; trial = 1; error = "e" });
  Obs.Metrics.absorb_event m
    (Obs.Event.Chunk_failed
       { chunk = 0; attempts = 3; trial = 1; error = "e" });
  check_int "retries counted apart" 2
    (Obs.Metrics.counter_value m "runner.chunk_retries");
  check_int "terminal failures counted apart" 1
    (Obs.Metrics.counter_value m "runner.chunk_failures")

(* --- registry algebra --------------------------------------------------- *)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.incr a "x" ~by:2;
  Obs.Metrics.incr b "x" ~by:3;
  Obs.Metrics.observe_int b "h" 7;
  let m = Obs.Metrics.merge a b in
  check_int "counters add under merge" 5 (Obs.Metrics.counter_value m "x");
  check_int "inputs unchanged" 2 (Obs.Metrics.counter_value a "x");
  check_bool "histogram carried over" true
    (contains (Obs.Json.to_file (Obs.Metrics.to_json m)) "\"h\": {\"bins\":[[7,1]]")

let test_metrics_kind_clash () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "x";
  check_bool "observing a counter as a histogram raises" true
    (try
       Obs.Metrics.observe_int m "x" 1;
       false
     with Invalid_argument _ -> true)

let test_metrics_prefixed () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "trials";
  let p = Obs.Metrics.prefixed "e3." m in
  check_int "prefixed name holds the value" 1
    (Obs.Metrics.counter_value p "e3.trials");
  check_bool "original name gone" true
    (not (contains (Obs.Json.to_file (Obs.Metrics.to_json p)) "\"trials\""))

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "obs.determinism",
      [
        to_alcotest prop_synran_digest_jobs;
        to_alcotest prop_floodset_digest_jobs;
        to_alcotest prop_eig_digest_jobs;
        to_alcotest prop_async_splitter_digest_jobs;
        tc "capture counts trials and tags engines" test_capture_counts_trials;
        tc "metrics without event recording" test_capture_without_events;
      ] );
    ( "obs.sink",
      [
        tc "disabled sink accepts nothing" test_disabled_sink_receives_nothing;
        tc "enabled sink receives" test_enabled_sink_receives;
        tc "outcome unchanged by sink" test_sink_outcome_unchanged;
        tc "tee forwards and gates" test_tee;
      ] );
    ( "obs.json",
      [
        tc "escape" test_json_escape;
        tc "float_str" test_json_float_str;
        tc "every control byte escaped" test_json_control_bytes;
        to_alcotest prop_json_escape_round_trip;
        to_alcotest prop_json_float_round_trip;
        to_alcotest prop_json_key_order;
        tc "empty object and list" test_json_empty_containers;
        tc "file layout" test_json_file_layout;
      ] );
    ( "obs.events",
      [
        tc "one pinned JSONL line per constructor" test_event_jsonl_pinned;
        tc "retries and failures are distinct metrics"
          test_event_metrics_split;
      ] );
    ( "obs.metrics",
      [
        tc "merge adds counters" test_metrics_merge;
        tc "kind clash raises" test_metrics_kind_clash;
        tc "prefixed deep-copies" test_metrics_prefixed;
        tc "pinned file with every metric kind" test_metrics_file_pinned;
      ] );
  ]
