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
  (* The callback would fail the test if any event were ever constructed
     and delivered; the sink's own counter pins the count to zero. *)
  let sink =
    Obs.Sink.create ~enabled:false (fun _ ->
        Alcotest.fail "disabled sink's callback was invoked")
  in
  ignore (engine_run sink);
  check_int "disabled sink accepted no events" 0 (Obs.Sink.received sink);
  check_int "the null sink never accumulates" 0
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

(* The one string escaper behind events, metrics and the run manifest. *)
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

let test_event_json_escaped () =
  (* Regression pin: failure text flows into events verbatim, and
     Printexc renders [Failure "boom"] with embedded quotes — the error
     field must escape quotes, backslashes, and newlines or the JSONL
     stream breaks at the first retried chunk. *)
  let ev =
    Obs.Event.Chunk_retry
      {
        chunk = 2;
        attempt = 0;
        trial = 17;
        error = "Failure(\"boom\")\nat C:\\tmp";
      }
  in
  Alcotest.(check string)
    "chunk_retry json escaped"
    "{\"attempt\":0,\"chunk\":2,\"error\":\"Failure(\\\"boom\\\")\\nat \
     C:\\\\tmp\",\"event\":\"chunk_retry\",\"trial\":17}"
    (Obs.Event.to_json ev)

let test_event_json_chunk_failed () =
  let ev =
    Obs.Event.Chunk_failed
      {
        chunk = 4;
        attempts = 3;
        trial = 35;
        error = "injected fault: body@4:raise";
      }
  in
  Alcotest.(check string)
    "chunk_failed json shape"
    "{\"attempts\":3,\"chunk\":4,\"error\":\"injected fault: \
     body@4:raise\",\"event\":\"chunk_failed\",\"trial\":35}"
    (Obs.Event.to_json ev)

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
    (contains (Obs.Metrics.to_json m) "\"h\": {\"bins\":[[7,1]]")

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
    (not (contains (Obs.Metrics.to_json p) "\"trials\""))

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
      ] );
    ( "obs.events",
      [
        tc "retry event json escapes failure text" test_event_json_escaped;
        tc "chunk_failed event json shape" test_event_json_chunk_failed;
        tc "retries and failures are distinct metrics"
          test_event_metrics_split;
      ] );
    ( "obs.metrics",
      [
        tc "merge adds counters" test_metrics_merge;
        tc "kind clash raises" test_metrics_kind_clash;
        tc "prefixed deep-copies" test_metrics_prefixed;
      ] );
  ]
