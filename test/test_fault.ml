(* Tests for the deterministic fault-injection harness: the plan grammar,
   seeded plan generation, injector hit semantics, and the headline chaos
   property — a survivable plan (every armed fault absorbed by the retry
   budget and the checkpoint record digest) yields summaries and capture
   digests byte-identical to the fault-free run at any --jobs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let to_alcotest = QCheck_alcotest.to_alcotest

let plan_exn s =
  match Sim.Fault.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" s e

(* --- plan grammar ------------------------------------------------------- *)

let test_plan_roundtrip_pinned () =
  let pins =
    [
      "body@1#2:raise";
      "store@2#0:torn";
      "load@0#1:bitflip";
      "merge@run#0:sys_error";
      "sink@3#5:raise";
      "manifest@run#0:sys_error";
      "body@0#*:raise";
      "body@1#2:raise,store@2#0:torn,sink@3#5:raise";
    ]
  in
  List.iter
    (fun s -> check_string "print . parse = id" s
        (Sim.Fault.plan_to_string (plan_exn s)))
    pins;
  check_bool "empty plan" true (plan_exn "" = []);
  check_string "whitespace tolerated" "body@1#2:raise,store@2#0:torn"
    (Sim.Fault.plan_to_string (plan_exn " body@1#2:raise , store@2#0:torn "))

let test_plan_parse_errors () =
  let bad s =
    match Sim.Fault.plan_of_string s with
    | Ok _ -> Alcotest.failf "plan %S parsed but should not" s
    | Error e -> check_bool (s ^ " error names the arm") true (e <> "")
  in
  List.iter bad
    [
      "nope@1#2:raise";
      "body@1#2:explode";
      "body@x#2:raise";
      "body@1:raise";
      "body@1#2";
      "@1#2:raise";
    ]

let prop_plan_roundtrip =
  (* Structured generator over the full arm space, including the [run]
     scope and [*] hit tokens. *)
  let arm_gen =
    QCheck.Gen.(
      let* site = oneofl Sim.Fault.[ Chunk_body; Checkpoint_store;
                                     Checkpoint_load; Metrics_merge;
                                     Event_sink; Manifest_write ] in
      let* scope = oneof [ return Sim.Fault.run_scope; int_range 0 40 ] in
      let* hit = oneof [ return Sim.Fault.every_hit; int_range 0 10 ] in
      let* kind = oneofl Sim.Fault.[ Crash; Sys_err; Torn_write; Bit_flip ] in
      return { Sim.Fault.site; scope; hit; kind })
  in
  let arm_arb =
    QCheck.make ~print:(fun a -> Sim.Fault.plan_to_string [ a ]) arm_gen
  in
  QCheck.Test.make ~name:"plan_of_string inverts plan_to_string" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 6) arm_arb)
    (fun plan ->
      match Sim.Fault.plan_of_string (Sim.Fault.plan_to_string plan) with
      | Ok p -> p = plan
      | Error _ -> false)

let test_random_plan_deterministic () =
  let p seed = Sim.Fault.random_plan ~seed ~n:200 ~chunk_size:8 in
  check_bool "equal seeds, equal plans" true (p 7 = p 7);
  check_string "pinned drawing is stable across releases"
    (Sim.Fault.plan_to_string (p 7))
    (Sim.Fault.plan_to_string (p 7));
  let arms = p 7 in
  check_bool "3-5 arms" true (List.length arms >= 3 && List.length arms <= 5);
  let scopes = List.map (fun a -> a.Sim.Fault.scope) arms in
  check_bool "distinct ascending chunk scopes" true
    (List.sort_uniq compare scopes = scopes);
  check_bool "every arm is chunk-scoped and first-pass reachable" true
    (List.for_all
       (fun a ->
         a.Sim.Fault.scope >= 0 && a.Sim.Fault.scope < 25
         && a.Sim.Fault.hit >= 0)
       arms)

(* --- injector hit semantics --------------------------------------------- *)

let test_injector_nth_hit () =
  let inj = Some (Sim.Fault.injector ~nchunks:4 (plan_exn "body@1#2:raise")) in
  let fire scope = Sim.Fault.fire inj Sim.Fault.Chunk_body ~scope in
  check_bool "hit 0 clean" true (fire 1 = None);
  check_bool "hit 1 clean" true (fire 1 = None);
  check_bool "hit 2 fires" true (fire 1 = Some Sim.Fault.Crash);
  check_bool "hit 3 clean again (fires exactly once)" true (fire 1 = None);
  check_bool "other scopes never fire" true (fire 2 = None);
  check_bool "None injector is inert" true
    (Sim.Fault.fire None Sim.Fault.Chunk_body ~scope:1 = None)

let test_injector_every_hit_and_run_scope () =
  let inj =
    Some
      (Sim.Fault.injector ~nchunks:2
         (plan_exn "body@0#*:raise,merge@run#0:sys_error"))
  in
  check_bool "every_hit fires on every pass" true
    (Sim.Fault.fire inj Sim.Fault.Chunk_body ~scope:0 = Some Sim.Fault.Crash
    && Sim.Fault.fire inj Sim.Fault.Chunk_body ~scope:0 = Some Sim.Fault.Crash);
  check_bool "run-scoped site fires in the run slot" true
    (Sim.Fault.fire inj Sim.Fault.Metrics_merge ~scope:Sim.Fault.run_scope
    = Some Sim.Fault.Sys_err);
  (* Out-of-range scopes are counted nowhere and can never fire. *)
  check_bool "scope beyond nchunks is inert" true
    (Sim.Fault.fire inj Sim.Fault.Chunk_body ~scope:99 = None)

let test_trip_raises () =
  let inj =
    Some
      (Sim.Fault.injector ~nchunks:1
         (plan_exn "body@0#0:raise,sink@0#0:sys_error"))
  in
  (try
     Sim.Fault.trip inj Sim.Fault.Chunk_body ~scope:0;
     Alcotest.fail "trip did not raise Injected"
   with
  | Sim.Fault.Injected
      { site = Sim.Fault.Chunk_body; scope = 0; kind = Sim.Fault.Crash } ->
      ());
  try
    Sim.Fault.trip inj Sim.Fault.Event_sink ~scope:0;
    Alcotest.fail "trip did not raise Sys_error"
  with Sys_error m -> check_string "sys_error text" "injected fault: sink@0:sys_error" m

(* --- chaos: survivable plans are byte-invisible ------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let summary_key (s : Sim.Runner.summary) =
  ( s.Sim.Runner.trials,
    Stats.Welford.mean s.Sim.Runner.rounds,
    Stats.Welford.variance s.Sim.Runner.rounds,
    Stats.Histogram.bins s.Sim.Runner.rounds_hist,
    Stats.Welford.mean s.Sim.Runner.kills,
    (s.Sim.Runner.decided_zero, s.Sim.Runner.decided_one) )

(* One supervised run of the standard chaos workload: 40 SynRan trials in
   chunks of 8, with full event capture and its own checkpoint store. *)
let chaos_run ?(fault = []) ?(retries = 0) ~root ~tag ~jobs () =
  let capture = Obs.Capture.create ~events:true () in
  let checkpoint =
    Sim.Checkpoint.create ~root ~exp:tag ~seed:17 ~chunk_size:8 ~n:40
  in
  let r =
    Sim.Runner.run_trials_supervised ~max_rounds:500 ~jobs ~chunk_size:8
      ~capture
      ~guard:
        { Sim.Runner.unguarded with
          checkpoint = Some checkpoint; retries; fault }
      ~trials:40 ~seed:17
      ~gen_inputs:(Sim.Runner.input_gen_random ~n:8)
      ~t:2 (Core.Synran.protocol 8)
      (fun () -> Sim.Adversary.null)
  in
  (r, Obs.Capture.digest capture)

let with_root f =
  let dir = Filename.temp_dir "fault_test_" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The bench-smoke pinned plan: three faults over three distinct sites,
   one of them a torn checkpoint write (skipped on load and recomputed on
   the retry within the same run). *)
let pinned_plan = "body@1#2:raise,store@2#0:torn,sink@3#5:raise"

let assert_survivable_identity ~root ~plan ~seed_tag =
  let baseline =
    match chaos_run ~root ~tag:(seed_tag ^ "-base") ~jobs:1 () with
    | { Sim.Runner.failures = []; partial = Some s; _ }, digest -> (s, digest)
    | _ -> Alcotest.fail "fault-free baseline failed"
  in
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "%s-chaos-j%d" seed_tag jobs in
      let r, digest = chaos_run ~fault:plan ~retries:2 ~root ~tag ~jobs () in
      check_bool
        (Printf.sprintf "no terminal failures at jobs %d" jobs)
        true (r.Sim.Runner.failures = []);
      (match r.Sim.Runner.partial with
      | Some s ->
          check_bool
            (Printf.sprintf "summary byte-identical at jobs %d" jobs)
            true
            (summary_key s = summary_key (fst baseline))
      | None -> Alcotest.fail "chaos run lost its summary");
      check_string
        (Printf.sprintf "capture digest byte-identical at jobs %d" jobs)
        (snd baseline) digest)
    [ 1; 3 ]

let test_pinned_plan_byte_identical () =
  with_root @@ fun root ->
  assert_survivable_identity ~root ~plan:(plan_exn pinned_plan)
    ~seed_tag:"pinned";
  (* And the faults really fired: replay at jobs 1 and count the retried
     passes — the two chunk-attempt faults (body, store) each cost one
     retry, the sink fault a third. *)
  let r, _ =
    chaos_run ~fault:(plan_exn pinned_plan) ~retries:2 ~root ~tag:"recount"
      ~jobs:1 ()
  in
  check_int "three retried attempts" 3 (List.length r.Sim.Runner.retried);
  Alcotest.(check (list int))
    "retried chunks in order" [ 1; 2; 3 ]
    (List.map (fun f -> f.Sim.Runner.chunk) r.Sim.Runner.retried)

let prop_random_plans_byte_identical =
  QCheck.Test.make ~name:"random survivable plans are byte-invisible"
    ~count:6
    QCheck.(int_range 0 100_000)
    (fun fseed ->
      let plan = Sim.Fault.random_plan ~seed:fseed ~n:40 ~chunk_size:8 in
      with_root (fun root ->
          assert_survivable_identity ~root ~plan
            ~seed_tag:(Printf.sprintf "q%d" fseed);
          true))

let test_exhausted_budget_terminal () =
  with_root @@ fun root ->
  let r, _ =
    chaos_run ~fault:(plan_exn "body@1#*:raise") ~retries:1 ~root
      ~tag:"exhaust" ~jobs:1 ()
  in
  (match r.Sim.Runner.failures with
  | [ f ] ->
      check_int "terminal chunk" 1 f.Sim.Runner.chunk;
      check_int "terminal attempt is the budget" 1 f.Sim.Runner.attempt;
      check_bool "original exception preserved" true
        (match f.Sim.Runner.exn with
        | Sim.Fault.Injected { site = Sim.Fault.Chunk_body; scope = 1; _ } ->
            true
        | _ -> false)
  | fs ->
      Alcotest.failf "expected one terminal failure, got %d" (List.length fs));
  check_int "one retried pass before giving up" 1
    (List.length r.Sim.Runner.retried);
  check_bool "completed chunks still salvaged" true
    (r.Sim.Runner.partial <> None)

let test_merge_fault_is_terminal () =
  (* The merge runs once, sequentially, after the workers join — there is
     no chunk attempt to retry into, so an armed merge fault escapes the
     fold (and would land as the experiment's Failed record). *)
  with_root @@ fun root ->
  try
    ignore
      (chaos_run ~fault:(plan_exn "merge@run#0:raise") ~retries:3 ~root
         ~tag:"merge" ~jobs:1 ());
    Alcotest.fail "merge fault did not escape"
  with
  | Sim.Fault.Injected { site = Sim.Fault.Metrics_merge; _ } -> ()

let test_manifest_fault_fails_write () =
  with_root @@ fun root ->
  let path = Filename.concat root "m.json" in
  let fault =
    Sim.Fault.injector (plan_exn "manifest@run#0:sys_error")
  in
  (try
     Core.Supervise.write_manifest ~fault ~path ~profile:"quick" ~seed:1
       ~jobs:1 ~resume:false ~deadline_s:None [];
     Alcotest.fail "manifest fault did not raise"
   with Sys_error _ -> ());
  check_bool "no partial manifest left behind" false (Sys.file_exists path)

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "fault.plan",
      [
        tc "pinned plans round-trip" test_plan_roundtrip_pinned;
        tc "parse errors are structured" test_plan_parse_errors;
        to_alcotest prop_plan_roundtrip;
        tc "seeded plans are deterministic and survivable"
          test_random_plan_deterministic;
      ] );
    ( "fault.injector",
      [
        tc "nth-hit arms fire exactly once" test_injector_nth_hit;
        tc "every-hit and run-scope semantics"
          test_injector_every_hit_and_run_scope;
        tc "trip raises the armed kind" test_trip_raises;
      ] );
    ( "fault.chaos",
      [
        tc "pinned plan is byte-invisible at jobs 1 and 3"
          test_pinned_plan_byte_identical;
        to_alcotest prop_random_plans_byte_identical;
        tc "exhausted budget is a terminal failure"
          test_exhausted_budget_terminal;
        tc "merge fault escapes (no attempt to retry into)"
          test_merge_fault_is_terminal;
        tc "manifest fault fails the manifest write"
          test_manifest_fault_fails_write;
      ] );
  ]
