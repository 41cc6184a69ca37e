(* Tests for detlint itself (tools/detlint): every rule R1-R5 and R10
   must fire on its known-bad fixture in test/lint_fixtures/, stay silent
   on the known-good ones, and the waiver machinery must suppress exactly the
   justified findings.  The fixtures are plain .ml files that are never
   compiled and never scanned by the build-wide `dune build @lint` pass
   (detlint skips any directory named lint_fixtures). *)

let check_strings = Alcotest.(check (list string))

let lint ?relpath file = Detlint.lint_file ?relpath ("lint_fixtures/" ^ file)

let violations fs =
  List.filter (fun f -> f.Detlint.severity = Detlint.Violation) fs

let waived fs = List.filter (fun f -> f.Detlint.severity = Detlint.Waived) fs

let rules fs =
  List.sort_uniq String.compare (List.map (fun f -> f.Detlint.rule) fs)

(* --- each rule fires on its bad fixture ------------------------------- *)

let test_r1_fires () =
  let fs = lint "bad_r1.ml" in
  check_strings "R1 and only R1" [ "R1" ] (rules (violations fs));
  Alcotest.(check int) "both Random calls flagged" 2 (List.length fs)

let test_r2_fires () =
  let fs = lint "bad_r2.ml" in
  check_strings "R2 and only R2" [ "R2" ] (rules (violations fs));
  Alcotest.(check int) "gettimeofday, Sys.time, Unix.time" 3 (List.length fs)

let test_r3_fires () =
  let fs = lint "bad_r3.ml" in
  check_strings "R3 and only R3" [ "R3" ] (rules (violations fs));
  Alcotest.(check int) "unsorted fold and iter" 2 (List.length fs)

let test_r4_fires () =
  let fs = lint "bad_r4.ml" in
  check_strings "R4 and only R4" [ "R4" ] (rules (violations fs));
  (* Only uses inside the spawned closure count (two references to [total]
     in [total := !total + 1]), not the mutation on the spawning domain. *)
  Alcotest.(check int) "exactly the captured uses" 2 (List.length fs)

let test_r5_fires () =
  (* R5 is scoped to lib/stats and lib/sim, so lint the fixture as if it
     lived there. *)
  let fs = lint ~relpath:"lib/stats/bad_r5.ml" "bad_r5.ml" in
  check_strings "R5 and only R5" [ "R5" ] (rules (violations fs));
  Alcotest.(check int) "bare compare and float (=)" 2 (List.length fs)

let test_r5_tuple_fires () =
  (* The tuple-literal comparison check, in the extended lib/core scope. *)
  let fs = lint ~relpath:"lib/core/bad_r5_tuple.ml" "bad_r5_tuple.ml" in
  check_strings "R5 and only R5" [ "R5" ] (rules (violations fs));
  Alcotest.(check int) "each tuple comparison flagged" 3 (List.length fs)

let test_r5_extended_scope () =
  (* lib/coinflip joined the R5 scope alongside lib/stats/lib/sim/lib/core. *)
  check_strings "fires under lib/coinflip" [ "R5" ]
    (rules (violations (lint ~relpath:"lib/coinflip/bad_r5.ml" "bad_r5.ml")))

let test_r5_scoped () =
  (* The same files outside the four scoped libraries are not R5's
     business. *)
  let fs = lint "bad_r5.ml" in
  check_strings "clean outside scope" [] (rules fs);
  check_strings "tuple fixture clean outside scope" []
    (rules (lint "bad_r5_tuple.ml"))

let test_r2_no_timing_quarantine () =
  (* With R6 retired there is no timing quarantine: a raw clock read under
     bench/ or lib/obs/ is an R2 violation like anywhere else. *)
  List.iter
    (fun dir ->
      let fs = lint ~relpath:(dir ^ "/bad_r2.ml") "bad_r2.ml" in
      check_strings ("R2 and only R2 under " ^ dir) [ "R2" ]
        (rules (violations fs));
      Alcotest.(check int) ("all three reads under " ^ dir) 3
        (List.length fs))
    [ "bench"; "lib/obs" ]

let test_r10_fires () =
  let fs = lint "bad_r10.ml" in
  check_strings "R10 and only R10" [ "R10" ] (rules (violations fs));
  (* The plan_of_string / injector calls in the fixture are legal
     everywhere: only the trip and fire triggers count. *)
  Alcotest.(check int) "trip and fire flagged, construction clean" 2
    (List.length fs)

let test_r10_scoped () =
  (* The identical trigger is the fault engine's own business inside the
     supervised runner stack, and test/ is exempt so unit tests can
     exercise sites directly. *)
  check_strings "clean inside the runner stack" []
    (rules (lint ~relpath:"lib/sim/runner.ml" "good_r10.ml"));
  check_strings "clean inside the supervised fold" []
    (rules (lint ~relpath:"lib/core/supervise.ml" "good_r10.ml"));
  check_strings "exempt under test/" []
    (rules (lint ~relpath:"test/test_fault.ml" "good_r10.ml"));
  check_strings "the same trigger elsewhere is R10" [ "R10" ]
    (rules (violations (lint "good_r10.ml")))

let test_good_r5_int () =
  (* Monomorphic spellings are clean even inside the scope. *)
  check_strings "Int.compare chains are clean" []
    (rules (lint ~relpath:"lib/core/good_r5_int.ml" "good_r5_int.ml"))

(* --- known-good fixtures stay clean ----------------------------------- *)

let test_good_clean () =
  check_strings "pure code is clean" [] (rules (lint "good_clean.ml"))

let test_good_r1_prng_scoped () =
  check_strings "Random is legal inside lib/prng" []
    (rules (lint ~relpath:"lib/prng/good_r1_prng.ml" "good_r1_prng.ml"));
  check_strings "the same call elsewhere is R1" [ "R1" ]
    (rules (lint "good_r1_prng.ml"))

let test_good_r3_sorted () =
  check_strings "folds flowing into sorts are clean" []
    (rules (lint "good_r3_sorted.ml"))

let test_good_r4_local () =
  check_strings "call-local state across spawn is clean" []
    (rules (lint "good_r4_local.ml"))

(* --- waivers ----------------------------------------------------------- *)

let test_waiver_suppresses () =
  let fs = lint "good_waived.ml" in
  check_strings "no violations" [] (rules (violations fs));
  check_strings "findings reported as waived" [ "R2" ] (rules (waived fs));
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "waived finding carries its justification" true
        (match f.Detlint.justification with Some j -> j <> "" | None -> false))
    (waived fs)

let test_malformed_waiver_rejected () =
  let fs = lint "bad_waiver.ml" in
  (* The justification-free waiver is flagged (W0) and does not suppress
     the underlying R2. *)
  check_strings "W0 plus the unsuppressed R2" [ "R2"; "W0" ]
    (rules (violations fs));
  check_strings "nothing waived" [] (rules (waived fs))

let test_r2_watchdog_needs_waiver () =
  (* A watchdog deadline is still wall-clock: without a justification every
     read is a violation. *)
  let fs = lint "bad_r2_watchdog.ml" in
  check_strings "R2 and only R2" [ "R2" ] (rules (violations fs));
  Alcotest.(check int) "both gettimeofday reads flagged" 2
    (List.length (violations fs))

let test_r2_deadline_waived () =
  (* The supervised-runner pattern: the same timer under a justified waiver
     is reported as waived, never as a violation. *)
  let fs = lint "good_r2_deadline.ml" in
  check_strings "no violations" [] (rules (violations fs));
  check_strings "timer reported as waived" [ "R2" ] (rules (waived fs))

let test_retired_rule_waiver_rejected () =
  (* R6 is retired, not renumbered: a waiver naming it is malformed (W0)
     and leaves the clock read it sits on flagged, while the rules after it
     keep their ids. *)
  let src =
    "let wall () = (Unix.gettimeofday [@detlint.allow \"R6: legacy span\"]) ()\n"
  in
  let fs = Detlint.lint_source ~relpath:"bench/span.ml" src in
  check_strings "W0 plus the unsuppressed R2" [ "R2"; "W0" ]
    (rules (violations fs));
  check_strings "nothing waived" [] (rules (waived fs));
  Alcotest.(check bool) "R6 is not a finding id" false
    (List.mem "R6" Detlint.all_rule_ids);
  Alcotest.(check string) "R6 has no documentation" "unknown rule"
    (Detlint.rule_doc "R6");
  check_strings "R7-R10 keep their ids" [ "R7"; "R8"; "R9"; "R10" ]
    (List.filter
       (fun r -> List.mem r [ "R6"; "R7"; "R8"; "R9"; "R10" ])
       Detlint.rule_ids)

let test_file_level_waiver () =
  let src =
    "[@@@detlint.allow \"R2: whole-file timing shim used only by the bench\"]\n\
     let cpu () = Sys.time ()\n"
  in
  let fs = Detlint.lint_source ~relpath:"bench/shim.ml" src in
  check_strings "no violations" [] (rules (violations fs));
  check_strings "R2 waived file-wide" [ "R2" ] (rules (waived fs))

(* --- engine details ---------------------------------------------------- *)

let test_r4_parallel_entry () =
  let src =
    "let hist = Hashtbl.create 16\n\
     let run () =\n\
    \  Sim.Parallel.fold_chunks ~n:100\n\
    \    ~create:(fun () -> ())\n\
    \    ~work:(fun i () -> Hashtbl.replace hist i i)\n\
    \    ~merge:(fun () () -> ()) ()\n"
  in
  let fs = Detlint.lint_source ~relpath:"lib/core/example.ml" src in
  check_strings "capture via Sim.Parallel entry point" [ "R4" ]
    (rules (violations fs))

let test_parse_error_reported () =
  let fs = Detlint.lint_source ~relpath:"broken.ml" "let let let" in
  check_strings "parse failure is a violation" [ "P0" ] (rules (violations fs))

let test_walker_skips_fixtures () =
  (* The corpus itself is invisible to a tree-wide lint: a walk rooted at
     the fixtures directory finds no files at all. *)
  let files, findings = Detlint.lint_paths [ "lint_fixtures" ] in
  Alcotest.(check int) "no files walked" 0 (List.length files);
  Alcotest.(check int) "no findings" 0 (List.length findings)

let test_json_report_shape () =
  let fs = lint "bad_r1.ml" @ lint "good_waived.ml" in
  let json = Detlint.to_json ~files:2 fs in
  let mem needle =
    let lw = String.length needle in
    let rec go i =
      i + lw <= String.length json
      && (String.sub json i lw = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "summary present" true
    (mem "\"violations\": 2, \"waived\": 2");
  Alcotest.(check bool) "rule table present" true (mem "\"R4\"");
  Alcotest.(check bool) "justification serialized" true (mem "justification")

(* --- typed-tree taint pass --------------------------------------------- *)

(* The typed fixtures are compiled on the fly with [ocamlc -c -bin-annot]
   in a temp dir (exactly the artifact shape dune produces), then fed to
   the same callgraph/taint pipeline `detlint --taint` runs. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~needle hay =
  let ln = String.length needle in
  let rec go i =
    i + ln <= String.length hay && (String.sub hay i ln = needle || go (i + 1))
  in
  go 0

let analyze_typed_fixture name =
  let dir = Filename.temp_dir "detlint_typed_" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let src = Filename.concat "lint_fixtures/typed" (name ^ ".ml") in
      let dst = Filename.concat dir (name ^ ".ml") in
      copy_file src dst;
      let rc =
        Sys.command
          (Printf.sprintf "ocamlc -c -bin-annot -w -a %s" (Filename.quote dst))
      in
      Alcotest.(check int) ("ocamlc compiles " ^ name) 0 rc;
      let cmt = Filename.concat dir (name ^ ".cmt") in
      let _, graph = Detlint_callgraph.load_paths [ cmt ] in
      let result = Detlint_taint.analyze graph in
      (graph, result))

let taint_rules (r : Detlint_taint.result) =
  rules r.Detlint_taint.findings

let entry_class (r : Detlint_taint.result) fn_suffix =
  match
    List.find_opt
      (fun (e : Detlint_taint.entry) ->
        Detlint_callgraph.suffix_matches ~suffix:fn_suffix
          e.Detlint_taint.e_fn)
      r.Detlint_taint.entries
  with
  | Some e -> (
      match e.Detlint_taint.e_class with
      | Detlint_taint.Det -> "det"
      | Detlint_taint.Nondet _ -> "nondet"
      | Detlint_taint.Quarantined _ -> "quarantined")
  | None -> Alcotest.failf "no ledger entry matching %s" fn_suffix

let test_taint_chain_fires () =
  let _, r = analyze_typed_fixture "bad_taint_chain" in
  check_strings "T1 and only T1" [ "T1" ] (taint_rules r);
  (match r.Detlint_taint.findings with
  | [ f ] ->
      Alcotest.(check bool)
        "chain starts at the sink root" true
        (contains ~needle:"Runner.run_trials -> " f.Detlint.message);
      Alcotest.(check bool)
        "chain names the intermediate function" true
        (contains ~needle:"Runner.mid" f.Detlint.message);
      Alcotest.(check bool)
        "chain ends at the sourced leaf" true
        (contains ~needle:"Runner.leaf" f.Detlint.message)
  | fs -> Alcotest.failf "expected exactly one T1, got %d" (List.length fs));
  (* The ledger classifies the whole chain nondet: taint propagated
     callee -> caller across both edges. *)
  List.iter
    (fun fn -> Alcotest.(check string) fn "nondet" (entry_class r fn))
    [ "Runner.leaf"; "Runner.mid"; "Runner.run_trials" ]

let test_taint_waiver_quarantines () =
  let g, r = analyze_typed_fixture "good_taint_waived" in
  check_strings "no findings" [] (taint_rules r);
  Alcotest.(check string)
    "waived leaf is quarantined" "quarantined" (entry_class r "Runner.leaf");
  Alcotest.(check string)
    "taint stops at the quarantine" "det" (entry_class r "Runner.run_trials");
  match Detlint_taint.waiver_sites g r with
  | [ (_, used) ] -> Alcotest.(check bool) "waiver counted as used" true used
  | ws -> Alcotest.failf "expected one waiver site, got %d" (List.length ws)

let test_r7_fires_and_clean () =
  let _, bad = analyze_typed_fixture "bad_r7_order" in
  check_strings "R7 on descending member loop" [ "R7" ] (taint_rules bad);
  (match bad.Detlint_taint.findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the cohort op" true
        (contains ~needle:"c_phase_a" f.Detlint.message)
  | fs -> Alcotest.failf "expected exactly one R7, got %d" (List.length fs));
  let _, good = analyze_typed_fixture "good_r7_sorted" in
  check_strings "ascending iteration is clean" [] (taint_rules good)

let test_r8_fires_and_clean () =
  let _, bad = analyze_typed_fixture "bad_r8_floatfold" in
  check_strings "R8 on float fold in a merge" [ "R8" ] (taint_rules bad);
  let _, good = analyze_typed_fixture "good_r8_absorb" in
  check_strings "absorb algebra is clean" [] (taint_rules good)

let test_r9_fires_and_clean () =
  let _, bad = analyze_typed_fixture "bad_r9_escape" in
  check_strings "R9 on escaping ref" [ "R9" ] (taint_rules bad);
  (match bad.Detlint_taint.findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the escaping variable" true
        (contains ~needle:"\"total\"" f.Detlint.message)
  | fs -> Alcotest.failf "expected exactly one R9, got %d" (List.length fs));
  let _, good = analyze_typed_fixture "good_r9_local" in
  check_strings "chunk-local ref is clean" [] (taint_rules good)

let test_bitkernel_roots () =
  (* The bit-packed kernel's word ops sit inside the protected sink
     region: an entropy source in [Bitwords] must taint the whole
     [Bitkernel.step] chain, and the pure SWAR twin must stay clean. *)
  let _, bad = analyze_typed_fixture "bad_bitkernel_words" in
  check_strings "T1 on entropy in a word op" [ "T1" ] (taint_rules bad);
  (match bad.Detlint_taint.findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the word primitive" true
        (contains ~needle:"Bitwords.popcount" f.Detlint.message)
  | fs -> Alcotest.failf "expected exactly one T1, got %d" (List.length fs));
  List.iter
    (fun fn -> Alcotest.(check string) fn "nondet" (entry_class bad fn))
    [ "Bitwords.popcount"; "Bitkernel.tallies"; "Bitkernel.step" ];
  let _, good = analyze_typed_fixture "good_bitkernel_words" in
  check_strings "deterministic word ops are clean" [] (taint_rules good);
  List.iter
    (fun fn -> Alcotest.(check string) fn "det" (entry_class good fn))
    [ "Bitwords.popcount"; "Bitkernel.step" ]

let test_register_transition_rooted () =
  (* A register protocol's round lives in its transition, which engines
     reach only through records: the name alone must root it. *)
  let _, bad = analyze_typed_fixture "bad_register_transition" in
  check_strings "T1 on Random in a transition" [ "T1" ] (taint_rules bad);
  (match bad.Detlint_taint.findings with
  | [ f ] ->
      Alcotest.(check bool)
        "finding names the transition" true
        (contains ~needle:"transition" f.Detlint.message)
  | fs -> Alcotest.failf "expected exactly one T1, got %d" (List.length fs));
  Alcotest.(check string) "transition" "nondet" (entry_class bad "transition")

let test_stale_waiver_detected () =
  let g, r = analyze_typed_fixture "stale_waiver" in
  check_strings "no rule findings" [] (taint_rules r);
  match Detlint_taint.waiver_sites g r with
  | [ (w, used) ] ->
      Alcotest.(check bool) "waiver is stale" false used;
      Alcotest.(check string) "stale waiver rule" "R2"
        w.Detlint_callgraph.w_rule
  | ws -> Alcotest.failf "expected one waiver site, got %d" (List.length ws)

let test_ledger_byte_stable () =
  (* Two independent loads+analyses of the same compiled tree must
     serialize to the same bytes — the contract `@bench-smoke` diffs on. *)
  let dir = Filename.temp_dir "detlint_typed_" "" in
  let r1, r2 =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let dst = Filename.concat dir "bad_taint_chain.ml" in
        copy_file "lint_fixtures/typed/bad_taint_chain.ml" dst;
        let rc =
          Sys.command
            (Printf.sprintf "ocamlc -c -bin-annot -w -a %s"
               (Filename.quote dst))
        in
        Alcotest.(check int) "ocamlc compiles bad_taint_chain" 0 rc;
        let analyze () =
          let _, graph = Detlint_callgraph.load_paths [ dir ] in
          Detlint_taint.analyze graph
        in
        (analyze (), analyze ()))
  in
  let j1 = Detlint_ledger.to_json r1 and j2 = Detlint_ledger.to_json r2 in
  Alcotest.(check string) "byte-identical ledgers" j1 j2;
  Alcotest.(check bool)
    "ledger carries its schema version" true
    (contains ~needle:"\"schema_version\": 2" j1)

(* --- JSON report stability and golden schema --------------------------- *)

let test_json_order_independent () =
  let a = lint "bad_r1.ml" and b = lint "bad_r2.ml" in
  Alcotest.(check string)
    "findings sorted before emission"
    (Detlint.to_json ~files:2 (a @ b))
    (Detlint.to_json ~files:2 (b @ a))

let test_json_golden () =
  let fs =
    lint "bad_r1.ml"
    @ lint ~relpath:"lib/stats/bad_r5.ml" "bad_r5.ml"
    @ lint "good_waived.ml"
  in
  let json = Detlint.to_json ~files:3 fs in
  let golden_path = "lint_fixtures/golden_detlint.json" in
  let golden = read_file golden_path in
  if json <> golden then begin
    let dump = Filename.temp_file "detlint_golden_actual_" ".json" in
    let oc = open_out dump in
    output_string oc json;
    close_out oc;
    Alcotest.failf
      "JSON report drifted from the golden fixture %s (actual written to \
       %s); if the schema change is intentional, bump json_schema_version \
       and refresh the fixture"
      golden_path dump
  end

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ( "detlint.rules",
      [
        tc "R1 fires on global Random" test_r1_fires;
        tc "R2 fires on wall-clock sources" test_r2_fires;
        tc "R3 fires on unsorted Hashtbl fold/iter" test_r3_fires;
        tc "R4 fires on captured module state" test_r4_fires;
        tc "R5 fires on polymorphic compare/=" test_r5_fires;
        tc "R5 fires on tuple-literal comparisons" test_r5_tuple_fires;
        tc "R5 covers lib/coinflip" test_r5_extended_scope;
        tc "R5 is scoped to the four hot-path libraries" test_r5_scoped;
        tc "R2 has no bench or lib/obs exemption" test_r2_no_timing_quarantine;
        tc "R10 fires on ad-hoc fault triggers" test_r10_fires;
        tc "R10 exempts the runner stack and test/" test_r10_scoped;
      ] );
    ( "detlint.clean",
      [
        tc "pure code" test_good_clean;
        tc "Random inside lib/prng" test_good_r1_prng_scoped;
        tc "sorted folds" test_good_r3_sorted;
        tc "monomorphic comparisons in scope" test_good_r5_int;
        tc "call-local spawn state" test_good_r4_local;
      ] );
    ( "detlint.waivers",
      [
        tc "justified waiver suppresses" test_waiver_suppresses;
        tc "missing justification rejected" test_malformed_waiver_rejected;
        tc "retired R6 waiver is malformed" test_retired_rule_waiver_rejected;
        tc "file-level waiver" test_file_level_waiver;
        tc "bare watchdog timer violates R2" test_r2_watchdog_needs_waiver;
        tc "justified watchdog deadline is waived" test_r2_deadline_waived;
      ] );
    ( "detlint.engine",
      [
        tc "Sim.Parallel counts as a parallel entry" test_r4_parallel_entry;
        tc "parse errors are violations" test_parse_error_reported;
        tc "walker skips lint_fixtures" test_walker_skips_fixtures;
        tc "json report shape" test_json_report_shape;
        tc "json report is walk-order independent" test_json_order_independent;
        tc "json report matches the golden schema fixture" test_json_golden;
      ] );
    ( "detlint.taint",
      [
        tc "T1 chain spans two call edges" test_taint_chain_fires;
        tc "expression waiver quarantines the leaf"
          test_taint_waiver_quarantines;
        tc "R7 descending member order" test_r7_fires_and_clean;
        tc "R8 float fold vs absorb algebra" test_r8_fires_and_clean;
        tc "bitkernel word ops are sink-rooted" test_bitkernel_roots;
        tc "register transitions are sink-rooted" test_register_transition_rooted;
        tc "R9 escaping ref vs chunk-local state" test_r9_fires_and_clean;
        tc "stale waivers are detected" test_stale_waiver_detected;
        tc "purity ledger is byte-stable" test_ledger_byte_stable;
      ] );
  ]
