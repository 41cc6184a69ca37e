(* Tests for detlint itself (tools/detlint).  Every fixture in
   test/lint_fixtures/ (and typed/) is copied into a temp tree under the
   relative path its scoped rules should see, compiled there with
   [ocamlc -c -bin-annot] (the artifact shape dune produces), and run
   through the same load + analyze pass `dune build @lint` runs.  The
   fixtures are never built by dune and never reached by the tree-wide
   lint (detlint skips any directory named lint_fixtures). *)

let check_strings = Alcotest.(check (list string))

let violations fs =
  List.filter (fun f -> f.Detlint.severity = Detlint.Violation) fs

let waived fs = List.filter (fun f -> f.Detlint.severity = Detlint.Waived) fs

let rules fs =
  List.sort_uniq String.compare (List.map (fun f -> f.Detlint.rule) fs)

(* Findings per rule, e.g. [("R2", 1); ("T1", 1)]. *)
let counts fs =
  List.map
    (fun r -> (r, List.length (List.filter (fun f -> f.Detlint.rule = r) fs)))
    (rules fs)

let check_counts = Alcotest.(check (list (pair string int)))

let contains ~needle hay =
  let ln = String.length needle in
  let rec go i =
    i + ln <= String.length hay && (String.sub hay i ln = needle || go (i + 1))
  in
  go 0

(* --- compiling fixtures ------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* Stand-ins for the library modules some fixtures name (Sim.Parallel,
   Sim.Fault, Core.Fault), compiled once onto the include path; they are
   not part of any linted tree. *)
let stub_sim =
  "module Parallel = struct\n\
  \  let run_workers ~jobs:(_ : int) ~tasks ~cancel run =\n\
  \    for k = 0 to tasks - 1 do ignore (run k : bool) done;\n\
  \    cancel ()\n\
   end\n\
   module Fault = struct\n\
  \  type site = Chunk_body | Event_sink\n\
  \  type plan = (site * int) list\n\
  \  let plan_of_string (_ : string) : (plan, string) result = Ok []\n\
  \  let injector ~nchunks:(_ : int) (p : plan) = p\n\
  \  let trip (_ : plan option) (_ : site) ~scope:(_ : int) = ()\n\
  \  let fire (_ : plan option) (_ : site) ~scope:(_ : int) = ()\n\
   end\n"

let stubs =
  lazy
    (let dir = Filename.temp_dir "detlint_stubs_" "" in
     at_exit (fun () -> rm_rf dir);
     write_file (Filename.concat dir "sim.ml") stub_sim;
     write_file (Filename.concat dir "core.ml") "module Fault = Sim.Fault\n";
     let rc =
       Sys.command
         (Printf.sprintf "cd %s && ocamlc -c -w -a sim.ml core.ml"
            (Filename.quote dir))
     in
     Alcotest.(check int) "ocamlc compiles the stand-ins" 0 rc;
     dir)

(* Compile [relpath] inside [dir], relative to it, so the .cmt records
   the path the scoped rules match on. *)
let compile ~dir relpath =
  let rc =
    Sys.command
      (Printf.sprintf "cd %s && ocamlc -c -bin-annot -w -a -I +unix -I %s %s"
         (Filename.quote dir)
         (Filename.quote (Lazy.force stubs))
         (Filename.quote relpath))
  in
  Alcotest.(check int) ("ocamlc compiles " ^ relpath) 0 rc

(* A temp tree holding [src] at [relpath], compiled, for the length of [f]. *)
let with_tree ~relpath src f =
  let dir = Filename.temp_dir "detlint_tree_" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      write_file (Filename.concat dir relpath) src;
      compile ~dir relpath;
      f dir)

let analyze dir =
  let _, graph = Detlint_callgraph.load [ dir ] in
  Detlint_taint.analyze graph

let lint_source ~relpath src =
  (with_tree ~relpath src analyze).Detlint_taint.findings

(* One compiled run per (fixture, relpath), shared by every test. *)
let fixture_runs = Hashtbl.create 64

let lint_fixture ?relpath name =
  let relpath = Option.value relpath ~default:(Filename.basename name) in
  match Hashtbl.find_opt fixture_runs (name, relpath) with
  | Some r -> r
  | None ->
      let r =
        with_tree ~relpath (read_file ("lint_fixtures/" ^ name)) analyze
      in
      Hashtbl.replace fixture_runs (name, relpath) r;
      r

let lint ?relpath name = (lint_fixture ?relpath name).Detlint_taint.findings

(* The report and the ledger as detlint writes them. *)
let report ~files fs = Obs.Json.to_file (Detlint.to_json ~files fs)

let ledger dir = Obs.Json.to_file (Detlint_ledger.to_json (analyze dir))

(* --- the rule x fixture matrix ------------------------------------------ *)

(* (fixture, path it is linted under if not its basename, expected
   violations per rule, expected waived findings per rule). *)
let matrix =
  [
    ("bad_r1.ml", None, [ ("R1", 2) ], []);
    ("bad_r10.ml", None, [ ("R10", 2) ], []);
    ("bad_r2.ml", None, [ ("R2", 3) ], []);
    (* No timing quarantine: bench/ and lib/obs/ get no R2 exemption. *)
    ("bad_r2.ml", Some "bench/bad_r2.ml", [ ("R2", 3) ], []);
    ("bad_r2.ml", Some "lib/obs/bad_r2.ml", [ ("R2", 3) ], []);
    ("bad_r2_watchdog.ml", None, [ ("R2", 2) ], []);
    ("bad_r3.ml", None, [ ("R3", 2) ], []);
    (* Only the two uses inside the spawned closure, not the mutation on
       the spawning domain. *)
    ("bad_r4.ml", None, [ ("R4", 2) ], []);
    ("bad_r5.ml", Some "lib/stats/bad_r5.ml", [ ("R5", 2) ], []);
    ("bad_r5.ml", Some "lib/coinflip/bad_r5.ml", [ ("R5", 2) ], []);
    ("bad_r5.ml", None, [], []);
    ("bad_r5_tuple.ml", Some "lib/core/bad_r5_tuple.ml", [ ("R5", 3) ], []);
    ("bad_r5_tuple.ml", None, [], []);
    (* The justification-free waiver is W0 and leaves its R2 standing. *)
    ("bad_waiver.ml", None, [ ("R2", 1); ("W0", 1) ], []);
    ("good_clean.ml", None, [], []);
    ("good_r10.ml", None, [ ("R10", 1) ], []);
    ("good_r10.ml", Some "lib/sim/runner.ml", [], []);
    ("good_r10.ml", Some "lib/core/supervise.ml", [], []);
    ("good_r10.ml", Some "test/test_fault.ml", [], []);
    ("good_r1_prng.ml", Some "lib/prng/good_r1_prng.ml", [], []);
    ("good_r1_prng.ml", None, [ ("R1", 1) ], []);
    ("good_r2_deadline.ml", None, [], [ ("R2", 1) ]);
    ("good_r3_sorted.ml", None, [], []);
    ("good_r4_local.ml", None, [], []);
    ("good_r5_int.ml", Some "lib/core/good_r5_int.ml", [], []);
    ("good_waived.ml", None, [], [ ("R2", 2) ]);
    ("typed/bad_bitkernel_words.ml", None, [ ("R1", 1); ("T1", 1) ], []);
    ("typed/bad_r7_order.ml", None, [ ("R7", 1) ], []);
    ("typed/bad_r8_floatfold.ml", None, [ ("R8", 1) ], []);
    ("typed/bad_r9_escape.ml", None, [ ("R9", 1) ], []);
    ("typed/bad_r9_runner_fold.ml", None, [ ("R9", 1) ], []);
    ("typed/bad_register_transition.ml", None, [ ("R1", 1); ("T1", 1) ], []);
    ("typed/bad_taint_chain.ml", None, [ ("R2", 1); ("T1", 1) ], []);
    ("typed/bad_taint_domain.ml", None, [ ("T1", 1) ], []);
    ("typed/good_bitkernel_words.ml", None, [], []);
    ("typed/good_r7_sorted.ml", None, [], []);
    ("typed/good_r8_absorb.ml", None, [], []);
    ("typed/good_r9_local.ml", None, [], []);
    ("typed/good_taint_waived.ml", None, [], [ ("R2", 1) ]);
    ("typed/stale_waiver.ml", None, [ ("W1", 1) ], []);
  ]

let matrix_case (name, relpath, want_violations, want_waived) =
  let label = Option.value relpath ~default:name in
  Alcotest.test_case label `Quick (fun () ->
      let fs = lint ?relpath name in
      check_counts "violations per rule" want_violations (counts (violations fs));
      check_counts "waived per rule" want_waived (counts (waived fs)))

let test_every_fixture_in_matrix () =
  let listed = List.map (fun (name, _, _, _) -> name) matrix in
  let ml dir =
    Sys.readdir ("lint_fixtures/" ^ dir) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f -> if dir = "" then f else dir ^ "/" ^ f)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " has a matrix row") true (List.mem f listed))
    (ml "" @ ml "typed")

(* A rule stays only while some fixture is flagged by it alone. *)
let test_every_rule_earns_a_fixture () =
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " alone flags some fixture") true
        (List.exists
           (fun (name, relpath, _, _) ->
             rules (violations (lint ?relpath name)) = [ rule ])
           matrix))
    Detlint.rule_ids

(* --- waivers ----------------------------------------------------------- *)

let test_waiver_carries_justification () =
  let fs = waived (lint "good_waived.ml") in
  Alcotest.(check int) "both reads waived" 2 (List.length fs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "waived finding carries its justification" true
        (match f.Detlint.justification with Some j -> j <> "" | None -> false))
    fs

let test_retired_rule_waiver_rejected () =
  (* R6 is retired, not renumbered: a waiver naming it is malformed (W0)
     and leaves the clock read it sits on flagged, while the rules after it
     keep their ids. *)
  let src =
    "let wall () = (Unix.gettimeofday [@detlint.allow \"R6: legacy span\"]) ()\n"
  in
  let fs = lint_source ~relpath:"bench/span.ml" src in
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

let test_colonless_waiver_rejected () =
  (* "R2 why" is not "R2: why": W0, and it suppresses neither the local
     R2 nor the T1 the read raises inside a sink-rooted function. *)
  let src =
    "module Runner = struct\n\
    \  let run_trials n =\n\
    \    float_of_int n\n\
    \    *. (Sys.time [@detlint.allow \"R2 diagnostic timing only\"]) ()\n\
     end\n"
  in
  let fs = lint_source ~relpath:"colonless.ml" src in
  check_counts "W0 plus both unsuppressed findings"
    [ ("R2", 1); ("T1", 1); ("W0", 1) ]
    (counts (violations fs));
  check_strings "nothing waived" [] (rules (waived fs))

let test_file_level_waiver () =
  let src =
    "[@@@detlint.allow \"R2: whole-file timing shim used only by the bench\"]\n\
     let cpu () = Sys.time ()\n"
  in
  let fs = lint_source ~relpath:"bench/shim.ml" src in
  check_strings "no violations" [] (rules (violations fs));
  check_strings "R2 waived file-wide" [ "R2" ] (rules (waived fs))

(* --- engine details ---------------------------------------------------- *)

let test_r4_parallel_entry () =
  let src =
    "let hist = Hashtbl.create 16\n\
     let run () =\n\
    \  Sim.Parallel.run_workers ~jobs:2 ~tasks:100\n\
    \    ~cancel:(fun () -> false)\n\
    \    (fun i -> Hashtbl.replace hist i i; true)\n"
  in
  let fs = lint_source ~relpath:"lib/core/example.ml" src in
  check_strings "capture via Sim.Parallel entry point" [ "R4" ]
    (rules (violations fs))

let test_missing_typed_tree () =
  (* With no parser behind it, a source file without a readable .cmt would
     go unlinted: a missing one and a truncated one are both P0. *)
  with_tree ~relpath:"ok.ml" "let x = 1\n" (fun dir ->
      let path f = Filename.concat dir f in
      write_file (path "no_cmt.ml") "let y = 2\n";
      write_file (path "trunc.ml") "let z = 3\n";
      compile ~dir "trunc.ml";
      let cmt = read_file (path "trunc.cmt") in
      write_file (path "trunc.cmt") (String.sub cmt 0 (String.length cmt / 2));
      let files, graph = Detlint_callgraph.load [ dir ] in
      let fs = (Detlint_taint.analyze graph).Detlint_taint.findings in
      Alcotest.(check int) "every source counted" 3 (List.length files);
      check_strings "only P0" [ "P0" ] (rules (violations fs));
      check_strings "one P0 per source without a typed tree"
        [ "no_cmt.ml"; "trunc.ml" ]
        (List.map (fun f -> Filename.basename f.Detlint.file) fs))

let test_walker_skips_fixtures () =
  (* The corpus itself is invisible to a tree-wide lint: a walk rooted at
     the fixtures directory finds no files at all. *)
  let files, graph = Detlint_callgraph.load [ "lint_fixtures" ] in
  Alcotest.(check int) "no files walked" 0 (List.length files);
  Alcotest.(check int) "no findings" 0
    (List.length (Detlint_taint.analyze graph).Detlint_taint.findings)

let test_cli_rejects_unknown_options () =
  let parse = Detlint.parse_args ~exists:(fun _ -> true) in
  List.iter
    (fun argv ->
      Alcotest.(check bool)
        (String.concat " " argv ^ " is rejected")
        true
        (Result.is_error (parse argv)))
    [
      [ "--syntactic-only"; "--bogus"; "lib" ]; [ "--taint"; "lib" ];
      [ "-x"; "lib" ]; [ "lib"; "--json" ]; [];
    ];
  match parse [ "--json"; "a.json"; "lib"; "--ledger"; "b.json"; "bin" ] with
  | Ok { Detlint.json; ledger; paths } ->
      Alcotest.(check (option string)) "json" (Some "a.json") json;
      Alcotest.(check (option string)) "ledger" (Some "b.json") ledger;
      check_strings "paths in order" [ "lib"; "bin" ] paths
  | Error e -> Alcotest.failf "valid command line rejected: %s" e

let test_cli_rejects_missing_paths () =
  let parse = Detlint.parse_args ~exists:Sys.file_exists in
  Alcotest.(check bool) "nonexistent PATH rejected" true
    (Result.is_error (parse [ "no_such_dir" ]));
  Alcotest.(check bool) "one bad PATH among good ones rejected" true
    (Result.is_error (parse [ "lint_fixtures"; "no_such_dir" ]));
  Alcotest.(check bool) "existing PATH accepted" true
    (Result.is_ok (parse [ "lint_fixtures" ]))

let test_json_report_shape () =
  let fs = lint "bad_r1.ml" @ lint "good_waived.ml" in
  let json = report ~files:2 fs in
  Alcotest.(check bool) "summary present" true
    (contains ~needle:"\"violations\": 2,\n    \"waived\": 2" json);
  Alcotest.(check bool) "rule table present" true (contains ~needle:"\"R4\"" json);
  Alcotest.(check bool) "justification serialized" true
    (contains ~needle:"justification" json)

let test_json_order_independent () =
  let a = lint "bad_r1.ml" and b = lint "bad_r2.ml" in
  Alcotest.(check string)
    "findings sorted before emission"
    (report ~files:2 (a @ b))
    (report ~files:2 (b @ a))

let test_json_golden () =
  let fs =
    lint "bad_r1.ml"
    @ lint ~relpath:"lib/stats/bad_r5.ml" "bad_r5.ml"
    @ lint "good_waived.ml"
  in
  let json = report ~files:3 fs in
  let golden_path = "lint_fixtures/golden_detlint.json" in
  let golden = read_file golden_path in
  if json <> golden then begin
    let dump = Filename.temp_file "detlint_golden_actual_" ".json" in
    write_file dump json;
    Alcotest.failf
      "JSON report drifted from the golden fixture %s (actual written to \
       %s); if the schema change is intentional, bump json_schema_version \
       and refresh the fixture"
      golden_path dump
  end

(* --- typed-tree taint rules -------------------------------------------- *)

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

(* The one finding of [rule] in [r], which must exist. *)
let only rule (r : Detlint_taint.result) =
  match List.filter (fun f -> f.Detlint.rule = rule) r.Detlint_taint.findings with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected exactly one %s, got %d" rule (List.length fs)

let test_taint_chain_fires () =
  let r = lint_fixture "typed/bad_taint_chain.ml" in
  let f = only "T1" r in
  Alcotest.(check bool)
    "chain starts at the sink root" true
    (contains ~needle:"Runner.run_trials -> " f.Detlint.message);
  Alcotest.(check bool)
    "chain names the intermediate function" true
    (contains ~needle:"Runner.mid" f.Detlint.message);
  Alcotest.(check bool)
    "chain ends at the sourced leaf" true
    (contains ~needle:"Runner.leaf" f.Detlint.message);
  (* The ledger classifies the whole chain nondet: taint propagated
     callee -> caller across both edges. *)
  List.iter
    (fun fn -> Alcotest.(check string) fn "nondet" (entry_class r fn))
    [ "Runner.leaf"; "Runner.mid"; "Runner.run_trials" ]

let test_taint_waiver_quarantines () =
  (* The waiver earns its keep (no W1) and stops the taint. *)
  let r = lint_fixture "typed/good_taint_waived.ml" in
  Alcotest.(check string)
    "waived leaf is quarantined" "quarantined" (entry_class r "Runner.leaf");
  Alcotest.(check string)
    "taint stops at the quarantine" "det" (entry_class r "Runner.run_trials")

let test_r7_names_cohort_op () =
  let f = only "R7" (lint_fixture "typed/bad_r7_order.ml") in
  Alcotest.(check bool)
    "finding names the cohort op" true
    (contains ~needle:"c_phase_a" f.Detlint.message)

let test_r9_names_variable () =
  let f = only "R9" (lint_fixture "typed/bad_r9_escape.ml") in
  Alcotest.(check bool)
    "finding names the escaping variable" true
    (contains ~needle:"\"total\"" f.Detlint.message);
  let g = only "R9" (lint_fixture "typed/bad_r9_runner_fold.ml") in
  Alcotest.(check bool)
    "Runner.fold is a supervised entry" true
    (contains ~needle:"\"seen\" captured by a closure passed to Runner.fold"
       g.Detlint.message)

let test_bitkernel_roots () =
  (* The bit-packed kernel's word ops sit inside the protected sink
     region: an entropy source in [Bitwords] must taint the whole
     [Bitkernel.step] chain, and the pure SWAR twin must stay clean. *)
  let bad = lint_fixture "typed/bad_bitkernel_words.ml" in
  Alcotest.(check bool)
    "finding names the word primitive" true
    (contains ~needle:"Bitwords.popcount" (only "T1" bad).Detlint.message);
  List.iter
    (fun fn -> Alcotest.(check string) fn "nondet" (entry_class bad fn))
    [ "Bitwords.popcount"; "Bitkernel.tallies"; "Bitkernel.step" ];
  let good = lint_fixture "typed/good_bitkernel_words.ml" in
  List.iter
    (fun fn -> Alcotest.(check string) fn "det" (entry_class good fn))
    [ "Bitwords.popcount"; "Bitkernel.step" ]

let test_register_transition_rooted () =
  (* A register protocol's round lives in its transition, which engines
     reach only through records: the name alone must root it. *)
  let bad = lint_fixture "typed/bad_register_transition.ml" in
  Alcotest.(check bool)
    "finding names the transition" true
    (contains ~needle:"transition" (only "T1" bad).Detlint.message);
  Alcotest.(check string) "transition" "nondet" (entry_class bad "transition")

let test_stale_waiver_detected () =
  let f = only "W1" (lint_fixture "typed/stale_waiver.ml") in
  Alcotest.(check bool) "names the stale rule" true
    (contains ~needle:"\"R2: ...\"" f.Detlint.message);
  Alcotest.(check int) "at the attribute" 4 f.Detlint.line

let test_ledger_byte_stable () =
  (* Two independent loads+analyses of the same compiled tree must
     serialize to the same bytes — the contract `@bench-smoke` diffs on. *)
  let j1, j2 =
    with_tree ~relpath:"bad_taint_chain.ml"
      (read_file "lint_fixtures/typed/bad_taint_chain.ml") (fun dir ->
        ( ledger dir,
          ledger dir ))
  in
  Alcotest.(check string) "byte-identical ledgers" j1 j2;
  Alcotest.(check bool)
    "ledger carries its schema version" true
    (contains ~needle:"\"schema_version\": 3" j1)

(* The ledger of [bad_taint_chain.ml] as edited by [edit]. *)
let chain_ledger edit =
  let src = read_file "lint_fixtures/typed/bad_taint_chain.ml" in
  with_tree ~relpath:"bad_taint_chain.ml" (edit src) (fun dir ->
      ledger dir)

let test_ledger_ignores_det_edits () =
  (* Moving every line and adding a det function changes no class, so
     the committed ledger must not need re-promoting. *)
  Alcotest.(check string)
    "moved code and a new pure helper leave the ledger as is"
    (chain_ledger Fun.id)
    (chain_ledger (fun src ->
         "\n\n\n" ^ src ^ "\nlet pure_helper x = x + 1\n"))

let test_ledger_names_new_nondet () =
  let base = chain_ledger Fun.id in
  let edited =
    chain_ledger (fun src ->
        src ^ "\nlet alloc_helper () = Gc.minor_words ()\n")
  in
  Alcotest.(check bool) "the ledger changes" true (base <> edited);
  Alcotest.(check bool)
    "the new entry names the helper and its source" true
    (contains
       ~needle:
         "\"Bad_taint_chain.alloc_helper\": \
          {\"chain\":[\"Bad_taint_chain.alloc_helper\"],\"class\":\"nondet\""
       edited
    && contains ~needle:"\"path\":\"Gc.minor_words\"" edited)

let suites =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    ("detlint.fixtures", List.map matrix_case matrix);
    ( "detlint.rules",
      [
        tc "every fixture has a matrix row" test_every_fixture_in_matrix;
        tc "every rule alone flags a fixture" test_every_rule_earns_a_fixture;
      ] );
    ( "detlint.waivers",
      [
        tc "waived findings carry their justification"
          test_waiver_carries_justification;
        tc "retired R6 waiver is malformed" test_retired_rule_waiver_rejected;
        tc "colon-less waiver is malformed" test_colonless_waiver_rejected;
        tc "file-level waiver" test_file_level_waiver;
      ] );
    ( "detlint.engine",
      [
        tc "Sim.Parallel counts as a parallel entry" test_r4_parallel_entry;
        tc "sources without a typed tree are P0" test_missing_typed_tree;
        tc "walker skips lint_fixtures" test_walker_skips_fixtures;
        tc "CLI rejects unknown options" test_cli_rejects_unknown_options;
        tc "CLI rejects missing paths" test_cli_rejects_missing_paths;
        tc "json report shape" test_json_report_shape;
        tc "json report is walk-order independent" test_json_order_independent;
        tc "json report matches the golden schema fixture" test_json_golden;
      ] );
    ( "detlint.taint",
      [
        tc "T1 chain spans two call edges" test_taint_chain_fires;
        tc "expression waiver quarantines the leaf"
          test_taint_waiver_quarantines;
        tc "R7 names the cohort op" test_r7_names_cohort_op;
        tc "R9 names the escaping variable" test_r9_names_variable;
        tc "bitkernel word ops are sink-rooted" test_bitkernel_roots;
        tc "register transitions are sink-rooted" test_register_transition_rooted;
        tc "stale waivers are detected" test_stale_waiver_detected;
        tc "purity ledger is byte-stable" test_ledger_byte_stable;
        tc "ledger ignores moved and added det code"
          test_ledger_ignores_det_edits;
        tc "ledger names a new nondet helper" test_ledger_names_new_nondet;
      ] );
  ]
