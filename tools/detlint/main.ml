(* detlint CLI.

   Usage: detlint [--json FILE] [--ledger FILE] PATH...

     --json FILE     write the findings report
     --ledger FILE   write the purity ledger

   Lints every [.ml] file under PATH... (skipping [_build], [.git] and the
   deliberately-bad [lint_fixtures] corpus) in one walk over the [.cmt]
   typed trees found under PATH (or under _build/default/PATH when PATH
   holds none, so it works from a source checkout): the local rules R1-R5
   and R10, the taint rules T1 and R7-R9, and the waiver audit (W0, W1).
   A source file with no loadable typed tree is itself a violation (P0).
   Prints human-readable findings and exits 1 iff any unwaived violation
   remains, 2 on a bad command line. *)

let write file json =
  Obs.Json.write ~path:file (Obs.Json.to_file json);
  Printf.printf "detlint: wrote %s\n" file

let () =
  match
    Detlint.parse_args ~exists:Sys.file_exists
      (List.tl (Array.to_list Sys.argv))
  with
  | Error msg ->
      prerr_endline ("detlint: " ^ msg);
      prerr_endline Detlint.usage;
      exit 2
  | Ok { Detlint.json; ledger; paths } ->
      let files, graph = Detlint_callgraph.load paths in
      let result = Detlint_taint.analyze graph in
      let findings = result.Detlint_taint.findings in
      List.iter (fun f -> print_endline (Detlint.render f)) findings;
      let count sev =
        List.length (List.filter (fun f -> f.Detlint.severity = sev) findings)
      in
      let violations = count Detlint.Violation in
      Printf.printf
        "detlint: %d file(s) checked, %d violation(s), %d waived finding(s)\n"
        (List.length files) violations (count Detlint.Waived);
      Printf.printf "detlint: taint pass classified %s\n"
        (Detlint_ledger.summary result);
      Option.iter (fun file -> write file (Detlint_ledger.to_json result)) ledger;
      Option.iter
        (fun file ->
          write file (Detlint.to_json ~files:(List.length files) findings))
        json;
      if violations > 0 then exit 1
