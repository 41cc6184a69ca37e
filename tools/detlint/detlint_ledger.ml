(* The purity ledger: byte-stable JSON serialization of the taint pass's
   per-function classification ([results/detlint_taint.json]).

   Stability contract: entries arrive name-sorted from the taint pass,
   chains are shortest BFS paths over sorted adjacency, and this module
   adds no map iteration of its own — so two runs over the same tree
   produce byte-identical ledgers, and `dune build @bench-smoke` can gate
   on a plain diff against the committed file. *)

module G = Detlint_callgraph
module T = Detlint_taint

let schema_version = 2

let class_name = function
  | T.Det -> "det"
  | T.Nondet _ -> "nondet"
  | T.Quarantined _ -> "quarantined"

let entry_json (e : T.entry) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "    { \"fn\": \"%s\", \"file\": \"%s\", \"line\": %d, \"class\": \
        \"%s\""
       (Detlint.json_escape e.T.e_fn) (Detlint.json_escape e.T.e_file) e.T.e_line
       (class_name e.T.e_class));
  (match e.T.e_class with
  | T.Det -> ()
  | T.Nondet { source; chain } ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n      \"source\": { \"kind\": \"%s\", \"path\": \"%s\", \
            \"file\": \"%s\", \"line\": %d, \"col\": %d },\n      \
            \"chain\": [%s]"
           (G.source_kind_name source.G.o_kind)
           (Detlint.json_escape source.G.o_path)
           (Detlint.json_escape source.G.o_loc.G.l_file)
           source.G.o_loc.G.l_line source.G.o_loc.G.l_col
           (String.concat ", "
              (List.map (fun f -> "\"" ^ Detlint.json_escape f ^ "\"") chain)))
  | T.Quarantined { q_rule; q_just } ->
      Buffer.add_string b
        (Printf.sprintf
           ", \"waiver_rule\": \"%s\", \"justification\": \"%s\"" q_rule
           (Detlint.json_escape q_just)));
  Buffer.add_string b " }";
  Buffer.contents b

let to_json (r : T.result) =
  let count cls =
    List.length
      (List.filter (fun e -> class_name e.T.e_class = cls) r.T.entries)
  in
  let b = Buffer.create 16384 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"tool\": \"detlint-taint\",\n  \"schema_version\": %d,\n  \
        \"summary\": { \"functions\": %d, \"det\": %d, \"nondet\": %d, \
        \"quarantined\": %d },\n  \"functions\": [\n"
       schema_version
       (List.length r.T.entries)
       (count "det") (count "nondet") (count "quarantined"));
  List.iteri
    (fun i e ->
      Buffer.add_string b (entry_json e);
      Buffer.add_string b
        (if i = List.length r.T.entries - 1 then "\n" else ",\n"))
    r.T.entries;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
