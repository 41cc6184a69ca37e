(* The purity ledger: byte-stable JSON serialization of the taint pass's
   non-det functions ([results/detlint_taint.json]).

   Only a function classified nondet or quarantined gets an entry, keyed
   by its path: a nondet one records its source's kind, path and file and
   its call chain to that source, a quarantined one its waiver rule and
   justification. No line or column is recorded, so an edit that moves
   code, or adds a det function, leaves the ledger unchanged; the per-class
   counts go to the @lint stdout line ([summary]) instead.

   Stability contract: entries arrive name-sorted from the taint pass,
   chains are shortest BFS paths over sorted adjacency, and this module
   adds no map iteration of its own, so two runs over the same tree
   produce byte-identical ledgers and `dune build @bench-smoke` can gate
   on a plain diff against the committed file. *)

module G = Detlint_callgraph
module T = Detlint_taint

let schema_version = 3

let class_name = function
  | T.Det -> "det"
  | T.Nondet _ -> "nondet"
  | T.Quarantined _ -> "quarantined"

let quote s = "\"" ^ Detlint.json_escape s ^ "\""

(* The entry of a non-det function; a det one has none. *)
let entry_json (e : T.entry) =
  let body =
    match e.T.e_class with
    | T.Det -> None
    | T.Nondet { source; chain } ->
        Some
          (Printf.sprintf
             ",\n      \"source\": { \"kind\": \"%s\", \"path\": %s, \
              \"file\": %s },\n      \"chain\": [%s]"
             (G.source_kind_name source.G.o_kind)
             (quote source.G.o_path)
             (quote source.G.o_loc.G.l_file)
             (String.concat ", " (List.map quote chain)))
    | T.Quarantined { q_rule; q_just } ->
        Some
          (Printf.sprintf ", \"waiver_rule\": %s, \"justification\": %s"
             (quote q_rule) (quote q_just))
  in
  Option.map
    (Printf.sprintf "    %s: { \"class\": \"%s\"%s }" (quote e.T.e_fn)
       (class_name e.T.e_class))
    body

let to_json (r : T.result) =
  let entries = List.filter_map entry_json r.T.entries in
  Printf.sprintf
    "{\n  \"tool\": \"detlint-taint\",\n  \"schema_version\": %d,\n  \
     \"functions\": {%s}\n}\n"
    schema_version
    (if entries = [] then ""
     else "\n" ^ String.concat ",\n" entries ^ "\n  ")

(* "1423 function(s): 1414 det, 7 nondet, 2 quarantined". *)
let summary (r : T.result) =
  let count cls =
    List.length
      (List.filter (fun e -> class_name e.T.e_class = cls) r.T.entries)
  in
  Printf.sprintf "%d function(s): %d det, %d nondet, %d quarantined"
    (List.length r.T.entries) (count "det") (count "nondet")
    (count "quarantined")
