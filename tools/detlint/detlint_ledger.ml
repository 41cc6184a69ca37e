(* The purity ledger: byte-stable JSON serialization of the taint pass's
   non-det functions ([results/detlint_taint.json]).

   Only a function classified nondet or quarantined gets an entry, keyed
   by its path: a nondet one records its source's kind, path and file and
   its call chain to that source, a quarantined one its waiver rule and
   justification. No line or column is recorded, so an edit that moves
   code, or adds a det function, leaves the ledger unchanged; the per-class
   counts go to the @lint stdout line ([summary]) instead.

   Stability contract: Obs.Json prints the entries in key order, chains
   are shortest BFS paths over sorted adjacency, and this module adds no
   map iteration of its own, so two runs over the same tree
   produce byte-identical ledgers and `dune build @bench-smoke` can gate
   on a plain diff against the committed file. *)

module G = Detlint_callgraph
module T = Detlint_taint

let schema_version = 3

let class_name = function
  | T.Det -> "det"
  | T.Nondet _ -> "nondet"
  | T.Quarantined _ -> "quarantined"

(* The entry of a non-det function; a det one has none. *)
let entry_json (e : T.entry) =
  let open Obs.Json in
  let entry members =
    Some (e.T.e_fn, Obj (("class", String (class_name e.T.e_class)) :: members))
  in
  match e.T.e_class with
  | T.Det -> None
  | T.Nondet { source; chain } ->
      entry
        [ ( "source",
            Obj
              [ ("kind", String (G.source_kind_name source.G.o_kind));
                ("path", String source.G.o_path);
                ("file", String source.G.o_loc.G.l_file) ] );
          ("chain", List (List.map (fun fn -> String fn) chain)) ]
  | T.Quarantined { q_rule; q_just } ->
      entry [ ("waiver_rule", String q_rule); ("justification", String q_just) ]

let to_json (r : T.result) =
  Obs.Json.(
    Obj
      [ ("tool", String "detlint-taint");
        ("schema_version", Int schema_version);
        ("functions", Obj (List.filter_map entry_json r.T.entries)) ])

(* "1423 function(s): 1414 det, 7 nondet, 2 quarantined". *)
let summary (r : T.result) =
  let count cls =
    List.length
      (List.filter (fun e -> class_name e.T.e_class = cls) r.T.entries)
  in
  Printf.sprintf "%d function(s): %d det, %d nondet, %d quarantined"
    (List.length r.T.entries) (count "det") (count "nondet")
    (count "quarantined")
