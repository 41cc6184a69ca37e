(* detlint — determinism & domain-safety lint for this repository.

   The repo's headline guarantee (bit-identical experiment summaries at any
   [--jobs]) is a property of the whole source tree, not of any one module:
   a single call to the global [Random], a wall-clock read in a result path,
   or a mutable global captured by a spawned domain silently breaks the
   reproduction of the paper's quantitative claims (E1-E12).  This tool
   reads the [.cmt] typed trees dune writes for every [.ml] file, makes one
   walk over them ([Detlint_callgraph]), and enforces the invariants as
   named rules:

   R1  no [Random.*] (including [self_init], [open Random] and
       [module R = Random]) outside [lib/prng] — all randomness must flow
       through the seeded, splittable [Prng.Rng].
   R2  no wall-clock / entropy sources ([Unix.gettimeofday], [Unix.time],
       [Sys.time]) anywhere; timing code must carry an explicit waiver.
   R3  no [Hashtbl.iter] / [Hashtbl.fold] whose result escapes without a
       subsequent sort (order-sensitivity heuristic): the fold must appear
       in the argument position of a sorting function, e.g.
       [Hashtbl.fold f t [] |> List.sort cmp].
   R4  race heuristic — a module-level binding of mutable type ([ref],
       [Hashtbl.t], [array], [bytes], [Buffer.t], [Queue.t], [Stack.t];
       [Atomic.t] is the sanctioned cell) captured by a closure literal
       passed to [Domain.spawn] or the [Parallel.run_workers] pool entry.
   R5  polymorphic comparison inside the determinism-critical hot-path
       libraries [lib/stats], [lib/sim], [lib/core] and [lib/coinflip]: any
       bare [compare] (use [Float.compare] / [Int.compare]), [=] / [<>]
       where an operand is syntactically float-valued, and any comparison
       operator applied to a tuple literal (spell the lexicographic
       comparison out per component).
   (R6 is retired: it quarantined a timing module that no longer exists,
       and R2 still flags every raw clock read. Its id stays unused so the
       other rules keep their numbers.)
   R10 no [Fault.fire] / [Fault.trip] outside the injector-mediated call
       paths (lib/sim/{fault,checkpoint,runner}.ml and
       lib/core/supervise.ml). Fault-site triggers anywhere else would
       inject failures outside the retry/quarantine machinery and outside
       the replay contract ([--fault-plan] re-runs must place every fault
       identically). Constructing or parsing plans is legal anywhere; only
       firing sites is confined. The unit-test tree is exempt (tests
       exercise the injector directly).

   R7 (cohort class-member order), R8 (float-fold ordering on merged
   registries), R9 (mutable state escaping supervised chunk closures) and
   T1 (interprocedural source->sink taint) are judged over the whole call
   graph by [Detlint_taint].  This module holds what every rule shares:
   the finding type, the rule catalogue, the command line and the report.

   False positives are silenced with a visible, justified waiver
   attribute:

     (expr [@detlint.allow "R3: per-key sum is commutative"])

   The payload must be a string literal "R<n>: <justification>"; any other
   form is itself a violation (rule W0), and it does NOT suppress the
   underlying finding. *)

type severity = Violation | Waived

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  hint : string;
  severity : severity;
  justification : string option;
}

(* Rules a [@detlint.allow] may name. *)
let rule_ids =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R7"; "R8"; "R9"; "R10"; "T1" ]

(* Everything that can appear as a finding's [rule], for the JSON report. *)
let all_rule_ids = rule_ids @ [ "W0"; "W1"; "P0" ]

let rule_doc = function
  | "R1" -> "global Random outside lib/prng"
  | "R2" -> "wall-clock / entropy source"
  | "R3" -> "unsorted Hashtbl.iter/fold (order-sensitivity heuristic)"
  | "R4" -> "module-level mutable state captured by a parallel closure"
  | "R5" ->
      "polymorphic compare/= at float type/tuple comparison in lib/stats, \
       lib/sim, lib/core or lib/coinflip"
  | "R7" ->
      "member-order-sensitive control flow inside the cohort-op closure \
       (typed taint pass)"
  | "R8" ->
      "order-sensitive float fold on a merge-flow path (typed taint pass)"
  | "R9" ->
      "mutable state escaping the supervised chunk boundary (typed taint \
       pass)"
  | "R10" ->
      "Fault.fire/Fault.trip outside the injector-mediated call paths (the \
       chaos-replay quarantine)"
  | "T1" ->
      "nondeterminism source reaching a protected sink path (typed taint \
       pass)"
  | "W0" -> "malformed detlint.allow waiver"
  | "W1" -> "stale detlint.allow waiver (suppresses nothing)"
  | "P0" -> "source file has no loadable typed tree"
  | _ -> "unknown rule"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage = "usage: detlint [--json FILE] [--ledger FILE] PATH..."

type args = { json : string option; ledger : string option; paths : string list }

(* [parse_args ~exists argv] (argv without the program name). Anything
   starting with '-' that is not one of the two options, and any PATH for
   which [exists] is false, is an error: a typo must not lint nothing and
   pass. *)
let parse_args ~exists argv =
  let rec go a = function
    | [] when a.paths = [] -> Error "no PATH given"
    | [] -> Ok { a with paths = List.rev a.paths }
    | "--json" :: file :: rest -> go { a with json = Some file } rest
    | "--ledger" :: file :: rest -> go { a with ledger = Some file } rest
    | [ ("--json" | "--ledger") as o ] -> Error (o ^ " needs a FILE")
    | o :: _ when String.length o > 0 && o.[0] = '-' ->
        Error ("unknown option " ^ o)
    | p :: rest when exists p -> go { a with paths = p :: a.paths } rest
    | p :: _ -> Error ("no such file or directory: " ^ p)
  in
  go { json = None; ledger = None; paths = [] } argv

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render f =
  match f.severity with
  | Violation ->
      Printf.sprintf "%s:%d:%d: [%s] %s\n    hint: %s" f.file f.line f.col
        f.rule f.message f.hint
  | Waived ->
      Printf.sprintf "%s:%d:%d: [%s/waived] %s\n    justification: %s" f.file
        f.line f.col f.rule f.message
        (Option.value f.justification ~default:"")

(* Canonical finding order: report position first, rule as a tie-break.
   Sorting before emission makes results/detlint.json independent of
   directory-walk and traversal order. *)
let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let json_schema_version = 2

let to_json ~files findings =
  let findings = List.stable_sort compare_findings findings in
  let count sev =
    List.length (List.filter (fun f -> f.severity = sev) findings)
  in
  let open Obs.Json in
  let finding f =
    let severity =
      match f.severity with Violation -> "violation" | Waived -> "waived"
    in
    Obj
      ([ ("file", String f.file); ("line", Int f.line); ("col", Int f.col);
         ("rule", String f.rule); ("severity", String severity);
         ("message", String f.message) ]
      @ Option.fold ~none:[]
          ~some:(fun j -> [ ("justification", String j) ])
          f.justification)
  in
  Obj
    [ ("tool", String "detlint"); ("schema_version", Int json_schema_version);
      ( "rules",
        Obj (List.map (fun r -> (r, String (rule_doc r))) all_rule_ids) );
      ( "summary",
        Obj
          [ ("files", Int files); ("violations", Int (count Violation));
            ("waived", Int (count Waived)) ] );
      ("findings", List (List.map finding findings)) ]
