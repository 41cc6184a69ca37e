(* detlint's interprocedural taint pass.

   Input: the call graph, per-function facts and local findings extracted
   from the typed trees by detlint_callgraph.ml. Outputs: a purity
   classification for every function (detlint_ledger.ml writes the
   non-det ones as the ledger), plus every finding of the run — the
   walk's local ones and these:

   T1  an unwaivered nondeterminism source inside the protected region —
       the forward call-closure of the experiment sinks (engine step
       paths, [Runner.run_trials]*, [Stats] merges, [Obs.Metrics],
       checkpoint serialization, protocol phase/absorb/finish hot paths).
       The finding carries the full sink→source call chain.
   R7  member-order-sensitive control flow ([for ... downto], unsorted
       Hashtbl iteration) inside the cohort-op closure — the call-closure
       of [c_phase_a]/[c_absorb]/[c_msg] — which breaks the ascending
       member-draw byte-identity contract of DESIGN §5c.
   R8  a float-typed [fold_left]/[fold_right] inside the protected region:
       order-sensitive accumulation flowing toward merged registries must
       use the commutative init/absorb/finish algebra or carry a waiver.
   R9  mutable state ([ref]/[Hashtbl.t]/[Buffer.t]/[Queue.t]/[Stack.t])
       captured across the [Runner.fold] chunk boundary.
   W1  a well-formed waiver that suppresses nothing.

   Taint propagates callee → caller: a function calling a nondet function
   is nondet, with the shortest call chain to the underlying source
   recorded. A function-level [@detlint.allow "T1: why"] quarantines its
   function — it neither seeds nor transmits taint — and waived source
   occurrences quarantine just that occurrence. Chains are deterministic:
   adjacency lists are sorted and BFS roots are processed in name order,
   so the ledger is byte-stable across runs. *)

module G = Detlint_callgraph

type classification =
  | Det
  | Nondet of {
      source : G.occurrence;  (* the underlying source occurrence *)
      chain : string list;  (* this function -> ... -> sourced function *)
    }
  | Quarantined of { q_rule : string; q_just : string }

type entry = { e_fn : string; e_class : classification }

type result = {
  entries : entry list;  (* name-sorted, one per function *)
  findings : Detlint.finding list;  (* every finding, in report order *)
}

(* ------------------------------------------------------------------ *)
(* Sink and cohort roots                                               *)
(* ------------------------------------------------------------------ *)

(* [Fn]: dotted-suffix match on the full function name. [Mod]: suffix
   match on the enclosing module path (every function of the module is a
   root). Suffix matching keeps the self-contained fixture corpus
   ("Bad_taint_chain.Runner.run_trials") on the same patterns as the real
   tree ("Sim.Runner.run_trials"). *)
type root_pat = Fn of string | Mod of string

let sink_roots =
  [
    Fn "Runner.run_trials";
    Fn "Runner.run_trials_supervised";
    (* Every model's trial loop: the async and Byzantine engines and the
       experiments' own trial bodies run inside its chunks. *)
    Fn "Runner.fold";
    Fn "Engine.step";
    Fn "Engine.run";
    Fn "Engine.run_until";
    Fn "Cohort.step";
    Fn "Cohort.run";
    Fn "Cohort.run_until";
    Fn "Bitkernel.step";
    Fn "Bitkernel.run";
    Fn "Bitkernel.run_until";
    (* The word primitives feed every packed round's tallies and
       iteration order; a nondet source there corrupts experiment
       tables as surely as one in Engine.step. *)
    Mod "Bitwords";
    Fn "Welford.merge";
    Fn "Histogram.merge";
    Fn "Metrics.merge";
    Mod "Obs.Metrics";
    Mod "Checkpoint";
    (* The fault injector sits on the supervised fold's hot path (every
       chunk body and checkpoint call trips it), so its own functions
       must stay deterministic too: fault placement may depend only on
       the plan and the hit counters, never on a nondet source. *)
    Mod "Fault";
  ]

(* Protocol hot paths are reached through first-class records the static
   graph cannot follow (engines call [p.phase_a]), so the implementations
   are rooted by naming convention: the documented protocol field names
   and the [acc_*]-style helpers bound to them. *)
let protocol_base_pats = [ "phase_a"; "phase_b"; "absorb"; "finish" ]

let cohort_base_names = [ "c_phase_a"; "c_absorb"; "c_msg" ]

(* Register protocols are likewise reached through records: the kernel
   calls [bo.bo_step], and [Protocol.registers] wraps the protocol's
   codec and [~transition] into phase_a/finish/cohort closures. They root
   by the documented codec field names and the transition's name. *)
let bitops_base_names =
  [ "bo_pack"; "bo_unpack"; "bo_uniform"; "bo_aux_bound"; "bo_step"; "transition" ]

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let is_protocol_base base =
  List.mem base cohort_base_names
  || List.mem base bitops_base_names
  || List.exists
       (fun p -> base = p || ends_with ~suffix:("_" ^ p) base)
       protocol_base_pats

let is_sink_root (n : G.node) =
  let mp = G.module_path n.G.fn in
  List.exists
    (function
      | Fn f -> G.suffix_matches ~suffix:f n.G.fn
      | Mod m -> G.suffix_matches ~suffix:m mp)
    sink_roots
  || is_protocol_base (G.base_name n.G.fn)
  || n.G.cohort_field

let is_cohort_root (n : G.node) =
  n.G.cohort_field || List.mem (G.base_name n.G.fn) cohort_base_names

(* ------------------------------------------------------------------ *)
(* Graph closures                                                      *)
(* ------------------------------------------------------------------ *)

(* Forward BFS from [roots] (sorted), recording each node's predecessor so
   root→node chains reconstruct deterministically. *)
let forward_closure succ roots =
  let pred : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem pred r) then begin
        Hashtbl.replace pred r None;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if not (Hashtbl.mem pred v) then begin
          Hashtbl.replace pred v (Some u);
          Queue.add v q
        end)
      (Option.value (Hashtbl.find_opt succ u) ~default:[])
  done;
  pred

(* Chain from its closure root down to [fn], e.g.
   ["Sim.Runner.run_trials"; "Core.Synran.mid"; "Core.Synran.leaf"]. *)
let chain_from_root pred fn =
  let rec up acc fn =
    match Hashtbl.find_opt pred fn with
    | Some (Some parent) -> up (fn :: acc) parent
    | Some None | None -> fn :: acc
  in
  up [] fn

(* Path first: the source a ledger entry records is the first of its
   seed's, so it must not change when an edit only moves code. *)
let compare_occurrence (a : G.occurrence) (b : G.occurrence) =
  let c = String.compare a.G.o_path b.G.o_path in
  if c <> 0 then c else G.compare_loc a.G.o_loc b.G.o_loc

let unwaived_sources (n : G.node) =
  List.filter (fun o -> o.G.o_waiver = None) n.G.sources
  |> List.sort compare_occurrence

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let analyze (g : G.graph) =
  let succ = G.successors g in
  let names = G.node_names g in
  let node fn = Hashtbl.find g.G.nodes fn in
  let quarantined fn = (node fn).G.fn_waiver <> None in
  (* Callers (reverse adjacency), sorted for deterministic BFS. *)
  let callers : (string, string list) Hashtbl.t =
    Hashtbl.create (List.length names)
  in
  Hashtbl.iter
    (fun u outs ->
      List.iter
        (fun v ->
          let cur = Option.value (Hashtbl.find_opt callers v) ~default:[] in
          Hashtbl.replace callers v (u :: cur))
        outs)
    succ;
  Hashtbl.iter
    (fun v cs -> Hashtbl.replace callers v (List.sort_uniq String.compare cs))
    (Hashtbl.copy callers);
  (* Taint: multi-source BFS from the seeded (unwaivered-source, not
     quarantined) functions along caller edges. [towards] records the next
     hop on the shortest path toward the source; [origin] the seed. *)
  let towards : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let origin : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let seeds =
    List.filter
      (fun fn -> (not (quarantined fn)) && unwaived_sources (node fn) <> [])
      names
  in
  let q = Queue.create () in
  List.iter
    (fun s ->
      Hashtbl.replace towards s None;
      Hashtbl.replace origin s s;
      Queue.add s q)
    seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun c ->
        if (not (Hashtbl.mem towards c)) && not (quarantined c) then begin
          Hashtbl.replace towards c (Some u);
          Hashtbl.replace origin c (Hashtbl.find origin u);
          Queue.add c q
        end)
      (Option.value (Hashtbl.find_opt callers u) ~default:[])
  done;
  let chain_to_source fn =
    let rec down acc fn =
      match Hashtbl.find_opt towards fn with
      | Some (Some nxt) -> down (fn :: acc) nxt
      | Some None | None -> List.rev (fn :: acc)
    in
    down [] fn
  in
  (* Protected and cohort regions. *)
  let sink_root_names =
    List.filter (fun fn -> is_sink_root (node fn)) names
  in
  let cohort_root_names =
    List.filter (fun fn -> is_cohort_root (node fn)) names
  in
  let protected_pred = forward_closure succ sink_root_names in
  let cohort_pred = forward_closure succ cohort_root_names in
  (* ---- findings -------------------------------------------------- *)
  let findings = ref [] in
  let used : G.loc list ref = ref g.G.waivers_used in
  let mark_used (w : G.waiver option) =
    match w with Some w -> used := w.G.w_loc :: !used | None -> ()
  in
  let emit ~rule ~(loc : G.loc) ~message ~hint =
    findings :=
      {
        Detlint.rule;
        file = loc.G.l_file;
        line = loc.G.l_line;
        col = loc.G.l_col;
        message;
        hint;
        severity = Detlint.Violation;
        justification = None;
      }
      :: !findings
  in
  let render_chain c = String.concat " -> " c in
  List.iter
    (fun fn ->
      let n = node fn in
      (* Every attached waiver is live against the facts it covers. *)
      List.iter (fun o -> mark_used o.G.o_waiver) n.G.sources;
      List.iter (fun (_, w) -> mark_used w) n.G.float_folds;
      List.iter (fun (_, _, _, w) -> mark_used w) n.G.order_ops;
      List.iter (fun c -> mark_used c.G.cap_waiver) n.G.captures;
      let tainted_callee =
        List.exists
          (fun callee -> Hashtbl.mem towards callee)
          (Option.value (Hashtbl.find_opt succ fn) ~default:[])
      in
      if n.G.fn_waiver <> None && (n.G.sources <> [] || tainted_callee) then
        mark_used n.G.fn_waiver;
      let protected_ = Hashtbl.mem protected_pred fn in
      (* T1: unwaivered source inside the protected region. *)
      if protected_ && n.G.fn_waiver = None then
        List.iter
          (fun (o : G.occurrence) ->
            let chain = chain_from_root protected_pred fn in
            emit ~rule:"T1" ~loc:o.G.o_loc
              ~message:
                (Printf.sprintf
                   "nondeterminism source %s (%s) reaches a protected sink \
                    path: %s"
                   o.G.o_path
                   (G.source_kind_name o.G.o_kind)
                   (render_chain chain))
              ~hint:
                (Printf.sprintf
                   "every function on this chain feeds an experiment \
                    sink; eliminate the source, or quarantine %s with \
                    [@detlint.allow \"%s: why\"] / the whole function with \
                    [@detlint.allow \"T1: why\"]"
                   o.G.o_path
                   (G.source_rule o.G.o_kind)))
          (unwaived_sources n);
      (* R7: order-sensitive control flow inside the cohort-op closure. *)
      if Hashtbl.mem cohort_pred fn && n.G.fn_waiver = None then
        List.iter
          (fun (op, what, loc, w) ->
            match w with
            | Some _ -> ()
            | None ->
                let chain = chain_from_root cohort_pred fn in
                emit ~rule:"R7" ~loc
                  ~message:
                    (Printf.sprintf
                       "%s inside the cohort-op closure (%s): class-member \
                        processing must be ascending over the documented \
                        sorted accessors"
                       (match op with
                       | G.Downto_loop -> "descending for-loop"
                       | G.Hashtbl_iteration ->
                           Printf.sprintf "unsorted %s" what)
                       (render_chain chain))
                  ~hint:
                    "cohort byte-identity (DESIGN \xc2\xa75c) requires \
                     member-pid-ascending iteration; iterate sub_members / \
                     cls_members upward, or waive with [@detlint.allow \
                     \"R7: why order cannot be observed\"]")
          (List.sort
             (fun (_, _, a, _) (_, _, b, _) -> G.compare_loc a b)
             n.G.order_ops);
      (* R8: float folds on merge-flow paths. *)
      if protected_ && n.G.fn_waiver = None then
        List.iter
          (fun (loc, w) ->
            match w with
            | Some _ -> ()
            | None ->
                let chain = chain_from_root protected_pred fn in
                emit ~rule:"R8" ~loc
                  ~message:
                    (Printf.sprintf
                       "order-sensitive float fold on a merge-flow path \
                        (%s)"
                       (render_chain chain))
                  ~hint:
                    "float addition is not associative: route the \
                     accumulation through the commutative \
                     init/absorb/finish aggregate algebra (Stats.Welford, \
                     Protocol.aggregate), or waive with [@detlint.allow \
                     \"R8: why the fold order is fixed\"]")
          (List.sort (fun (a, _) (b, _) -> G.compare_loc a b) n.G.float_folds);
      (* R9: mutable captures across the supervised chunk boundary. *)
      List.iter
        (fun (c : G.capture) ->
          match c.G.cap_waiver with
          | Some _ -> ()
          | None ->
              emit ~rule:"R9" ~loc:c.G.cap_loc
                ~message:
                  (Printf.sprintf
                     "mutable %s %S captured by a closure passed to %s \
                      escapes the supervised chunk boundary"
                     c.G.cap_ty c.G.cap_name c.G.cap_entry)
                ~hint:
                  "chunk closures must keep state chunk-local and return \
                   it through the ~create/~work/~merge accumulator; \
                   escaped mutable state makes resumed runs diverge from \
                   uninterrupted ones")
        (List.sort
           (fun a b -> G.compare_loc a.G.cap_loc b.G.cap_loc)
           n.G.captures))
    names;
  (* ---- ledger entries -------------------------------------------- *)
  let entries =
    List.map
      (fun fn ->
        let n = node fn in
        let cls =
          match n.G.fn_waiver with
          | Some w ->
              Quarantined { q_rule = w.G.w_rule; q_just = w.G.w_just }
          | None -> (
              if Hashtbl.mem towards fn then
                let seed = Hashtbl.find origin fn in
                let source = List.hd (unwaived_sources (node seed)) in
                Nondet { source; chain = chain_to_source fn }
              else
                match
                  List.sort compare_occurrence
                    (List.filter (fun o -> o.G.o_waiver <> None) n.G.sources)
                with
                | o :: _ -> (
                    match o.G.o_waiver with
                    | Some w ->
                        Quarantined
                          { q_rule = w.G.w_rule; q_just = w.G.w_just }
                    | None -> Det)
                | [] -> Det)
        in
        { e_fn = fn; e_class = cls })
      names
  in
  (* W1: waivers nothing was attributed to, once per attribute. *)
  let used = List.sort_uniq G.compare_loc !used in
  List.iter
    (fun (w : G.waiver) ->
      if not (List.exists (fun u -> G.compare_loc u w.G.w_loc = 0) used) then
        emit ~rule:"W1" ~loc:w.G.w_loc
          ~message:
            (Printf.sprintf
               "stale waiver: [@detlint.allow \"%s: ...\"] suppresses nothing"
               w.G.w_rule)
          ~hint:
            "delete the waiver (the code it excused is gone), or fix the \
             rule tag if it excuses something else")
    (List.sort_uniq
       (fun (a : G.waiver) (b : G.waiver) ->
         let c = G.compare_loc a.G.w_loc b.G.w_loc in
         if c <> 0 then c else String.compare a.G.w_rule b.G.w_rule)
       g.G.waivers_seen);
  {
    entries;
    findings = List.stable_sort Detlint.compare_findings (g.G.local @ !findings);
  }
