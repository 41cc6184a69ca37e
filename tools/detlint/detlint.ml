(* detlint — determinism & domain-safety lint for this repository.

   The repo's headline guarantee (bit-identical experiment summaries at any
   [--jobs]) is a property of the whole source tree, not of any one module:
   a single call to the global [Random], a wall-clock read in a result path,
   or a mutable global captured by a spawned domain silently breaks the
   reproduction of the paper's quantitative claims (E1-E12).  This tool
   parses every [.ml] file with ppxlib and enforces the invariants as named
   rules:

   R1  no [Random.*] (including [self_init]) outside [lib/prng] — all
       randomness must flow through the seeded, splittable [Prng.Rng].
   R2  no wall-clock / entropy sources ([Unix.gettimeofday], [Unix.time],
       [Sys.time]) anywhere; timing code must carry an explicit waiver.
   R3  no [Hashtbl.iter] / [Hashtbl.fold] whose result escapes without a
       subsequent sort (order-sensitivity heuristic): the fold must appear
       in the argument position of a sorting function, e.g.
       [Hashtbl.fold f t [] |> List.sort cmp].
   R4  race heuristic — module-level mutable state ([ref], [Hashtbl.create],
       mutable containers, or any top-level binding the file itself mutates)
       referenced inside a closure literal passed to [Domain.spawn] or a
       [Sim.Parallel] entry point.
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
       paths (lib/sim/{fault,parallel,checkpoint,runner}.ml and
       lib/core/{fault,supervise}.ml). Fault-site triggers anywhere else
       would inject failures outside the retry/quarantine machinery and
       outside the replay contract ([--fault-plan] re-runs must place
       every fault identically). Constructing or parsing plans is legal
       anywhere; only firing sites is confined. The unit-test tree is
       exempt (tests exercise the injector directly).

   Rules R7 (cohort class-member order), R8 (float-fold ordering on merged
   registries), R9 (mutable state escaping supervised chunk closures) and
   T1 (interprocedural source->sink taint) live in the typed pass — see
   [Detlint_callgraph] and [Detlint_taint]; this module only registers
   their rule ids and documentation so waivers parse and reports render
   uniformly.

   The rules in this module are heuristic and syntactic by design: they
   run on the parse tree, with no type information, so they can be wired
   into the build with zero compilation cost and report precise source
   locations.  False positives are silenced with a visible, justified
   waiver attribute:

     (expr [@detlint.allow "R3: per-key sum is commutative"])

   The payload must be a string literal "R<n>: <justification>"; a waiver
   with an empty justification is itself a violation (rule W0), and it does
   NOT suppress the underlying finding. *)

open Ppxlib

type severity = Violation | Waived

(* One well-formed [@detlint.allow] attribute, keyed by the attribute's own
   source location. [ws_used] flips when the waiver suppresses a finding;
   sites left unused by both the syntactic and the typed pass are stale
   (rule W1, audited by main.ml under [--check-waivers]). *)
type waiver_site = {
  ws_rule : string;
  ws_file : string;
  ws_line : int;
  ws_col : int;
  mutable ws_used : bool;
}

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

(* Rules a [@detlint.allow] may name. R7-R9 and T1 are enforced by the
   typed taint pass (detlint_taint.ml); their waivers parse here so the
   syntactic pass neither W0s them nor suppresses anything with them. *)
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
  | "P0" -> "parse error"
  | _ -> "unknown rule"

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let has_prefix ~prefix s = Option.is_some (strip_prefix ~prefix s)

(* "Stdlib.Sys.time" and "Pervasives.compare" normalise to the bare path. *)
let normalize_path p =
  match strip_prefix ~prefix:"Stdlib." p with
  | Some rest -> rest
  | None -> (
      match strip_prefix ~prefix:"Pervasives." p with
      | Some rest -> rest
      | None -> p)

let path_of_longident lid =
  match Longident.flatten_exn lid with
  | segs -> Some (String.concat "." segs)
  | exception _ -> None

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Option.map normalize_path (path_of_longident txt)
  | _ -> None

(* Head function of a (possibly partial) application, e.g. the path of
   [List.sort] in [List.sort cmp]. *)
let rec head_path e =
  match e.pexp_desc with
  | Pexp_ident _ -> ident_path e
  | Pexp_apply (f, _) -> head_path f
  | Pexp_constraint (e, _) -> head_path e
  | _ -> None

let rec unwrap_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> unwrap_constraint e
  | _ -> e

let sort_fns =
  [
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
  ]

let time_fns = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let hashtbl_order_fns = [ "Hashtbl.iter"; "Hashtbl.fold" ]

(* Entry points that run closures on other domains. *)
let parallel_entry p =
  p = "Domain.spawn"
  || List.mem p
       [
         "Parallel.fold_chunks"; "Parallel.map"; "Parallel.run_workers";
         "Sim.Parallel.fold_chunks"; "Sim.Parallel.map";
         "Sim.Parallel.run_workers";
       ]

(* Module-level bindings to these constructors are treated as mutable
   state for R4 (Atomic.make is deliberately absent: atomics are the
   sanctioned cross-domain cells). *)
let mutable_creators =
  [
    "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Buffer.create"; "Queue.create"; "Stack.create"; "Bytes.create";
    "Bytes.make";
  ]

(* Applications whose first argument is being mutated in place. *)
let mutator_fns =
  [
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Array.set"; "Array.fill"; "Array.blit"; "Bytes.set";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.clear"; "Queue.push";
    "Queue.add"; "Queue.pop"; "Queue.take"; "Queue.clear"; "Stack.push";
    "Stack.pop"; "Stack.clear";
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let float_returning =
  [ "float_of_int"; "sqrt"; "exp"; "log"; "Float.abs"; "Float.min"; "Float.max" ]

(* Syntactic "this expression is float-valued" heuristic for R5. *)
let rec floatish e =
  match (unwrap_constraint e).pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some p when List.mem p float_ops || List.mem p float_returning -> true
      | _ -> (
          match args with
      | [ (_, l); (_, r) ] when ident_path f = Some "~-." -> floatish l || floatish r
          | _ -> false))
  | _ -> false

let in_scope_r1 relpath = not (has_prefix ~prefix:"lib/prng/" relpath)

let in_scope_r5 relpath =
  has_prefix ~prefix:"lib/stats/" relpath
  || has_prefix ~prefix:"lib/sim/" relpath
  || has_prefix ~prefix:"lib/core/" relpath
  || has_prefix ~prefix:"lib/coinflip/" relpath

(* The chaos-replay quarantine: fault-site triggers are confined to the
   injector engine and the supervised runner stack that threads it.
   Anywhere else, a fire/trip would inject failures outside the
   retry/quarantine machinery, and [--fault-plan] replays would no longer
   place every fault identically. Plan construction and parsing are legal
   anywhere; the unit-test tree is exempt because tests exercise the
   injector directly. *)
let r10_trigger_files =
  [
    "lib/sim/fault.ml";
    "lib/sim/parallel.ml";
    "lib/sim/checkpoint.ml";
    "lib/sim/runner.ml";
    "lib/core/supervise.ml";
  ]

let in_scope_r10 relpath =
  (not (List.mem relpath r10_trigger_files))
  && not (has_prefix ~prefix:"test/" relpath)

(* "Fault.fire" / "Sim.Fault.trip" / "Core.Fault.fire" — any dotted path
   whose last two components name a fault-site trigger. *)
let is_fault_trigger p =
  let tail_matches suffix =
    p = suffix
    ||
    let ls = String.length suffix and lp = String.length p in
    lp > ls + 1 && String.sub p (lp - ls - 1) (ls + 1) = "." ^ suffix
  in
  tail_matches "Fault.fire" || tail_matches "Fault.trip"

(* ------------------------------------------------------------------ *)
(* Waiver attribute parsing                                            *)
(* ------------------------------------------------------------------ *)

type waiver_parse =
  | Not_a_waiver
  | Malformed of string
  | Waiver of string * string  (* rule, justification *)

let parse_waiver (attr : attribute) =
  if attr.attr_name.txt <> "detlint.allow" then Not_a_waiver
  else
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] -> (
        let rule, rest =
          match String.index_opt s ':' with
          | Some i ->
              ( String.trim (String.sub s 0 i),
                String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
          | None -> (
              match String.index_opt s ' ' with
              | Some i ->
                  ( String.sub s 0 i,
                    String.trim
                      (String.sub s (i + 1) (String.length s - i - 1)) )
              | None -> (String.trim s, ""))
        in
        match (List.mem rule rule_ids, rest) with
        | false, _ ->
            Malformed
              (Printf.sprintf "unknown rule %S (expected one of %s)" rule
                 (String.concat ", " rule_ids))
        | true, "" ->
            Malformed
              (Printf.sprintf
                 "waiver for %s is missing a justification (use \"%s: why\")"
                 rule rule)
        | true, _ -> Waiver (rule, rest))
    | _ -> Malformed "payload must be a string literal \"R<n>: justification\""

(* ------------------------------------------------------------------ *)
(* R4 pass 1: module-level mutable state                               *)
(* ------------------------------------------------------------------ *)

module StringSet = Set.Make (String)

let rec pattern_names acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> StringSet.add txt acc
  | Ppat_alias (p, { txt; _ }) -> pattern_names (StringSet.add txt acc) p
  | Ppat_tuple ps -> List.fold_left pattern_names acc ps
  | Ppat_constraint (p, _) -> pattern_names acc p
  | _ -> acc

let is_creator_rhs e =
  match (unwrap_constraint e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some p -> List.mem p mutable_creators
      | None -> false)
  | _ -> false

(* Names of all structure-level bindings (recursing into nested modules),
   split into "all of them" and "those whose right-hand side is a mutable
   container". *)
let rec module_level_bindings str =
  List.fold_left
    (fun (all, created) item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun (all, created) vb ->
              let names = pattern_names StringSet.empty vb.pvb_pat in
              let all = StringSet.union all names in
              let created =
                if is_creator_rhs vb.pvb_expr then
                  StringSet.union created names
                else created
              in
              (all, created))
            (all, created) vbs
      | Pstr_module { pmb_expr; _ } -> module_level_of_mod (all, created) pmb_expr
      | Pstr_recmodule mbs ->
          List.fold_left
            (fun acc mb -> module_level_of_mod acc mb.pmb_expr)
            (all, created) mbs
      | _ -> (all, created))
    (StringSet.empty, StringSet.empty)
    str
  |> fun (all, created) -> (all, created)

and module_level_of_mod acc me =
  match me.pmod_desc with
  | Pmod_structure str ->
      let all', created' = module_level_bindings str in
      let all, created = acc in
      (StringSet.union all all', StringSet.union created created')
  | Pmod_constraint (me, _) -> module_level_of_mod acc me
  | _ -> acc

(* Names that the file mutates somewhere ([x := ...], [x.f <- ...], or a
   known in-place mutator applied to [x]). *)
let mutated_names str =
  let acc = ref StringSet.empty in
  let add e =
    match (unwrap_constraint e).pexp_desc with
    | Pexp_ident { txt = Lident name; _ } -> acc := StringSet.add name !acc
    | _ -> ()
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_setfield (target, _, _) -> add target
        | Pexp_apply (f, args) -> (
            match (ident_path f, args) with
            | Some ":=", (_, target) :: _ -> add target
            | Some p, (Nolabel, target) :: _ when List.mem p mutator_fns ->
                add target
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#structure str;
  !acc

let collect_mutable_globals str =
  let all, created = module_level_bindings str in
  let mutated = mutated_names str in
  StringSet.inter all (StringSet.union created mutated)

(* ------------------------------------------------------------------ *)
(* Main lint pass                                                      *)
(* ------------------------------------------------------------------ *)

class linter ~relpath ~mutable_globals ~(emit : finding -> unit)
  ~(register_waiver : waiver_site -> unit) =
  object (self)
    inherit Ast_traverse.iter as super

    (* > 0 while visiting an expression whose value is consumed by a
       sorting function (R3's escape heuristic). *)
    val mutable sorted_depth = 0

    (* > 0 while visiting the body of a closure literal passed to
       Domain.spawn / Sim.Parallel (R4). *)
    val mutable par_depth = 0

    (* Active [@detlint.allow] waivers, innermost last. *)
    val mutable waivers : (string * string * waiver_site) list = []

    method private report ~rule ~loc ~message ~hint =
      let pos = loc.loc_start in
      let line = pos.pos_lnum and col = pos.pos_cnum - pos.pos_bol in
      match List.find_opt (fun (r, _, _) -> r = rule) waivers with
      | Some (_, just, site) ->
          site.ws_used <- true;
          emit
            {
              rule; file = relpath; line; col; message; hint;
              severity = Waived; justification = Some just;
            }
      | None ->
          emit
            {
              rule; file = relpath; line; col; message; hint;
              severity = Violation; justification = None;
            }

    method private add_waiver ~loc attr =
      match parse_waiver attr with
      | Not_a_waiver -> ()
      | Waiver (rule, just) ->
          let apos = attr.attr_loc.loc_start in
          let site =
            {
              ws_rule = rule;
              ws_file = relpath;
              ws_line = apos.pos_lnum;
              ws_col = apos.pos_cnum - apos.pos_bol;
              ws_used = false;
            }
          in
          register_waiver site;
          waivers <- (rule, just, site) :: waivers
      | Malformed why ->
          let pos = loc.loc_start in
          emit
            {
              rule = "W0";
              file = relpath;
              line = pos.pos_lnum;
              col = pos.pos_cnum - pos.pos_bol;
              message = "malformed [@detlint.allow]: " ^ why;
              hint =
                "write [@detlint.allow \"R<n>: one-line justification\"]; a \
                 malformed waiver suppresses nothing";
              severity = Violation;
              justification = None;
            }

    method private push_attrs ~loc attrs k =
      let saved = waivers in
      List.iter (self#add_waiver ~loc) attrs;
      k ();
      waivers <- saved

    (* --- per-ident checks (R1, R2, R3, R5-compare) ------------------- *)
    method private check_path p loc =
      (match String.split_on_char '.' p with
      | "Random" :: _ :: _ when in_scope_r1 relpath ->
          self#report ~rule:"R1" ~loc
            ~message:(Printf.sprintf "call to global %s" p)
            ~hint:
              "route all randomness through the seeded Prng.Rng (lib/prng); \
               the global Random breaks (seed, trial_index) reproducibility"
      | _ -> ());
      if List.mem p time_fns then
        self#report ~rule:"R2" ~loc
          ~message:(Printf.sprintf "wall-clock/entropy source %s" p)
          ~hint:
            "experiment results must be pure functions of the seed; if this \
             is genuinely a timing measurement, waive it with \
             [@detlint.allow \"R2: why\"]";
      if List.mem p hashtbl_order_fns && sorted_depth = 0 then
        self#report ~rule:"R3" ~loc
          ~message:
            (Printf.sprintf
               "%s result escapes without a subsequent sort (iteration order \
                is unspecified)"
               p)
          ~hint:
            "pipe the result into List.sort/Array.sort, or waive with \
             [@detlint.allow \"R3: why the consumer is order-insensitive\"]";
      if is_fault_trigger p && in_scope_r10 relpath then
        self#report ~rule:"R10" ~loc
          ~message:
            (Printf.sprintf
               "fault-site trigger %s outside the injector-mediated call \
                paths"
               p)
          ~hint:
            "Fault.fire/Fault.trip may only run inside the fault engine and \
             the supervised runner stack (lib/sim/fault.ml, parallel.ml, \
             checkpoint.ml, runner.ml, lib/core/supervise.ml); \
             thread a fault plan through Sim.Runner.run_trials_supervised / \
             Core.Supervise.create instead of tripping sites ad hoc";
      if p = "compare" && in_scope_r5 relpath then
        self#report ~rule:"R5" ~loc
          ~message:"polymorphic compare in a determinism-critical library"
          ~hint:
            "use the monomorphic Float.compare / Int.compare / String.compare \
             (NaN-safe, no structural-compare surprises, faster)";
      if par_depth > 0 && not (String.contains p '.')
         && StringSet.mem p mutable_globals then
        self#report ~rule:"R4" ~loc
          ~message:
            (Printf.sprintf
               "module-level mutable binding %S captured by a closure passed \
                to Domain.spawn / Sim.Parallel"
               p)
          ~hint:
            "pass per-chunk state through the ~create/~merge accumulator or \
             use Atomic; unsynchronized cross-domain mutation is a data race"

    (* --- expressions ------------------------------------------------- *)
    method! expression e =
      self#push_attrs ~loc:e.pexp_loc e.pexp_attributes (fun () ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match path_of_longident txt with
              | Some p -> self#check_path (normalize_path p) e.pexp_loc
              | None -> ())
          | Pexp_apply (fn, args) -> self#visit_apply fn args
          | _ -> super#expression e)

    method private visit_apply fn args =
      (* R5: [=] / [<>] with a syntactically float operand. *)
      (match (ident_path fn, args) with
      | Some (("=" | "<>") as op), [ (_, l); (_, r) ]
        when in_scope_r5 relpath && (floatish l || floatish r) ->
          self#report ~rule:"R5" ~loc:fn.pexp_loc
            ~message:
              (Printf.sprintf
                 "polymorphic (%s) applied to a float-valued operand" op)
            ~hint:
              "use Float.equal / Float.compare (or an epsilon test); \
               polymorphic equality at float type is NaN-hostile"
      | _ -> ());
      (* R5: a comparison operator applied to a syntactic tuple literal —
         polymorphic structural comparison on a hot path (e.g.
         [(m.prio, pid) > (bp, bpid)]). *)
      (match (ident_path fn, args) with
      | Some (("=" | "<>" | "<" | ">" | "<=" | ">=") as op), [ (_, l); (_, r) ]
        when in_scope_r5 relpath
             && (match ((unwrap_constraint l).pexp_desc,
                        (unwrap_constraint r).pexp_desc) with
                | Pexp_tuple _, _ | _, Pexp_tuple _ -> true
                | _ -> false) ->
          self#report ~rule:"R5" ~loc:fn.pexp_loc
            ~message:
              (Printf.sprintf
                 "polymorphic (%s) applied to a tuple literal" op)
            ~hint:
              "spell the lexicographic comparison out with Int.compare / \
               Float.compare per component; structural comparison allocates \
               and hides float/NaN hazards on hot paths"
      | _ -> ());
      let fn_path = head_path fn in
      match (ident_path fn, args) with
      (* [e |> List.sort cmp] / [e |> List.sort]: lhs is sorted. *)
      | Some "|>", [ (ll, lhs); (rl, rhs) ]
        when Option.fold ~none:false
               ~some:(fun p -> List.mem p sort_fns)
               (head_path rhs) ->
          ignore ll; ignore rl;
          self#expression fn;
          sorted_depth <- sorted_depth + 1;
          self#expression lhs;
          sorted_depth <- sorted_depth - 1;
          self#expression rhs
      (* [List.sort cmp @@ e]: rhs is sorted. *)
      | Some "@@", [ (_, lhs); (_, rhs) ]
        when Option.fold ~none:false
               ~some:(fun p -> List.mem p sort_fns)
               (head_path lhs) ->
          self#expression fn;
          self#expression lhs;
          sorted_depth <- sorted_depth + 1;
          self#expression rhs;
          sorted_depth <- sorted_depth - 1
      | _ -> (
          match fn_path with
          (* Direct [List.sort cmp (Hashtbl.fold ...)]. *)
          | Some p when List.mem p sort_fns ->
              self#expression fn;
              sorted_depth <- sorted_depth + 1;
              List.iter (fun (_, a) -> self#expression a) args;
              sorted_depth <- sorted_depth - 1
          (* Closure literals handed to another domain. *)
          | Some p when parallel_entry p ->
              self#expression fn;
              List.iter
                (fun (_, a) ->
                  match (unwrap_constraint a).pexp_desc with
                  | Pexp_function _ ->
                      par_depth <- par_depth + 1;
                      self#expression a;
                      par_depth <- par_depth - 1
                  | _ -> self#expression a)
                args
          | _ ->
              self#expression fn;
              List.iter (fun (_, a) -> self#expression a) args)

    (* --- bindings and structure items carrying waivers ---------------- *)
    method! value_binding vb =
      self#push_attrs ~loc:vb.pvb_loc vb.pvb_attributes (fun () ->
          super#value_binding vb)

    method! structure_item item =
      match item.pstr_desc with
      | Pstr_eval (_, attrs) ->
          self#push_attrs ~loc:item.pstr_loc attrs (fun () ->
              super#structure_item item)
      (* R1 also covers [open Random] / [module R = Random]. *)
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        when (match path_of_longident txt with
             | Some p -> normalize_path p = "Random"
             | None -> false)
             && in_scope_r1 relpath ->
          self#report ~rule:"R1" ~loc:item.pstr_loc
            ~message:"open of the global Random module"
            ~hint:"route all randomness through the seeded Prng.Rng (lib/prng)";
          super#structure_item item
      | Pstr_module
          { pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        when (match path_of_longident txt with
             | Some p -> normalize_path p = "Random"
             | None -> false)
             && in_scope_r1 relpath ->
          self#report ~rule:"R1" ~loc:item.pstr_loc
            ~message:"alias of the global Random module"
            ~hint:"route all randomness through the seeded Prng.Rng (lib/prng)";
          super#structure_item item
      | _ -> super#structure_item item

    (* File-level waivers: a floating [@@@detlint.allow "..."] applies to
       the remainder of the enclosing structure. *)
    method! structure items =
      let saved = waivers in
      List.iter
        (fun item ->
          (match item.pstr_desc with
          | Pstr_attribute a -> self#add_waiver ~loc:item.pstr_loc a
          | _ -> ());
          self#structure_item item)
        items;
      waivers <- saved
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let lint_structure_audit ~relpath str =
  let findings = ref [] in
  let sites = ref [] in
  let mutable_globals = collect_mutable_globals str in
  let it =
    new linter
      ~relpath ~mutable_globals
      ~emit:(fun f -> findings := f :: !findings)
      ~register_waiver:(fun s -> sites := s :: !sites)
  in
  it#structure str;
  (List.rev !findings, List.rev !sites)

let lint_structure ~relpath str = fst (lint_structure_audit ~relpath str)

let lint_source_audit ~relpath source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf relpath;
  match Parse.implementation lexbuf with
  | str -> lint_structure_audit ~relpath str
  | exception exn ->
      ( [
          {
            rule = "P0";
            file = relpath;
            line = 1;
            col = 0;
            message = "cannot parse: " ^ Printexc.to_string exn;
            hint = "detlint only lints code that compiles";
            severity = Violation;
            justification = None;
          };
        ],
        [] )

let lint_source ~relpath source = fst (lint_source_audit ~relpath source)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file_audit ?relpath path =
  let relpath = Option.value relpath ~default:path in
  lint_source_audit ~relpath (read_file path)

let lint_file ?relpath path = fst (lint_file_audit ?relpath path)

(* Deterministic recursive walk for [.ml] files; [_build], [.git] and
   [lint_fixtures] (the deliberately-bad test corpus) are skipped. *)
let rec walk_ml_files acc path =
  if Sys.file_exists path && Sys.is_directory path then
    let base = Filename.basename path in
    if base = "_build" || base = ".git" || base = "lint_fixtures" then acc
    else
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name -> walk_ml_files acc (Filename.concat path name))
           acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths_audit paths =
  let files = List.fold_left walk_ml_files [] paths |> List.sort String.compare in
  let findings, sites =
    List.fold_left
      (fun (fs, ss) f ->
        let fs', ss' = lint_file_audit f in
        (fs' :: fs, ss' :: ss))
      ([], []) files
  in
  (files, List.concat (List.rev findings), List.concat (List.rev sites))

let lint_paths paths =
  let files, findings, _ = lint_paths_audit paths in
  (files, findings)

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

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

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
  let violations =
    List.length (List.filter (fun f -> f.severity = Violation) findings)
  in
  let waived =
    List.length (List.filter (fun f -> f.severity = Waived) findings)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"tool\": \"detlint\",\n  \"schema_version\": %d,\n  \
        \"rules\": {\n"
       json_schema_version);
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": \"%s\"%s\n" r (json_escape (rule_doc r))
           (if i = List.length all_rule_ids - 1 then "" else ",")))
    all_rule_ids;
  Buffer.add_string b
    (Printf.sprintf
       "  },\n  \"summary\": { \"files\": %d, \"violations\": %d, \"waived\": \
        %d },\n  \"findings\": [\n"
       files violations waived);
  List.iteri
    (fun i f ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \
            \"%s\", \"severity\": \"%s\", \"message\": \"%s\"%s }%s\n"
           (json_escape f.file) f.line f.col f.rule
           (match f.severity with
           | Violation -> "violation"
           | Waived -> "waived")
           (json_escape f.message)
           (match f.justification with
           | Some j -> Printf.sprintf ", \"justification\": \"%s\"" (json_escape j)
           | None -> "")
           (if i = List.length findings - 1 then "" else ",")))
    findings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
