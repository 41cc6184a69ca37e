(* detlint's one walk: reads the [.cmt] typed trees dune already produces
   (-bin-annot is on by default; [dune build @check] materializes them for
   every library and executable), reports the local rules on the spot, and
   builds the interprocedural call graph the taint pass (detlint_taint.ml)
   propagates over.

   Local findings ([graph.local]), each waived by an enclosing
   [@detlint.allow] naming its rule:

   - R1 global [Random] (also [open Random] / [module R = Random]) outside
     lib/prng; R2 wall-clock reads; R3 unsorted [Hashtbl] iteration (a
     fold in the argument position of a sort is ordered); R5 bare
     [compare], [=]/[<>] on a syntactically float operand, comparisons on
     a tuple literal (scoped to the hot-path libraries); R10 fault-site
     triggers outside the injector stack.
   - R4: module-level mutable bindings captured by a closure literal
     handed to [Domain.spawn] or the [Parallel.run_workers] pool entry.
   - W0: a malformed waiver (it suppresses nothing). P0: a source file
     under the given trees without a loadable typed tree.

   Graph facts, all carrying precise source locations and the innermost
   active waiver if one matches their underlying rule:

   One [node] per named function: every value binding whose right-hand side
   is syntactically a function, qualified by its enclosing modules and
   enclosing function bindings ("Sim.Cohort.step.find_member"), plus
   synthetic nodes for anonymous lambdas bound directly to the cohort-op
   record fields [c_phase_a]/[c_absorb]/[c_msg]. Facts occurring outside
   any function (module-level initialization code) attach to a per-unit
   "(toplevel)" node.

   - call edges: every identifier referenced in the body. [Pdot] paths are
     global names ("Sim.Protocol.cohort_capable", already display-form in
     the typed tree); [Pident]s are resolved against enclosing scopes after
     the whole graph is loaded, so local helpers and siblings link up.
   - nondeterminism sources: the R1/R2/R3/R5 occurrences above, plus [Gc]
     statistics and [Domain] identity, which only matter through T1.
   - float folds (R8): [fold_left]/[fold_right] applications whose result
     type is [float] — order-sensitive accumulations, checked against the
     merge-flow region by the taint pass.
   - order ops (R7): descending [for ... downto] loops and unsorted
     Hashtbl iteration — member-order-sensitive control flow, checked
     against the cohort-op closure by the taint pass.
   - supervised captures (R9): free variables of mutable type ([ref],
     [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t]) captured by closure
     literals passed to [Runner.fold] (whose trial closure runs inside
     every model's chunks) — state that escapes the chunk boundary.

   Every well-formed waiver is registered by the location of its attribute
   (and marked when it suppresses a local finding) so the taint pass can
   audit staleness (W1). *)

type loc = { l_file : string; l_line : int; l_col : int }

let compare_loc a b =
  let c = String.compare a.l_file b.l_file in
  if c <> 0 then c
  else
    let c = Int.compare a.l_line b.l_line in
    if c <> 0 then c else Int.compare a.l_col b.l_col

type waiver = {
  w_rule : string;
  w_just : string;
  w_loc : loc;  (* location of the attribute itself, the W1 audit key *)
}

type source_kind =
  | Sk_random  (* global Random outside lib/prng          -> R1 *)
  | Sk_wallclock  (* Unix.gettimeofday / Unix.time / Sys.time -> R2 *)
  | Sk_gc  (* Gc statistics (alloc counters, heap words) -> R2 *)
  | Sk_hashtbl_order  (* unsorted Hashtbl.iter/fold        -> R3 *)
  | Sk_polycompare  (* bare polymorphic compare            -> R5 *)
  | Sk_domain_id  (* Domain.self: scheduling identity      -> T1 *)

let source_kind_name = function
  | Sk_random -> "random"
  | Sk_wallclock -> "wall-clock"
  | Sk_gc -> "gc-stats"
  | Sk_hashtbl_order -> "hashtbl-order"
  | Sk_polycompare -> "poly-compare"
  | Sk_domain_id -> "domain-identity"

(* The waiver rule that silences a given source kind. *)
let source_rule = function
  | Sk_random -> "R1"
  | Sk_wallclock | Sk_gc -> "R2"
  | Sk_hashtbl_order -> "R3"
  | Sk_polycompare -> "R5"
  | Sk_domain_id -> "T1"

type occurrence = {
  o_kind : source_kind;
  o_path : string;  (* the offending identifier, display form *)
  o_loc : loc;
  o_waiver : waiver option;
}

type order_op = Downto_loop | Hashtbl_iteration

type capture = {
  cap_name : string;  (* the escaping variable *)
  cap_ty : string;  (* its mutable head constructor, e.g. "ref" *)
  cap_entry : string;  (* the parallel entry point captured through *)
  cap_loc : loc;
  cap_waiver : waiver option;
}

type call = {
  (* Global (Pdot) callee in display form, or a bare local name plus the
     scope stack it must be resolved against. *)
  callee : string;
  local_scopes : string list option;  (* None = global *)
}

type node = {
  fn : string;  (* qualified display name *)
  mutable calls : call list;
  mutable sources : occurrence list;
  mutable float_folds : (loc * waiver option) list;
  mutable order_ops : (order_op * string * loc * waiver option) list;
  mutable captures : capture list;
  mutable fn_waiver : waiver option;
      (* function-level [@detlint.allow "T1: ..."] on the binding:
         quarantines the whole function in the taint pass *)
  mutable cohort_field : bool;
      (* bound (directly or by name pun) to a c_phase_a/c_absorb/c_msg
         record field — an R7 root even if the name is unconventional *)
}

type graph = {
  nodes : (string, node) Hashtbl.t;
  mutable local : Detlint.finding list;  (* R1-R5, R10, W0, P0 *)
  mutable waivers_seen : waiver list;  (* every well-formed waiver *)
  mutable waivers_used : loc list;  (* those that waived a local finding *)
}

(* ------------------------------------------------------------------ *)
(* Name normalization                                                  *)
(* ------------------------------------------------------------------ *)

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let has_prefix ~prefix s = Option.is_some (strip_prefix ~prefix s)

(* "Sim__Cohort" -> "Sim.Cohort"; "Dune__exe__Main" -> "Main". *)
let normalize_unit m =
  let m = match strip_prefix ~prefix:"Dune__exe__" m with Some r -> r | None -> m in
  let b = Buffer.create (String.length m) in
  let i = ref 0 in
  let len = String.length m in
  while !i < len do
    if !i + 1 < len && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b m.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* "Stdlib.Hashtbl.create" -> "Hashtbl.create"; unit mangling undone. *)
let normalize_path p =
  let p = match strip_prefix ~prefix:"Stdlib." p with Some r -> r | None -> p in
  if String.length p > 0 && p.[0] >= 'A' && p.[0] <= 'Z' then normalize_unit p
  else p

let base_name fn =
  match String.rindex_opt fn '.' with
  | Some i -> String.sub fn (i + 1) (String.length fn - i - 1)
  | None -> fn

let module_path fn =
  match String.rindex_opt fn '.' with Some i -> String.sub fn 0 i | None -> ""

(* [suffix_matches ~suffix name]: dotted-suffix match, so the fixture
   corpus's self-contained stand-ins ("Bad_r9_escape.Runner.fold") trip
   the same patterns as the real tree ("Sim.Runner.fold"). *)
let suffix_matches ~suffix name =
  name = suffix
  ||
  let ls = String.length suffix and ln = String.length name in
  ln > ls + 1
  && String.sub name (ln - ls) ls = suffix
  && name.[ln - ls - 1] = '.'

(* ------------------------------------------------------------------ *)
(* Rule tables and scopes                                              *)
(* ------------------------------------------------------------------ *)

let wallclock_fns = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let gc_fns =
  [
    "Gc.stat"; "Gc.quick_stat"; "Gc.counters"; "Gc.minor_words";
    "Gc.allocated_bytes"; "Gc.major_slice";
  ]

let hashtbl_order_fns = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let domain_id_fns = [ "Domain.self"; "Domain.is_main_domain" ]

let sort_fns =
  [
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "Array.sort"; "Array.stable_sort"; "Array.fast_sort";
  ]

let fold_fns =
  [ "List.fold_left"; "List.fold_right"; "Array.fold_left"; "Array.fold_right" ]

(* Closure literals handed to these run on other domains (R4); the
   supervised fold's chunk closures are R9's business. All are
   dotted-suffix matched. *)
let parallel_entries = [ "Domain.spawn"; "Parallel.run_workers" ]

let supervised_entries = [ "Runner.fold" ]

(* Head type constructors that make a captured variable shared mutable
   state: R9's set, and R4's, which also counts arrays and bytes
   ([Atomic.t] is the sanctioned cross-domain cell in both). *)
let r9_mutable = [ "ref"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

let r4_mutable = "array" :: "bytes" :: r9_mutable

let cohort_field_names = [ "c_phase_a"; "c_absorb"; "c_msg" ]

(* R5's syntactic "this operand is float-valued" shapes. *)
let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

let float_returning =
  [ "float_of_int"; "sqrt"; "exp"; "log"; "Float.abs"; "Float.min"; "Float.max" ]

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let in_scope_r1 file = not (has_prefix ~prefix:"lib/prng/" file)

let in_scope_r5 file =
  List.exists
    (fun prefix -> has_prefix ~prefix file)
    [ "lib/stats/"; "lib/sim/"; "lib/core/"; "lib/coinflip/" ]

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
    "lib/sim/checkpoint.ml";
    "lib/sim/runner.ml";
    "lib/core/supervise.ml";
  ]

let in_scope_r10 file =
  (not (List.mem file r10_trigger_files)) && not (has_prefix ~prefix:"test/" file)

(* "Fault.fire" / "Sim.Fault.trip" / "Core.Fault.fire": any path whose
   last two components name a fault-site trigger. *)
let is_fault_trigger p =
  suffix_matches ~suffix:"Fault.fire" p || suffix_matches ~suffix:"Fault.trip" p

let random_hint =
  "route all randomness through the seeded Prng.Rng (lib/prng); the global \
   Random breaks (seed, trial_index) reproducibility"

(* ------------------------------------------------------------------ *)
(* Compiler-libs helpers                                               *)
(* ------------------------------------------------------------------ *)

let loc_of (l : Location.t) ~file =
  {
    l_file = file;
    l_line = l.Location.loc_start.Lexing.pos_lnum;
    l_col = l.Location.loc_start.Lexing.pos_cnum - l.Location.loc_start.Lexing.pos_bol;
  }

type waiver_parse = Not_a_waiver | Malformed of string | Waiver of waiver

(* [@detlint.allow "R<n>: why"] — the only accepted form. *)
let parse_waiver ~file (attr : Parsetree.attribute) =
  if attr.Parsetree.attr_name.Location.txt <> "detlint.allow" then Not_a_waiver
  else
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                  _ );
            _;
          };
        ] -> (
        match String.index_opt s ':' with
        | None ->
            Malformed
              (Printf.sprintf "%S has no \"R<n>:\" rule tag before its \
                               justification" s)
        | Some i ->
            let rule = String.trim (String.sub s 0 i)
            and just =
              String.trim (String.sub s (i + 1) (String.length s - i - 1))
            in
            if not (List.mem rule Detlint.rule_ids) then
              Malformed
                (Printf.sprintf "unknown rule %S (expected one of %s)" rule
                   (String.concat ", " Detlint.rule_ids))
            else if just = "" then
              Malformed
                (Printf.sprintf
                   "waiver for %s is missing a justification (use \"%s: why\")"
                   rule rule)
            else
              Waiver
                {
                  w_rule = rule;
                  w_just = just;
                  w_loc = loc_of attr.Parsetree.attr_loc ~file;
                })
    | _ -> Malformed "payload must be a string literal \"R<n>: justification\""

let head_ctor_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (normalize_path (Path.name p))
  | _ -> None

(* Typedtree keeps constraints/coercions in [exp_extra], not the
   description, so no unwrapping is needed. *)
let ident_name (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (normalize_path (Path.name p))
  | _ -> None

(* Head function of a (possibly partial) application, e.g. [List.sort] in
   [List.sort cmp]. *)
let rec head_ident_name (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> head_ident_name f
  | _ -> ident_name e

let is_function (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> true
  | _ -> false

let floatish (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant (Asttypes.Const_float _) -> true
  | Typedtree.Texp_apply (f, _) -> (
      match ident_name f with
      | Some p -> List.mem p float_ops || List.mem p float_returning
      | None -> false)
  | _ -> false

let is_tuple (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with Typedtree.Texp_tuple _ -> true | _ -> false

(* Every occurrence, in source order, of a variable free in [body] whose
   type's head constructor is in [ctors]: (display name, path, head
   constructor, location). *)
let closure_captures (body : Typedtree.expression) ~ctors =
  let bound = Hashtbl.create 16 in
  let free = ref [] in
  let pat_iter : type k.
      Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (Ident.name id) ()
    | Typedtree.Tpat_alias (_, id, _) -> Hashtbl.replace bound (Ident.name id) ()
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let expr_iter sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_for (id, _, _, _, _, _) ->
        Hashtbl.replace bound (Ident.name id) ()
    | Typedtree.Texp_ident (p, _, _) -> (
        let name =
          match p with
          | Path.Pident id -> Some (Ident.name id)
          | Path.Pdot _ -> Some (normalize_path (Path.name p))
          | _ -> None
        in
        match (name, head_ctor_name e.Typedtree.exp_type) with
        | Some name, Some ctor
          when List.mem ctor ctors && not (Hashtbl.mem bound name) ->
            free := (name, p, ctor, e.Typedtree.exp_loc) :: !free
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it =
    { Tast_iterator.default_iterator with pat = pat_iter; expr = expr_iter }
  in
  it.Tast_iterator.expr it body;
  List.rev !free

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

let walk_structure graph ~unit_name ~file (str : Typedtree.structure) =
  (* Scope stack, outermost first: unit name, then enclosing module and
     function names. *)
  let scopes = ref [ unit_name ] in
  let node_of_scopes () = String.concat "." (List.rev !scopes) in
  (* Current function node facts attach to; lazily created for toplevel. *)
  let current : node option ref = ref None in
  let waiver_stack : waiver list ref = ref [] in
  let sorted_depth = ref 0 in
  (* Idents bound by structure-level [let]s: R4's module-level state. *)
  let module_level = Hashtbl.create 64 in
  let get_node name =
    match Hashtbl.find_opt graph.nodes name with
    | Some n -> n
    | None ->
        let n =
          {
            fn = name;
            calls = [];
            sources = [];
            float_folds = [];
            order_ops = [];
            captures = [];
            fn_waiver = None;
            cohort_field = false;
          }
        in
        Hashtbl.add graph.nodes name n;
        n
  in
  let fact_node () =
    match !current with
    | Some n -> n
    | None ->
        let n = get_node (unit_name ^ ".(toplevel)") in
        current := Some n;
        n
  in
  let active_waiver rules =
    List.find_opt (fun w -> List.mem w.w_rule rules) !waiver_stack
  in
  (* A local finding, waived by the innermost waiver naming its rule. *)
  let report ~rule (l : Location.t) ~message ~hint =
    let loc = loc_of l ~file in
    let severity, justification =
      match active_waiver [ rule ] with
      | Some w ->
          graph.waivers_used <- w.w_loc :: graph.waivers_used;
          (Detlint.Waived, Some w.w_just)
      | None -> (Detlint.Violation, None)
    in
    graph.local <-
      {
        Detlint.rule;
        file;
        line = loc.l_line;
        col = loc.l_col;
        message;
        hint;
        severity;
        justification;
      }
      :: graph.local
  in
  let parse_waivers ~loc attrs =
    List.filter_map
      (fun a ->
        match parse_waiver ~file a with
        | Not_a_waiver -> None
        | Malformed why ->
            report ~rule:"W0" loc
              ~message:("malformed [@detlint.allow]: " ^ why)
              ~hint:
                "write [@detlint.allow \"R<n>: one-line justification\"]; a \
                 malformed waiver suppresses nothing";
            None
        | Waiver w ->
            graph.waivers_seen <- w :: graph.waivers_seen;
            Some w)
      attrs
  in
  let push_waivers ~loc attrs k =
    let ws = parse_waivers ~loc attrs in
    let saved = !waiver_stack in
    waiver_stack := ws @ !waiver_stack;
    Fun.protect ~finally:(fun () -> waiver_stack := saved) (fun () -> k ws)
  in
  let record_ident p (l : Location.t) =
    let n = fact_node () in
    let name = normalize_path (Path.name p) in
    (* Resolve later against the enclosing scopes: bare [Pident]s only make
       sense relative to a scope, and dotted paths may name a sibling
       submodule of the same unit ("Bitwords.popcount" from inside
       "Sim.Bitkernel" when both live in one file), which the node table
       stores under its unit-qualified name. [resolve_call] tries the
       direct (cross-unit) name first, so fully-qualified callees are
       unaffected. *)
    let scope_names =
      (* ["Sim.Cohort"; "step"] -> ["Sim.Cohort"; "Sim.Cohort.step"] *)
      List.fold_left
        (fun acc s ->
          match acc with
          | [] -> [ s ]
          | prev :: _ -> (prev ^ "." ^ s) :: acc)
        []
        (List.rev !scopes)
    in
    n.calls <- { callee = name; local_scopes = Some scope_names } :: n.calls;
    (* A source occurrence, quarantined for the taint pass by a waiver
       naming its rule or T1. *)
    let source kind =
      let w = active_waiver [ source_rule kind; "T1" ] in
      n.sources <-
        { o_kind = kind; o_path = name; o_loc = loc_of l ~file; o_waiver = w }
        :: n.sources
    in
    (* ...that is also a local finding of that rule. *)
    let local_source kind ~message ~hint =
      source kind;
      report ~rule:(source_rule kind) l ~message ~hint
    in
    (match String.split_on_char '.' name with
    | "Random" :: _ :: _ when in_scope_r1 file ->
        local_source Sk_random
          ~message:(Printf.sprintf "call to global %s" name)
          ~hint:random_hint
    | _ -> ());
    if List.mem name wallclock_fns then
      local_source Sk_wallclock
        ~message:(Printf.sprintf "wall-clock/entropy source %s" name)
        ~hint:
          "experiment results must be pure functions of the seed; if this \
           is genuinely a timing measurement, waive it with \
           [@detlint.allow \"R2: why\"]";
    if List.mem name gc_fns then source Sk_gc;
    if List.mem name domain_id_fns then source Sk_domain_id;
    if name = "compare" && in_scope_r5 file then
      local_source Sk_polycompare
        ~message:"polymorphic compare in a determinism-critical library"
        ~hint:
          "use the monomorphic Float.compare / Int.compare / String.compare \
           (NaN-safe, no structural-compare surprises, faster)";
    if List.mem name hashtbl_order_fns && !sorted_depth = 0 then begin
      local_source Sk_hashtbl_order
        ~message:
          (Printf.sprintf
             "%s result escapes without a subsequent sort (iteration order \
              is unspecified)"
             name)
        ~hint:
          "pipe the result into List.sort/Array.sort, or waive with \
           [@detlint.allow \"R3: why the consumer is order-insensitive\"]";
      n.order_ops <-
        (Hashtbl_iteration, name, loc_of l ~file, active_waiver [ "R7"; "R3" ])
        :: n.order_ops
    end;
    if is_fault_trigger name && in_scope_r10 file then
      report ~rule:"R10" l
        ~message:
          (Printf.sprintf
             "fault-site trigger %s outside the injector-mediated call paths"
             name)
        ~hint:
          "Fault.fire/Fault.trip may only run inside the fault engine and \
           the supervised runner stack (lib/sim/fault.ml, checkpoint.ml, \
           runner.ml, lib/core/supervise.ml); thread a fault \
           plan through Sim.Runner.run_trials_supervised / \
           Core.Supervise.create instead of tripping sites ad hoc"
  in
  (* R5's operator shapes: [=]/[<>] with a float-valued operand, and any
     comparison on a tuple literal (e.g. [(m.prio, pid) > (bp, bpid)]). *)
  let check_comparison (f : Typedtree.expression) args =
    match (ident_name f, args) with
    | Some op, [ (_, Some l); (_, Some r) ]
      when List.mem op comparison_ops && in_scope_r5 file ->
        if (op = "=" || op = "<>") && (floatish l || floatish r) then
          report ~rule:"R5" f.Typedtree.exp_loc
            ~message:
              (Printf.sprintf "polymorphic (%s) applied to a float-valued \
                               operand" op)
            ~hint:
              "use Float.equal / Float.compare (or an epsilon test); \
               polymorphic equality at float type is NaN-hostile";
        if is_tuple l || is_tuple r then
          report ~rule:"R5" f.Typedtree.exp_loc
            ~message:
              (Printf.sprintf "polymorphic (%s) applied to a tuple literal" op)
            ~hint:
              "spell the lexicographic comparison out with Int.compare / \
               Float.compare per component; structural comparison \
               allocates and hides float/NaN hazards on hot paths"
    | _ -> ()
  in
  (* The closure literals among an application's arguments. *)
  let closure_args args =
    List.filter_map
      (fun (_, a) ->
        match a with Some ae when is_function ae -> Some ae | _ -> None)
      args
  in
  let check_parallel_entry entry args =
    if List.exists (fun s -> suffix_matches ~suffix:s entry) parallel_entries
    then
      (* R4: every use of a module-level mutable binding inside the
         closure; another module's global is module-level by definition. *)
      List.iter
        (fun ae ->
          List.iter
            (fun (name, p, _, l) ->
              let module_level_path =
                match p with
                | Path.Pident id -> Hashtbl.mem module_level (Ident.unique_name id)
                | _ -> true
              in
              if module_level_path then
                report ~rule:"R4" l
                  ~message:
                    (Printf.sprintf
                       "module-level mutable binding %S captured by a \
                        closure passed to Domain.spawn / Sim.Parallel"
                       name)
                  ~hint:
                    "pass per-chunk state through the ~create/~merge \
                     accumulator or use Atomic; unsynchronized cross-domain \
                     mutation is a data race")
            (closure_captures ae ~ctors:r4_mutable))
        (closure_args args);
    if List.exists (fun s -> suffix_matches ~suffix:s entry) supervised_entries
    then
      (* R9: one capture per escaping variable, at its first use. *)
      List.iter
        (fun ae ->
          let n = fact_node () in
          let seen = Hashtbl.create 8 in
          List.iter
            (fun (name, _, ctor, l) ->
              if not (Hashtbl.mem seen name) then begin
                Hashtbl.replace seen name ();
                n.captures <-
                  {
                    cap_name = name;
                    cap_ty = ctor;
                    cap_entry = entry;
                    cap_loc = loc_of l ~file;
                    cap_waiver = active_waiver [ "R9"; "R4" ];
                  }
                  :: n.captures
              end)
            (closure_captures ae ~ctors:r9_mutable))
        (closure_args args)
  in
  let rec expr_iter sub (e : Typedtree.expression) =
    push_waivers ~loc:e.Typedtree.exp_loc e.Typedtree.exp_attributes (fun _ ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> record_ident p e.Typedtree.exp_loc
        | Typedtree.Texp_for (_, _, lo, hi, dir, body) ->
            expr_iter sub lo;
            expr_iter sub hi;
            (match dir with
            | Asttypes.Downto ->
                let n = fact_node () in
                n.order_ops <-
                  ( Downto_loop,
                    "for ... downto",
                    loc_of e.Typedtree.exp_loc ~file,
                    active_waiver [ "R7" ] )
                  :: n.order_ops
            | Asttypes.Upto -> ());
            expr_iter sub body
        | Typedtree.Texp_let (_, vbs, body) ->
            List.iter (value_binding sub) vbs;
            expr_iter sub body
        | Typedtree.Texp_record { fields; extended_expression; _ } ->
            Option.iter (expr_iter sub) extended_expression;
            Array.iter
              (fun (ld, rd) ->
                match rd with
                | Typedtree.Kept _ -> ()
                | Typedtree.Overridden (_, fe) ->
                    let label = ld.Types.lbl_name in
                    if List.mem label cohort_field_names && is_function fe
                    then begin
                      (* An anonymous cohort-op lambda: give it its own node
                         so the R7 closure starts at the right place. *)
                      let saved = !current and saved_scopes = !scopes in
                      scopes := label :: !scopes;
                      let node = get_node (node_of_scopes ()) in
                      node.cohort_field <- true;
                      current := Some node;
                      expr_iter sub fe;
                      current := saved;
                      scopes := saved_scopes
                    end
                    else begin
                      (* A punned or named cohort field marks its function
                         binding as a cohort root during edge resolution. *)
                      (match fe.Typedtree.exp_desc with
                      | Typedtree.Texp_ident (Path.Pident _, _, _)
                        when List.mem label cohort_field_names ->
                          let n = fact_node () in
                          n.calls <-
                            { callee = "cohort-field!"; local_scopes = None }
                            :: n.calls
                      | _ -> ());
                      expr_iter sub fe
                    end)
              fields
        | Typedtree.Texp_apply (f, args) ->
            let head = head_ident_name f in
            check_comparison f args;
            (* R8: fully applied float-typed fold. *)
            (match head with
            | Some h when List.mem h fold_fns -> (
                match head_ctor_name e.Typedtree.exp_type with
                | Some "float" ->
                    let n = fact_node () in
                    n.float_folds <-
                      (loc_of e.Typedtree.exp_loc ~file, active_waiver [ "R8"; "R3" ])
                      :: n.float_folds
                | _ -> ())
            | _ -> ());
            Option.iter (fun h -> check_parallel_entry h args) head;
            (* R3's escape heuristic: a Hashtbl fold is ordered when it is
               the piped-in value of a sort, the [@@] argument of one, or a
               direct argument of one. *)
            let is_sort e =
              Option.fold ~none:false
                ~some:(fun p -> List.mem p sort_fns)
                (head_ident_name e)
            in
            let sorted k =
              incr sorted_depth;
              Fun.protect ~finally:(fun () -> decr sorted_depth) k
            in
            let visit_args () =
              List.iter (fun (_, a) -> Option.iter (expr_iter sub) a) args
            in
            expr_iter sub f;
            (match (ident_name f, args) with
            | Some "|>", [ (_, Some lhs); (_, Some rhs) ] when is_sort rhs ->
                sorted (fun () -> expr_iter sub lhs);
                expr_iter sub rhs
            | Some "@@", [ (_, Some lhs); (_, Some rhs) ] when is_sort lhs ->
                expr_iter sub lhs;
                sorted (fun () -> expr_iter sub rhs)
            | _ when is_sort f -> sorted visit_args
            | _ -> visit_args ())
        | _ -> Tast_iterator.default_iterator.expr sub e)
  and value_binding sub (vb : Typedtree.value_binding) =
    let name =
      match vb.Typedtree.vb_pat.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> Some (Ident.name id)
      | Typedtree.Tpat_alias (_, id, _) -> Some (Ident.name id)
      | _ -> None
    in
    push_waivers ~loc:vb.Typedtree.vb_loc vb.Typedtree.vb_attributes (fun ws ->
        match name with
        | Some n when is_function vb.Typedtree.vb_expr ->
            let saved = !current and saved_scopes = !scopes in
            scopes := n :: !scopes;
            let node = get_node (node_of_scopes ()) in
            (match ws with
            | w :: _ when node.fn_waiver = None -> node.fn_waiver <- Some w
            | _ -> ());
            current := Some node;
            expr_iter sub vb.Typedtree.vb_expr;
            current := saved;
            scopes := saved_scopes
        | _ -> expr_iter sub vb.Typedtree.vb_expr)
  in
  let random_module (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) ->
        normalize_path (Path.name p) = "Random" && in_scope_r1 file
    | _ -> false
  in
  let structure_item sub (item : Typedtree.structure_item) =
    let loc = item.Typedtree.str_loc in
    match item.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun id -> Hashtbl.replace module_level (Ident.unique_name id) ())
              (Typedtree.pat_bound_idents vb.Typedtree.vb_pat))
          vbs;
        List.iter (value_binding sub) vbs
    | Typedtree.Tstr_eval (e, attrs) ->
        push_waivers ~loc attrs (fun _ -> expr_iter sub e)
    | Typedtree.Tstr_open od when random_module od.Typedtree.open_expr ->
        report ~rule:"R1" loc ~message:"open of the global Random module"
          ~hint:random_hint
    | Typedtree.Tstr_module mb ->
        if random_module mb.Typedtree.mb_expr then
          report ~rule:"R1" loc ~message:"alias of the global Random module"
            ~hint:random_hint;
        let saved_scopes = !scopes
        and saved = !current
        and saved_waivers = !waiver_stack in
        (match mb.Typedtree.mb_id with
        | Some id -> scopes := Ident.name id :: !scopes
        | None -> ());
        current := None;
        Tast_iterator.default_iterator.module_binding sub mb;
        scopes := saved_scopes;
        current := saved;
        waiver_stack := saved_waivers
    | Typedtree.Tstr_attribute a ->
        (* A floating [@@@detlint.allow] covers the rest of its structure;
           the enclosing module's end (or the file's) pops it. *)
        waiver_stack := parse_waivers ~loc [ a ] @ !waiver_stack
    | _ -> Tast_iterator.default_iterator.structure_item sub item
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = expr_iter;
      value_binding;
      structure_item;
    }
  in
  it.Tast_iterator.structure it str

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let create () =
  { nodes = Hashtbl.create 512; local = []; waivers_seen = []; waivers_used = [] }

(* Walk one implementation [.cmt]; its source file (as the compiler was
   given it, e.g. "lib/sim/engine.ml"), or None when it cannot be read. *)
let load_cmt graph path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str; cmt_modname;
      cmt_sourcefile; _ } ->
      let file = Option.value cmt_sourcefile ~default:path in
      walk_structure graph ~unit_name:(normalize_unit cmt_modname) ~file str;
      Some file
  | _ -> None

(* Sorted files ending in [suffix] under [path]; [_build], [.git] and
   [lint_fixtures] (the deliberately-bad test corpus) are skipped. *)
let rec files_under ~suffix path =
  if Sys.file_exists path && Sys.is_directory path then
    if List.mem (Filename.basename path) [ "_build"; ".git"; "lint_fixtures" ]
    then []
    else
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.concat_map (fun name ->
             files_under ~suffix (Filename.concat path name))
  else if Filename.check_suffix path suffix then [ path ]
  else []

(* Lint the trees under [paths]: every [.ml] source (returned, sorted)
   must map to a readable implementation [.cmt] — dune hides those in
   .objs/.eobjs dirs, which the walk visits, and when a path holds none
   (running from the source root instead of the build dir) they are
   looked up under _build/default, so `detlint lib` works from a checkout
   too. A source without one gets a P0 instead of silently going
   unlinted. *)
let load paths =
  let g = create () in
  let sources = List.concat_map (files_under ~suffix:".ml") paths in
  let cmts =
    List.concat_map
      (fun p ->
        match files_under ~suffix:".cmt" p with
        | [] -> files_under ~suffix:".cmt" (Filename.concat "_build/default" p)
        | fs -> fs)
      paths
  in
  let typed = List.filter_map (load_cmt g) (List.sort String.compare cmts) in
  List.iter
    (fun s ->
      if
        not
          (List.exists
             (fun f -> s = f || Filename.check_suffix s ("/" ^ f))
             typed)
      then
        g.local <-
          {
            Detlint.rule = "P0";
            file = s;
            line = 1;
            col = 0;
            message = "no loadable typed tree (.cmt) for this source file";
            hint =
              "detlint reads the .cmt files dune writes; run `dune build \
               @check` first (a missing or unreadable .cmt leaves the file \
               unlinted)";
            severity = Detlint.Violation;
            justification = None;
          }
          :: g.local)
    sources;
  (sources, g)

(* ------------------------------------------------------------------ *)
(* Edge resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve a recorded call to a known node name, if any: globals match
   directly (fully-qualified cross-unit paths), then the enclosing scopes
   are tried innermost-first — this covers both bare locals and dotted
   paths into sibling submodules of the same unit, whose nodes carry the
   unit prefix the path lacks. *)
let resolve_call graph c =
  if Hashtbl.mem graph.nodes c.callee then Some c.callee
  else
    match c.local_scopes with
    | None -> None
    | Some scopes ->
        let rec try_scopes = function
          | [] -> None
          | s :: rest ->
              let cand = s ^ "." ^ c.callee in
              if Hashtbl.mem graph.nodes cand then Some cand
              else try_scopes rest
        in
        try_scopes scopes

(* Adjacency as sorted, deduplicated successor lists: deterministic BFS
   orders make chains (and therefore the ledger) byte-stable. *)
let successors graph =
  let succ = Hashtbl.create (Hashtbl.length graph.nodes) in
  Hashtbl.iter
    (fun fn node ->
      let outs =
        List.filter_map (resolve_call graph) node.calls
        |> List.filter (fun callee -> callee <> fn)
        |> List.sort_uniq String.compare
      in
      Hashtbl.replace succ fn outs)
    graph.nodes;
  succ

let node_names graph =
  Hashtbl.fold (fun fn _ acc -> fn :: acc) graph.nodes []
  |> List.sort String.compare
