(* Deterministic fault injection: seeded plans of (site, scope, nth-hit)
   arms and the per-fold hit-counting injector. See fault.mli. *)

type site =
  | Chunk_body
  | Checkpoint_store
  | Checkpoint_load
  | Metrics_merge
  | Event_sink
  | Manifest_write

type kind = Crash | Sys_err | Torn_write | Bit_flip

type arm = { site : site; scope : int; hit : int; kind : kind }

type plan = arm list

let run_scope = -1

let every_hit = -1

exception Injected of { site : site; scope : int; kind : kind }

(* The grammar tokens, one table per type: labels, parsing, and the
   injector's counter rows all read these. *)
let sites =
  [
    (Chunk_body, "body");
    (Checkpoint_store, "store");
    (Checkpoint_load, "load");
    (Metrics_merge, "merge");
    (Event_sink, "sink");
    (Manifest_write, "manifest");
  ]

let kinds =
  [
    (Crash, "raise");
    (Sys_err, "sys_error");
    (Torn_write, "torn");
    (Bit_flip, "bitflip");
  ]

let label table x = List.assoc x table

let of_label table s =
  List.find_map (fun (x, l) -> if l = s then Some x else None) table

let site_label = label sites

let kind_label = label kinds

(* A scope or hit count, with its wildcard value spelled [wild]. *)
let count_to_string ~wild wild_value n =
  if n = wild_value then wild else string_of_int n

let count_of_string ~wild wild_value s =
  if s = wild then Some wild_value
  else
    match int_of_string_opt s with
    | Some n when n >= 0 -> Some n
    | Some _ | None -> None

let scope_to_string = count_to_string ~wild:"run" run_scope

let describe site ~scope kind =
  Printf.sprintf "injected fault: %s@%s:%s" (site_label site)
    (scope_to_string scope) (kind_label kind)

let () =
  Printexc.register_printer (function
    | Injected { site; scope; kind } -> Some (describe site ~scope kind)
    | _ -> None)

let arm_to_string a =
  Printf.sprintf "%s@%s#%s:%s" (site_label a.site) (scope_to_string a.scope)
    (count_to_string ~wild:"*" every_hit a.hit)
    (kind_label a.kind)

let plan_to_string plan = String.concat "," (List.map arm_to_string plan)

let ( let* ) = Result.bind

(* Grammar: arm = site '@' scope '#' hit ':' kind, arms comma-joined.
   scope = int | "run"; hit = int | "*". *)
let arm_of_string s =
  let fail reason = Error (Printf.sprintf "bad fault arm %S: %s" s reason) in
  let find c from =
    match String.index_from_opt s from c with
    | Some i -> Ok i
    | None -> fail (Printf.sprintf "missing '%c' (want site@scope#hit:kind)" c)
  in
  let field what = Option.fold ~none:(fail what) ~some:Result.ok in
  let* at = find '@' 0 in
  let* hash = find '#' at in
  let* colon = find ':' hash in
  let sub i j = String.sub s i (j - i) in
  let site_s = sub 0 at and scope_s = sub (at + 1) hash in
  let hit_s = sub (hash + 1) colon in
  let kind_s = sub (colon + 1) (String.length s) in
  let* site =
    field (Printf.sprintf "unknown site %S" site_s) (of_label sites site_s)
  in
  let* kind =
    field (Printf.sprintf "unknown kind %S" kind_s) (of_label kinds kind_s)
  in
  let* scope =
    field
      (Printf.sprintf "bad scope %S (int >= 0 or \"run\")" scope_s)
      (count_of_string ~wild:"run" run_scope scope_s)
  in
  let* hit =
    field
      (Printf.sprintf "bad hit %S (int >= 0 or \"*\")" hit_s)
      (count_of_string ~wild:"*" every_hit hit_s)
  in
  Ok { site; scope; hit; kind }

let plan_of_string s =
  let s = String.trim s in
  if s = "" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc part ->
           let* arms = acc in
           let* a = arm_of_string (String.trim part) in
           Ok (a :: arms))
         (Ok [])
    |> Result.map List.rev

(* A survivable plan: one arm per selected chunk, every hit index
   reachable on the first pass, so a retry budget of 1 always recovers.
   Deterministic in [seed]. *)
let random_plan ~seed ~n ~chunk_size =
  if n < 1 then invalid_arg "Fault.random_plan: n";
  if chunk_size < 1 then invalid_arg "Fault.random_plan: chunk_size";
  let rng = Prng.Rng.create seed in
  let nchunks = (n + chunk_size - 1) / chunk_size in
  let arms = Stdlib.min nchunks (Prng.Rng.int_in rng 3 5) in
  let chunks = Prng.Sample.choose_k rng nchunks arms in
  Array.sort Int.compare chunks;
  Array.to_list chunks
  |> List.map (fun c ->
         (* Trials actually in chunk [c]: the last chunk may be short. *)
         let body_hits = Stdlib.min chunk_size (n - (c * chunk_size)) in
         match Prng.Rng.int rng 4 with
         | 0 ->
             let kind = if Prng.Rng.bool rng then Crash else Sys_err in
             { site = Chunk_body; scope = c; hit = Prng.Rng.int rng body_hits;
               kind }
         | 1 ->
             let kind = fst (List.nth kinds (Prng.Rng.int rng 4)) in
             { site = Checkpoint_store; scope = c; hit = 0; kind }
         | 2 ->
             (* Hit 0 of the load site is the saved-consult of the first
                attempt, which always happens. Corruption kinds are no-ops
                when no file exists yet, so keep loads raising. *)
             let kind = if Prng.Rng.bool rng then Crash else Sys_err in
             { site = Checkpoint_load; scope = c; hit = 0; kind }
         | _ ->
             (* First event of the chunk; inert when capture is off. *)
             let kind = if Prng.Rng.bool rng then Crash else Sys_err in
             { site = Event_sink; scope = c; hit = 0; kind })

(* The injector: one counter row per site, one slot per chunk plus a
   trailing slot for [run_scope]. A chunk-scoped slot is only ever
   touched by the worker that claimed that chunk, and the run-scoped
   slot only by the merging (calling) domain, so no synchronization is
   needed and fault placement cannot depend on scheduling. *)

let nsites = List.length sites

let site_index site =
  Option.get (List.find_index (fun (s, _) -> s = site) sites)

type injector = { plan : plan; nchunks : int; hits : int array array }

let injector ?(nchunks = 0) plan =
  if nchunks < 0 then invalid_arg "Fault.injector: nchunks";
  { plan; nchunks; hits = Array.init nsites (fun _ -> Array.make (nchunks + 1) 0) }

let fire inj site ~scope =
  match inj with
  | None -> None
  | Some t ->
      let slot = if scope = run_scope then t.nchunks else scope in
      if slot < 0 || slot > t.nchunks then None
      else begin
        let row = t.hits.(site_index site) in
        let h = row.(slot) in
        row.(slot) <- h + 1;
        List.find_map
          (fun a ->
            if
              a.site = site && a.scope = scope
              && (a.hit = every_hit || a.hit = h)
            then Some a.kind
            else None)
          t.plan
      end

let trip inj site ~scope =
  match fire inj site ~scope with
  | None -> ()
  | Some Sys_err -> raise (Sys_error (describe site ~scope Sys_err))
  | Some ((Crash | Torn_write | Bit_flip) as kind) ->
      raise (Injected { site; scope; kind })
