(* The population-compressed engine: processes are grouped into equivalence
   classes of identical state, rounds advance whole classes at once, and
   per-round work scales with the number of distinct states plus the
   processes the adversary individuates — not with n. Delivery is
   class-level and lives here; the round rules (start-up checks, kill
   validation, the decision discipline, kills and events, the outcome) are
   [Round]'s one copy, shared with Engine. Every observable (outcomes,
   traces, events, RNG consumption) is byte-identical to [Engine]; the
   cohort.differential suite pins this. *)

type 'state cls = {
  cls_state : 'state;
  cls_members : int array;  (* ascending *)
}

type ('state, 'msg) exec = {
  protocol : ('state, 'msg) Protocol.t;
  (* Per-process scalars: O(n) memory, but touched only on decision, halt
     and kill — never scanned on the per-round hot path. *)
  lg : 'msg Round.ledger;
  mutable classes : 'state cls list;  (* sorted by least member *)
  mutable active : int;  (* alive and not halted *)
}

type ('state, 'msg) cohort_class = {
  cc_state : 'state;
  cc_size : int;
  cc_members : int array;  (* ascending; read-only *)
  cc_msg : int -> 'msg;
}

type ('state, 'msg) cview = {
  cv_round : int;
  cv_n : int;
  cv_budget_left : int;
  cv_classes : ('state, 'msg) cohort_class list;  (* sorted by least member *)
  cv_active : int -> bool;
}

type ('state, 'msg) adversary =
  | Concrete of ('state, 'msg) Adversary.t
  | Aware of {
      aname : string;
      aplan : ('state, 'msg) cview -> Prng.Rng.t -> Adversary.kill list;
    }

(* Merge candidate (state, members) groups into classes: groups with equal
   state coalesce, members stay ascending, classes sort by least member.
   The Hashtbl is bucket storage only — its iteration order never escapes
   unsorted. *)
let merge_classes ~equal ~hash groups =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (st, ms) ->
      if Array.length ms > 0 then begin
        let h = hash st in
        let bucket =
          match Hashtbl.find_opt tbl h with
          | Some b -> b
          | None ->
              let b = ref [] in
              Hashtbl.add tbl h b;
              b
        in
        match List.find_opt (fun (st', _) -> equal st' st) !bucket with
        | Some (_, parts) -> parts := ms :: !parts
        | None -> bucket := (st, ref [ ms ]) :: !bucket
      end)
    groups;
  Hashtbl.fold
    (fun _h bucket acc ->
      List.fold_left
        (fun acc (st, parts) ->
          let members = Array.concat !parts in
          (* Each part is ascending and parts are pairwise disjoint, so
             when the concatenation is already ascending — the common
             single-part case of a class passing through a round unsplit —
             sorting would be the identity and we skip it. *)
          let len = Array.length members in
          let rec ascending i =
            i >= len || (members.(i - 1) < members.(i) && ascending (i + 1))
          in
          if not (ascending 1) then Array.sort Int.compare members;
          { cls_state = st; cls_members = members } :: acc)
        acc !bucket)
    tbl []
  |> List.sort (fun a b -> Int.compare a.cls_members.(0) b.cls_members.(0))

let start ?observer ?sink protocol ~inputs ~t ~rng =
  if not (Protocol.cohort_capable protocol) then
    invalid_arg
      (Printf.sprintf "Cohort.start: protocol %s declares no cohort ops"
         protocol.Protocol.name);
  let lg =
    Round.ledger ~who:"Cohort.start" ?observer ?sink ~inputs ~t rng
  in
  let classes =
    match protocol.Protocol.aggregate with
    | Some (Protocol.Aggregate { cohort = Some c; _ }) ->
        let groups =
          Array.to_list
            (Array.mapi
               (fun pid input ->
                 (protocol.Protocol.init ~n:lg.n ~pid ~input, [| pid |]))
               inputs)
        in
        merge_classes ~equal:c.Protocol.c_equal ~hash:c.Protocol.c_hash groups
    | Some (Protocol.Aggregate { cohort = None; _ }) | None -> assert false
  in
  { protocol; lg; classes; active = lg.n }

(* Binary search for [pid] in an ascending member array. *)
let mem_index ms pid =
  let lo = ref 0 and hi = ref (Array.length ms - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = ms.(mid) in
    if v = pid then found := mid
    else if v < pid then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let step e adversary =
  if e.active = 0 then `Quiescent
  else
    match e.protocol.Protocol.aggregate with
    | Some (Protocol.Aggregate ({ cohort = Some co; _ } as a)) ->
        let lg = e.lg in
        let round = lg.round + 1 in
        let active_before = e.active in
        (* Phase A: split each class by this round's coin draws. Per-member
           draw order within a class is ascending, and each process's
           private stream sees exactly the draws the scalar phase_a makes,
           so cross-engine RNG consumption is identical. *)
        let subs =
          e.classes
          |> List.concat_map (fun cl ->
                 co.Protocol.c_phase_a cl.cls_state ~members:cl.cls_members
                   ~bank:lg.bank)
          |> Array.of_list
        in
        let nsubs = Array.length subs in
        (* Locate an active pid's (subclass, index); O(#subs * log n). *)
        let find_member pid =
          let rec go si =
            if si >= nsubs then None
            else
              let k = mem_index subs.(si).Protocol.sub_members pid in
              if k >= 0 then Some (si, k) else go (si + 1)
          in
          go 0
        in
        let kills =
          match adversary with
          | Aware { aplan; _ } ->
              let cv_classes =
                Array.to_list subs
                |> List.map (fun s ->
                       {
                         cc_state = s.Protocol.sub_state;
                         cc_size = Array.length s.Protocol.sub_members;
                         cc_members = s.Protocol.sub_members;
                         cc_msg = (fun k -> co.Protocol.c_msg s k);
                       })
                |> List.sort (fun c1 c2 ->
                       Int.compare c1.cc_members.(0) c2.cc_members.(0))
              in
              aplan
                {
                  cv_round = round;
                  cv_n = lg.n;
                  cv_budget_left = Round.budget_left lg;
                  cv_classes;
                  cv_active = (fun i -> Round.active_at lg i);
                }
                lg.adv_rng
          | Concrete adv ->
              (* Compatibility view for concrete adversaries: exact but
                 per-pid lookups cost O(#subs * log n) each, so this path
                 is for differentials and small n, not the large-n runs.
                 The staged messages are rebuilt by the round's first
                 population read, if any, and read as Engine reads its
                 own. *)
              let pending =
                lazy
                  (Array.init lg.n (fun i ->
                       Option.map
                         (fun (si, k) -> co.Protocol.c_msg subs.(si) k)
                         (find_member i)))
              in
              let bitops = e.protocol.Protocol.bitops in
              adv.Adversary.plan
                (Round.view ~round
                   (Round.viewer lg
                      ~count:(fun s ->
                        Round.count_staged bitops (Lazy.force pending) s)
                      ~iter_senders:(fun s f ->
                        Round.iter_staged_senders bitops (Lazy.force pending) s f)
                      ~priv:(fun i ->
                        Round.priv_staged bitops (Lazy.force pending) i)))
                lg.adv_rng
        in
        let nkills = Round.validate_kills lg kills in
        let is_killed = Round.is_victim lg in
        let except = if nkills = 0 then None else Some is_killed in
        (* Base accumulator: every surviving sender, absorbed class-wise.
           Absorb order differs from the concrete engine's ascending-pid
           fold, which is sound because absorb is commutative as values
           (Protocol contract, pinned by the absorb-commutes property). *)
        let base =
          Array.fold_left
            (fun acc s -> co.Protocol.c_absorb acc s ~except)
            (a.init ()) subs
        in
        let nsurvivors = active_before - nkills in
        (* Receivers owed extra deliveries: victim lists per receiver, with
           duplicate recipients inside one victim's deliver_to collapsed
           (the concrete engine's delivery index does the same). *)
        let extras = Hashtbl.create 8 in
        List.iter
          (fun { Adversary.victim; deliver_to } ->
            List.iter
              (fun r ->
                if Round.active_at lg r && not (is_killed r) then
                  match Hashtbl.find_opt extras r with
                  | Some (v :: _) when v = victim -> ()
                  | Some vs -> Hashtbl.replace extras r (victim :: vs)
                  | None -> Hashtbl.add extras r [ victim ])
              deliver_to)
          kills;
        let emit_on = Obs.Sink.enabled lg.sink in
        let delivered = ref (nsurvivors * (active_before - nkills)) in
        let newly_decided = ref 0 in
        let newly_halted = ref 0 in
        let deciders = ref [] in
        let committed = ref [] in
        (* Class-uniform Phase-B commit: one decision-discipline check per
           group, per-member writes only on decide/halt. Decision events
           wait for the end of the round, to go out in pid order. *)
        let commit_group ~members state' =
          let j0 = members.(0) in
          let after = e.protocol.Protocol.decision state' in
          if Round.commit_decision lg ~round ~emit:false j0 after then begin
            Array.iter
              (fun j -> ignore (Round.commit_decision lg ~round ~emit:false j after))
              members;
            newly_decided := !newly_decided + Array.length members;
            if emit_on then deciders := members :: !deciders
          end;
          if e.protocol.Protocol.halted state' then begin
            if Option.is_none after then Round.halted_undecided j0;
            newly_halted := !newly_halted + Array.length members;
            Array.iter (fun j -> lg.halted.(j) <- true) members
          end
          else committed := (state', members) :: !committed
        in
        (* Receivers with extras, grouped by (subclass, victim set): every
           receiver in a group sees the same accumulator, so finish runs
           once per group. Both folds land in a sort, keeping the Hashtbl's
           iteration order out of every observable. *)
        let group_tbl = Hashtbl.create 8 in
        (Hashtbl.fold (fun r vs acc -> (r, vs) :: acc) extras []
        |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
        |> List.iter (fun (r, vs) ->
               match find_member r with
               | None -> assert false
               | Some (si, _) -> (
                   let key = (si, vs) in
                   match Hashtbl.find_opt group_tbl key with
                   | Some members -> members := r :: !members
                   | None -> Hashtbl.add group_tbl key (ref [ r ]))));
        let extra_groups =
          Hashtbl.fold
            (fun (si, vs) members acc ->
              (si, vs, Array.of_list (List.rev !members)) :: acc)
            group_tbl []
          |> List.sort (fun (_, _, m1) (_, _, m2) -> Int.compare m1.(0) m2.(0))
        in
        List.iter
          (fun (si, vs, members) ->
            let acc =
              List.fold_left
                (fun acc v ->
                  match find_member v with
                  | None -> assert false
                  | Some (vsi, vk) ->
                      a.absorb acc ~pid:v (co.Protocol.c_msg subs.(vsi) vk))
                base vs
            in
            delivered := !delivered + (List.length vs * Array.length members);
            commit_group ~members
              (a.finish subs.(si).Protocol.sub_state ~round acc))
          extra_groups;
        (* Everyone else sees the plain base accumulator: per subclass, the
           members that are neither killed nor owed extras. *)
        Array.iter
          (fun s ->
            let ms = s.Protocol.sub_members in
            let members =
              if nkills = 0 then ms
              else begin
                let keep = ref 0 in
                Array.iter
                  (fun pid ->
                    if not (is_killed pid || Hashtbl.mem extras pid) then incr keep)
                  ms;
                let out = Array.make !keep 0 in
                let j = ref 0 in
                Array.iter
                  (fun pid ->
                    if not (is_killed pid || Hashtbl.mem extras pid) then begin
                      out.(!j) <- pid;
                      incr j
                    end)
                  ms;
                out
              end
            in
            if Array.length members > 0 then
              commit_group ~members (a.finish s.Protocol.sub_state ~round base))
          subs;
        (* Same per-round event order as the concrete engine: Decisions
           ascending by pid, Kills in plan order, one Round. *)
        if emit_on then
          Array.concat !deciders |> Array.to_list |> List.sort Int.compare
          |> List.iter (fun pid ->
                 Round.emit_decision lg ~round pid (Option.get lg.decisions.(pid)));
        Round.apply_kills lg ~round kills;
        e.active <- active_before - nkills - !newly_halted;
        e.classes <-
          merge_classes ~equal:co.Protocol.c_equal ~hash:co.Protocol.c_hash
            !committed;
        if emit_on then
          Round.emit_round lg ~round kills ~active:active_before
            ~delivered:!delivered ~newly_decided:!newly_decided
            ~newly_halted:!newly_halted
            ~ones:
              (match lg.observer with
              | None -> None
              | Some f ->
                  let c = ref 0 in
                  Array.iter
                    (fun s ->
                      for k = 0 to Array.length s.Protocol.sub_members - 1 do
                        if f (co.Protocol.c_msg s k) then incr c
                      done)
                    subs;
                  Some !c);
        `Continue
    | Some (Protocol.Aggregate { cohort = None; _ }) | None ->
        (* [start] refuses such protocols. *)
        assert false

let run_until e adversary ~max_rounds =
  let rec loop () =
    if e.lg.round >= max_rounds then ()
    else match step e adversary with `Quiescent -> () | `Continue -> loop ()
  in
  loop ()

let outcome e = Round.outcome e.lg ~quiescent:(e.active = 0)

let run ?observer ?sink ?(max_rounds = 10_000) protocol adversary ~inputs ~t
    ~rng =
  let e = start ?observer ?sink protocol ~inputs ~t ~rng in
  run_until e adversary ~max_rounds;
  Round.final_outcome e.lg ~quiescent:(e.active = 0)

let round (e : _ exec) = e.lg.round

let active_count (e : _ exec) = e.active

let classes (e : _ exec) =
  List.map (fun cl -> (cl.cls_state, Array.copy cl.cls_members)) e.classes
