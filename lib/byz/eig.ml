(* A label [q1; ...; qk] of distinct pids is the base-n integer with q1 as
   its most significant digit, so ascending codes are lexicographic label
   order and the child [label @ [q]] is [code * n + q]. Each tree level is
   one flat byte string indexed by code, holding the node's value (a
   signed byte) or [absent]: a byte a node keeps the n^(t+1)-slot leaf
   level an eighth of an int array's size. *)

let absent = -1

type msg = { level : int; values : Bytes.t }
(** Level snapshot: the value of every label of length [level]. *)

type state = {
  n : int;
  t : int;
  levels : Bytes.t array;
      (** [levels.(k)] for k = 0..t+1; level 0 is [| input |]. Filled in
          place as rounds complete and shared by a process's successive
          states, and by the messages that snapshot a completed level. *)
  rounds_done : int;
  decision : int option;
}

let tree_size s =
  let size = ref 0 in
  for k = 1 to Array.length s.levels - 1 do
    for code = 0 to Bytes.length s.levels.(k) - 1 do
      if Bytes.get_int8 s.levels.(k) code <> absent then incr size
    done
  done;
  !size

(* Whether pid [q] is one of the [digits] base-n digits of [code]. *)
let rec label_mem ~n code ~digits q =
  digits > 0 && (code mod n = q || label_mem ~n (code / n) ~digits:(digits - 1) q)

let protocol ~t =
  let init ~n ~pid:_ ~input =
    if t < 0 then invalid_arg "Eig.protocol: negative t";
    if n <= 3 * t then invalid_arg "Eig.protocol: needs n > 3t";
    let leaves = ref 1 in
    for _ = 0 to t do
      if !leaves > Sys.max_array_length / n then
        invalid_arg "Eig.protocol: n^(t+1) labels do not fit an array";
      leaves := !leaves * n
    done;
    let levels = Array.make (t + 2) Bytes.empty in
    levels.(0) <- Bytes.make 1 (Char.chr input);
    { n; t; levels; rounds_done = 0; decision = None }
  in
  let phase_a s _rng =
    let level = s.rounds_done in
    (s, { level; values = s.levels.(level) })
  in
  let phase_b s ~round:_ ~received =
    let level = s.rounds_done in
    let n = s.n in
    (* Install level+1 nodes: src's relay of each level-[level] label. *)
    if level <= s.t then begin
      let next = Bytes.make (n * Bytes.length s.levels.(level)) '\255' in
      Array.iter
        (fun (src, m) ->
          if m.level = level then
            for code = 0 to Bytes.length m.values - 1 do
              let v = Bytes.get_int8 m.values code in
              if (v = 0 || v = 1) && not (label_mem ~n code ~digits:level src)
              then Bytes.set_int8 next ((code * n) + src) v
            done)
        received;
      s.levels.(level + 1) <- next
    end;
    let rounds_done = s.rounds_done + 1 in
    let decision =
      if rounds_done < s.t + 1 then None
      else begin
        (* Bottom-up strict-majority resolution; absent nodes and ties
           default to 0. [used] marks the pids on the current label. *)
        let used = Array.make n false in
        let rec resolve depth code =
          if depth = s.t + 1 then begin
            let v = Bytes.get_int8 s.levels.(depth) code in
            if v = absent then 0 else v
          end
          else begin
            let ones = ref 0 and zeros = ref 0 in
            for q = 0 to n - 1 do
              if not used.(q) then begin
                used.(q) <- true;
                if resolve (depth + 1) ((code * n) + q) = 1 then incr ones
                else incr zeros;
                used.(q) <- false
              end
            done;
            if !ones > !zeros then 1 else 0
          end
        in
        Some (resolve 0 0)
      end
    in
    { s with rounds_done; decision }
  in
  {
    Protocol.name = Printf.sprintf "eig[t=%d]" t;
    init;
    phase_a;
    phase_b;
    decision = (fun s -> s.decision);
    halted = (fun s -> Option.is_some s.decision);
  }

let liar () =
  {
    Adversary.name = "eig-liar[1.00]";
    act =
      (fun view _rng ->
        let new_corruptions =
          if view.Adversary.round = 1 then begin
            let want = Stdlib.min view.Adversary.t view.Adversary.budget_left in
            List.init view.Adversary.n Fun.id
            |> List.filter (fun i -> not view.Adversary.corrupted.(i))
            |> List.filteri (fun i _ -> i < want)
          end
          else []
        in
        {
          Adversary.new_corruptions;
          behaviour =
            (fun ~src ~dst ->
              match view.Adversary.pending.(src) with
              | Some m when dst land 1 = 1 ->
                  Adversary.Forge
                    {
                      m with
                      values =
                        Bytes.map
                          (function
                            | '\000' -> '\001' | '\001' -> '\000' | c -> c)
                          m.values;
                    }
              | Some _ | None -> Adversary.Honest);
        });
  }
