type stage = Probabilistic | Switching | Deterministic of { left : int }

type coin = Local_flip | Leader_priority | Shared_oracle of int

type msg = Sim.Protocol.word

type state = {
  rules : Onesided.rules;
  coin_mode : coin;

  threshold : float;
  det_rounds : int;
  b : int;
  coin : int;
  decided_flag : bool;
  output : int option;
  halted : bool;
  stage : stage;
  (* Value set W for the deterministic stage. *)
  has_zero : bool;
  has_one : bool;
  (* Receive-count history: N^(r-1), N^(r-2), N^(r-3), seeded with n
     (the paper's N^-1 = N^0 = n convention). All three registers are
     load-bearing: the stopping rule must bound the kills of the three
     rounds r-2, r-1, r, which requires comparing N^r against N^(r-3).
     See the stability check in [transition]. *)
  n1 : int;
  n2 : int;
  n3 : int;
}

let switch_threshold ~n =
  if n < 1 then invalid_arg "Synran.switch_threshold";
  if n = 1 then 1.0 else sqrt (float_of_int n /. log (float_of_int n))

let det_stage_rounds ~n =
  Stdlib.max 1 (int_of_float (Float.ceil (switch_threshold ~n)))

let bit_of_msg (m : msg) = m.regs land 1

let msg_is_one m = bit_of_msg m = 1

let stage_name s =
  match s.stage with
  | Probabilistic -> "probabilistic"
  | Switching -> "switching"
  | Deterministic _ -> "deterministic"

let current_b s = s.b

let decided_flag s = s.decided_flag

(* End of the deterministic stage: the surviving-value rule of Lemma 4.3 —
   the unique value if one survived, otherwise the default 0. *)
let det_decision ~has_zero ~has_one =
  match (has_zero, has_one) with
  | false, true -> 1
  | true, false | true, true -> 0
  | false, false -> assert false (* own value is always in W *)

(* The shared-oracle coin of the weakened-adversary models ([Rab83]-style
   trusted dealer): all processes derive the same round-r bit from a seed
   the adversary is assumed unable to read. This models the paper's remark
   that O(1)-round protocols exist under "reasonable bounds on the power of
   the adversary" — here, denying it the coin before the kills. *)
let oracle_bit ~seed ~round =
  Int64.to_int
    (Prng.Splitmix64.mix (Int64.of_int ((seed * 1_000_003) + round)))
  land 1

(* Register layout: bit 0 = b, bit 1 = coin, bit 2 = has_zero, bit 3 =
   has_one; everything else is template-uniform across active processes.
   Three invariants carry the transition:
   - an active process's [output] is [None] or [Some b] — output is only
     assigned at the two halt points, each time from b — so [bo_unpack]
     rebuilds the value from the b register and the template's is-Some;
   - b = v implies v ∈ W (W starts as {b}, and b only ever takes a value
     that the same round puts in W), so the W tallies already count
     every sender's b;
   - own messages are always delivered, so a process's own has_zero /
     has_one is subsumed by the round's sender tallies and the merged
     value set of Lemma 4.3 is the same for every receiver — which is
     what makes the Switching/Deterministic transitions uniform [Fill]s. *)

let bo_pack s =
  s.b lor (s.coin lsl 1)
  lor ((if s.has_zero then 1 else 0) lsl 2)
  lor ((if s.has_one then 1 else 0) lsl 3)

let bo_unpack t regs =
  let b = regs land 1 in
  {
    t with
    b;
    coin = (regs lsr 1) land 1;
    has_zero = (regs lsr 2) land 1 = 1;
    has_one = (regs lsr 3) land 1 = 1;
    output = (match t.output with None -> None | Some _ -> Some b);
  }

(* Non-register fields only; [output] compares by is-Some because its
   value is register-derived (always the owner's b). *)
let bo_uniform s1 s2 =
  Bool.equal s1.decided_flag s2.decided_flag
  && Bool.equal (Option.is_some s1.output) (Option.is_some s2.output)
  && Bool.equal s1.halted s2.halted
  && (match (s1.stage, s2.stage) with
     | Probabilistic, Probabilistic | Switching, Switching -> true
     | Deterministic { left = l1 }, Deterministic { left = l2 } -> l1 = l2
     | (Probabilistic | Switching | Deterministic _), _ -> false)
  && s1.n1 = s2.n1 && s1.n2 = s2.n2 && s1.n3 = s2.n3
  && s1.rules == s2.rules
  && (match (s1.coin_mode, s2.coin_mode) with
     | Local_flip, Local_flip | Leader_priority, Leader_priority -> true
     | Shared_oracle a, Shared_oracle b -> a = b
     | (Local_flip | Leader_priority | Shared_oracle _), _ -> false)
  && Float.equal s1.threshold s2.threshold
  && s1.det_rounds = s2.det_rounds

let state_hash s =
  let b2i x = if x then 1 else 0 in
  let stage_tag =
    match s.stage with
    | Probabilistic -> 0
    | Switching -> 1
    | Deterministic { left } -> 2 + left
  in
  let out = match s.output with None -> -1 | Some v -> v in
  let h = s.b in
  let h = (h * 31) + s.coin in
  let h = (h * 31) + b2i s.decided_flag in
  let h = (h * 31) + stage_tag in
  let h = (h * 31) + (b2i s.has_zero * 2) + b2i s.has_one in
  let h = (h * 31) + s.n1 in
  let h = (h * 31) + s.n2 in
  let h = (h * 31) + s.n3 in
  (h * 31) + out

let next ws_state ws_regs =
  { Sim.Protocol.ws_state; ws_regs; ws_decide = None; ws_halt = false }

let keep = [| Sim.Protocol.Keep; Keep; Keep; Keep |]

(* b := v and W := {v}, indexed by v. *)
let set_b =
  [|
    [| Sim.Protocol.Fill false; Keep; Fill true; Fill false |];
    [| Sim.Protocol.Fill true; Keep; Fill false; Fill true |];
  |]

(* b := coin and W := {coin}. *)
let b_of_coin = [| Sim.Protocol.Copy 1; Keep; Not 1; Copy 1 |]

(* The round, for every receiver that heard [nrecv] messages with these
   tallies: counts.(0) is O, and counts.(2)/(3) say whether 0/1 is in the
   union of the senders' W — the merged value set of Lemma 4.3, since the
   receiver's own message is among them. *)
let transition s ~round ~nrecv ~(tallies : Sim.Protocol.tallies) =
  let counts = tallies.counts in
  let hz = counts.(2) > 0 and ho = counts.(3) > 0 in
  match s.stage with
  | Switching ->
      next { s with stage = Deterministic { left = s.det_rounds } }
        [| Keep; Keep; Fill hz; Fill ho |]
  | Deterministic { left } ->
      let left = left - 1 in
      if left > 0 then
        next
          { s with stage = Deterministic { left } }
          [| Keep; Keep; Fill hz; Fill ho |]
      else
        (* The surviving-value rule of Lemma 4.3. *)
        let v = det_decision ~has_zero:hz ~has_one:ho in
        {
          Sim.Protocol.ws_state =
            {
              s with
              stage = Deterministic { left };
              output = Some 0 (* value rebuilt from b by bo_unpack *);
              halted = true;
            };
          ws_regs = [| Fill (v = 1); Keep; Fill hz; Fill ho |];
          ws_decide = Some (Decide_const v);
          ws_halt = true;
        }
  | Probabilistic ->
      if float_of_int nrecv < s.threshold then
        (* Too few survivors: freeze b, run the one-round delay, then flood. *)
        next { s with stage = Switching; n1 = nrecv; n2 = s.n1; n3 = s.n2 } keep
      else if s.decided_flag && 10 * (s.n3 - nrecv) <= s.n2 then
        (* Stable population for three rounds: stop, outputting b.
           The window deliberately reaches back to N^(r-3): it bounds the kills
           of rounds r-2..r by N^(r-2)/10, which is exactly the slack between
           the decide threshold (7/10) and the propose threshold (6/10). If p
           decided b=1 at round r-1 it saw ones > 0.7*N^(r-2); any survivor q
           saw ones_q >= ones_p - k_{r-1} over N_q <= N^(r-2) + k_{r-2}
           processes, so k_{r-1} + 0.6*k_{r-2} <= 0.1*N^(r-2) guarantees q at
           least proposed 1 before p stops — agreement with probability 1.
           A shorter window over only N^(r-2), N^(r-1) bounds k_{r-1} alone and
           is unsound: under the band voting attack at n=192 it yields real
           agreement violations (see the trial-30 regression in test_synran). *)
        {
          Sim.Protocol.ws_state =
            {
              s with
              output = Some 0 (* value rebuilt from b by bo_unpack *);
              halted = true;
              n1 = nrecv;
              n2 = s.n1;
              n3 = s.n2;
            };
          ws_regs = keep;
          ws_decide = Some (Decide_reg 0);
          ws_halt = true;
        }
      else
        let ones = counts.(0) in
        (* Shift the receive-count history; b and W come from [ws_regs]. *)
        let shift decided_flag ws_regs =
          next { s with decided_flag; n1 = nrecv; n2 = s.n1; n3 = s.n2 } ws_regs
        in
        let set v decided_flag = shift decided_flag set_b.(v) in
        match
          Onesided.classify s.rules ~ones ~zeros:(nrecv - ones) ~n_prev:s.n1
        with
        | Onesided.Decide v -> set v true
        | Onesided.Propose v -> set v false
        | Onesided.Flip -> (
            match s.coin_mode with
            | Local_flip -> shift false b_of_coin
            | Leader_priority -> set (Lazy.force tallies.leader land 1) false
            | Shared_oracle seed -> set (oracle_bit ~seed ~round) false)

let codec =
  {
    Sim.Protocol.bo_width = 4;
    bo_pack;
    bo_unpack;
    bo_uniform;
    (* Phase A pre-draws this round's potential flip and leader priority:
       the adversary legitimately sees every coin before choosing kills
       (full-information model). *)
    bo_coin_reg = Some 1;
    bo_aux_bound = Some 1_000_000_000;
  }

let protocol ?(rules = Onesided.paper) ?(coin = Local_flip) n =
  Onesided.validate rules;
  if n < 1 then invalid_arg "Synran.protocol";
  let threshold = switch_threshold ~n in
  let det_rounds = det_stage_rounds ~n in
  let init ~n:n' ~input =
    if n' <> n then invalid_arg "Synran.protocol: built for a different n";
    {
      rules;
      coin_mode = coin;
      threshold;
      det_rounds;
      b = input;
      coin = 0;
      decided_flag = false;
      output = None;
      halted = false;
      stage = Probabilistic;
      has_zero = input = 0;
      has_one = input = 1;
      n1 = n;
      n2 = n;
      n3 = n;
    }
  in
  Sim.Protocol.registers
    ~name:
      (Printf.sprintf "synran[%s%s,n=%d]" rules.Onesided.label
         (match coin with
         | Local_flip -> ""
         | Leader_priority -> ",leader"
         | Shared_oracle _ -> ",oracle")
         n)
    ~init
    ~decision:(fun s -> s.output)
    ~halted:(fun s -> s.halted)
    ~hash:state_hash ~transition codec
