type msg = Sim.Protocol.word

type state = {
  rounds_total : int;
  default : int;
  has_zero : bool;
  has_one : bool;
  rounds_done : int;
  decision : int option;
}

let msg_has_one (m : msg) = m.regs land 2 <> 0

(* Registers: has_zero = bit 0, has_one = bit 1 — the value word is the
   whole per-process state. FloodSet draws no coins. *)
let bo_pack s = Bool.to_int s.has_zero lor (Bool.to_int s.has_one lsl 1)

let bo_unpack t regs =
  { t with has_zero = regs land 1 = 1; has_one = regs land 2 = 2 }

let bo_uniform a b =
  a.rounds_total = b.rounds_total && a.default = b.default
  && a.rounds_done = b.rounds_done
  && Option.equal Int.equal a.decision b.decision

let codec =
  {
    Sim.Protocol.bo_width = 2;
    bo_pack;
    bo_unpack;
    bo_uniform;
    bo_coin_reg = None;
    bo_aux_bound = None;
  }

let state_hash s =
  let b2i b = if b then 1 else 0 in
  (((s.rounds_done * 4) + (b2i s.has_zero * 2) + b2i s.has_one) * 31)
  + (match s.decision with None -> 3 | Some v -> v)

(* The flooded union: a process's own word is among the tallied ones (own
   message always delivered), so the union — and hence the final decision
   — is the same for every receiver. *)
let transition s ~round:_ ~nrecv:_ ~(tallies : Sim.Protocol.tallies) =
  let z = tallies.counts.(0) > 0 and o = tallies.counts.(1) > 0 in
  let ws_regs = [| Sim.Protocol.Fill z; Fill o |] in
  let rounds_done = s.rounds_done + 1 in
  if rounds_done < s.rounds_total then
    {
      Sim.Protocol.ws_state = { s with rounds_done };
      ws_regs;
      ws_decide = None;
      ws_halt = false;
    }
  else
    let v =
      match (z, o) with
      | true, false -> 0
      | false, true -> 1
      | true, true -> s.default
      | false, false ->
          (* Unreachable: a process always sees its own input. *)
          assert false
    in
    {
      Sim.Protocol.ws_state = { s with rounds_done; decision = Some v };
      ws_regs;
      ws_decide = Some (Decide_const v);
      ws_halt = true;
    }

let protocol ~rounds ?(default = 0) () =
  if rounds < 1 then invalid_arg "Floodset.protocol: rounds must be >= 1";
  if default <> 0 && default <> 1 then invalid_arg "Floodset.protocol: default";
  Sim.Protocol.registers
    ~name:(Printf.sprintf "floodset[r=%d]" rounds)
    ~init:(fun ~n:_ ~input ->
      {
        rounds_total = rounds;
        default;
        has_zero = input = 0;
        has_one = input = 1;
        rounds_done = 0;
        decision = None;
      })
    ~decision:(fun s -> s.decision)
    ~halted:(fun s -> Option.is_some s.decision)
    ~hash:state_hash ~transition codec
