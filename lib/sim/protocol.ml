type 'state subclass = {
  sub_state : 'state;
  sub_members : int array;
  sub_priv : int array;
}

type ('state, 'msg, 'acc) cohort = {
  c_equal : 'state -> 'state -> bool;
  c_hash : 'state -> int;
  c_phase_a :
    'state -> members:int array -> bank:Prng.Rng.Bank.t -> 'state subclass list;
  c_absorb : 'acc -> 'state subclass -> except:(int -> bool) option -> 'acc;
  c_msg : 'state subclass -> int -> 'msg;
}

type ('state, 'msg) aggregate =
  | Aggregate : {
      init : unit -> 'acc;
      absorb : 'acc -> pid:int -> 'msg -> 'acc;
      finish : 'state -> round:int -> 'acc -> 'state;
      cohort : ('state, 'msg, 'acc) cohort option;
    }
      -> ('state, 'msg) aggregate

type reg_src = Keep | Fill of bool | Copy of int | Not of int
type decide_src = Decide_const of int | Decide_reg of int

type 'state word_step = {
  ws_state : 'state;
  ws_regs : reg_src array;
  ws_decide : decide_src option;
  ws_halt : bool;
}

type word = { regs : int; priv : int }

type tallies = { counts : int array; leader : int Lazy.t }

type 'state codec = {
  bo_width : int;
  bo_pack : 'state -> int;
  bo_unpack : 'state -> int -> 'state;
  bo_uniform : 'state -> 'state -> bool;
  bo_coin_reg : int option;
  bo_aux_bound : int option;
}

type 'state transition =
  'state -> round:int -> nrecv:int -> tallies:tallies -> 'state word_step

type ('state, 'msg) bitops = {
  bo_codec : 'state codec;
  bo_init : n:int -> input:int -> 'state;
  bo_step : 'state transition;
  bo_word : ('msg, word) Type.eq;
}

type ('state, 'msg) t = {
  name : string;
  init : n:int -> pid:int -> input:int -> 'state;
  phase_a : 'state -> Prng.Rng.t -> 'state * 'msg;
  phase_b : 'state -> round:int -> received:(int * 'msg) array -> 'state;
  decision : 'state -> int option;
  halted : 'state -> bool;
  aggregate : ('state, 'msg) aggregate option;
  bitops : ('state, 'msg) bitops option;
}

(* The bitops stay: they still prove the message a register word, which
   the adversary view's register reads need, and without the aggregate
   the protocol is off Bitkernel anyway. *)
let legacy p = { p with aggregate = None }

let cohort_capable p =
  match p.aggregate with
  | Some (Aggregate { cohort = Some _; _ }) -> true
  | Some (Aggregate { cohort = None; _ }) | None -> false

let bitkernel_capable p =
  (* Bitkernel needs the aggregate too: kill rounds fall back to the
     engine's shared-aggregate delivery, never the legacy exchange. *)
  Option.is_some p.bitops && Option.is_some p.aggregate

(* [registers] caps the width at 4, so the 16 register words with no
   priv tell every register reader apart. *)
let register_of is_one =
  let reads r =
    List.for_all
      (fun regs -> is_one { regs; priv = 0 } = ((regs lsr r) land 1 = 1))
      (List.init 16 Fun.id)
  in
  match List.filter reads [ 0; 1; 2; 3 ] with
  | [ r ] -> r
  | _ -> invalid_arg "Protocol.register_of: not a one-register reader"

(* Deriving phase_b from the aggregate makes the two delivery paths agree
   by construction: the legacy path folds [absorb] over the received array
   in ascending-sender order and hands the result to [finish], which is
   exactly what the engine's fast path computes incrementally. *)
let phase_b_of_aggregate (Aggregate a) =
  fun s ~round ~received ->
    let acc = ref (a.init ()) in
    Array.iter (fun (pid, m) -> acc := a.absorb !acc ~pid m) received;
    a.finish s ~round !acc

let with_aggregate ~name ~init ~phase_a ~decision ~halted aggregate =
  {
    name;
    init;
    phase_a;
    phase_b = phase_b_of_aggregate aggregate;
    decision;
    halted;
    aggregate = Some aggregate;
    bitops = None;
  }

(* --- Register protocols ---------------------------------------------- *)

(* A register protocol's aggregate: the tallies as a commutative fold. The
   leader is the max-(priv, pid) sender, unique because pids are distinct,
   so absorption order cannot matter. The counts are fields, not an array:
   absorb runs once per delivered message, and copying an array per call
   costs about three times the rest of it. *)
type 'state tally = {
  nrecv : int;
  c0 : int;
  c1 : int;
  c2 : int;
  c3 : int;
  lead_pid : int;
  lead : word;
  mutable step : ('state * int * 'state word_step) option;
      (* The last step [finish] computed from this tally, with its template
         and round. Every receiver of a no-kill round shares one tally, so
         a uniform population runs the transition once per round, as the
         packed kernel does. *)
}

let max_width = 4

(* Fold [count] senders whose messages all carry [m]'s registers in, with
   (m.priv, pid) as their leader candidate. *)
let add_senders a ~count ~pid m =
  let r = m.regs in
  let leads =
    m.priv > a.lead.priv || (m.priv = a.lead.priv && pid > a.lead_pid)
  in
  {
    nrecv = a.nrecv + count;
    c0 = a.c0 + (count * (r land 1));
    c1 = a.c1 + (count * ((r lsr 1) land 1));
    c2 = a.c2 + (count * ((r lsr 2) land 1));
    c3 = a.c3 + (count * ((r lsr 3) land 1));
    lead_pid = (if leads then pid else a.lead_pid);
    lead = (if leads then m else a.lead);
    step = None;
  }

(* One process's registers after [ws_regs]: a simultaneous update, every
   source reads the pre-transition [regs]. *)
let apply_regs ws_regs regs =
  let out = ref 0 in
  for r = 0 to Array.length ws_regs - 1 do
    let bit =
      match ws_regs.(r) with
      | Keep -> (regs lsr r) land 1
      | Fill b -> Bool.to_int b
      | Copy i -> (regs lsr i) land 1
      | Not i -> 1 - ((regs lsr i) land 1)
    in
    out := !out lor (bit lsl r)
  done;
  !out

let registers ~name ~init ~decision ~halted ~hash ~transition codec =
  let { bo_width = width; bo_pack = pack; bo_unpack = unpack; bo_coin_reg; _ } =
    codec
  in
  if width < 1 || width > max_width then
    invalid_arg "Protocol.registers: bo_width out of [1, 4]";
  (match bo_coin_reg with
  | Some r when r < 0 || r >= width ->
      invalid_arg "Protocol.registers: bo_coin_reg out of range"
  | Some _ | None -> ());
  (match codec.bo_aux_bound with
  | Some b when b < 1 -> invalid_arg "Protocol.registers: bo_aux_bound < 1"
  | Some _ | None -> ());
  let with_coin regs coin =
    match bo_coin_reg with
    | None -> regs
    | Some r ->
        if coin = 1 then regs lor (1 lsl r) else regs land lnot (1 lsl r)
  in
  let draw_coin rng =
    match bo_coin_reg with None -> 0 | Some _ -> Prng.Rng.bit rng
  in
  let draw_aux rng =
    match codec.bo_aux_bound with None -> 0 | Some b -> Prng.Rng.int rng b
  in
  (* The coin bit first, then the aux draw: the order the kernel's
     word-level Phase A ([Prng.Rng.Bank.draw_word]) keeps on every stream. *)
  let phase_a s rng =
    match bo_coin_reg with
    | None -> (s, { regs = pack s; priv = draw_aux rng })
    | Some _ ->
        let regs = with_coin (pack s) (draw_coin rng) in
        (unpack s regs, { regs; priv = draw_aux rng })
  in
  (* [finish] is the transition over a population of one: the process's
     own registers are the planes, and its state a template for every
     uniform receiver of the same tally. *)
  let finish s ~round a =
    let ws =
      match a.step with
      | Some (t, r, ws) when r = round && codec.bo_uniform t s -> ws
      | Some _ | None ->
          let counts = [| a.c0; a.c1; a.c2; a.c3 |] in
          let counts =
            if width = max_width then counts else Array.sub counts 0 width
          in
          let ws =
            transition s ~round ~nrecv:a.nrecv
              ~tallies:{ counts; leader = Lazy.from_val a.lead.regs }
          in
          a.step <- Some (s, round, ws);
          ws
    in
    unpack ws.ws_state (apply_regs ws.ws_regs (pack s))
  in
  (* A class splits by coin into at most two subclasses (coin 0 first);
     priv payloads stay per member. With neither coin nor aux draw the
     class passes through whole, at O(1). *)
  let c_phase_a s ~members ~bank =
    if Option.is_none bo_coin_reg && Option.is_none codec.bo_aux_bound then
      [ { sub_state = s; sub_members = members; sub_priv = [||] } ]
    else begin
      let k = Array.length members in
      let coins = Array.make k 0 and privs = Array.make k 0 in
      for i = 0 to k - 1 do
        let rng = Prng.Rng.Bank.load bank members.(i) in
        coins.(i) <- draw_coin rng;
        privs.(i) <- draw_aux rng;
        Prng.Rng.Bank.store bank members.(i)
      done;
      let subclass coin =
        let size =
          Array.fold_left (fun c x -> if x = coin then c + 1 else c) 0 coins
        in
        if size = 0 then []
        else begin
          let ms = Array.make size 0 and pv = Array.make size 0 and j = ref 0 in
          for i = 0 to k - 1 do
            if coins.(i) = coin then begin
              ms.(!j) <- members.(i);
              pv.(!j) <- privs.(i);
              incr j
            end
          done;
          let sub_state =
            match bo_coin_reg with
            | None -> s
            | Some _ -> unpack s (with_coin (pack s) coin)
          in
          [ { sub_state; sub_members = ms; sub_priv = pv } ]
        end
      in
      subclass 0 @ subclass 1
    end
  in
  let priv_at sub i =
    if Array.length sub.sub_priv = 0 then 0 else sub.sub_priv.(i)
  in
  let c_msg sub i = { regs = pack sub.sub_state; priv = priv_at sub i } in
  (* Every survivor of a subclass carries the same registers, so the counts
     grow by one multiple; only the leader needs the per-member priv. *)
  let c_absorb acc sub ~except =
    let ms = sub.sub_members in
    let count, best =
      match except with
      | None when Array.length sub.sub_priv = 0 ->
          (Array.length ms, Array.length ms - 1)
      | _ ->
          let priv = priv_at sub in
          let count = ref 0 and best = ref (-1) in
          for i = 0 to Array.length ms - 1 do
            match except with
            | Some dead when dead ms.(i) -> ()
            | Some _ | None ->
                incr count;
                (* Members ascend, so a priv tie goes to the larger pid. *)
                if !best < 0 || priv i >= priv !best then best := i
          done;
          (!count, !best)
    in
    if count = 0 then acc
    else add_senders acc ~count ~pid:ms.(best) (c_msg sub best)
  in
  let absorb acc ~pid m = add_senders acc ~count:1 ~pid m in
  let c_equal a b = codec.bo_uniform a b && pack a = pack b in
  let aggregate =
    Aggregate
      {
        init =
          (fun () ->
            {
              nrecv = 0;
              c0 = 0;
              c1 = 0;
              c2 = 0;
              c3 = 0;
              lead_pid = -1;
              lead = { regs = 0; priv = min_int };
              step = None;
            });
        absorb;
        finish;
        cohort = Some { c_equal; c_hash = hash; c_phase_a; c_absorb; c_msg };
      }
  in
  let pid_init ~n ~pid:_ ~input = init ~n ~input in
  {
    (with_aggregate ~name ~init:pid_init ~phase_a ~decision ~halted aggregate)
    with
    bitops =
      Some
        { bo_codec = codec; bo_init = init; bo_step = transition; bo_word = Type.Equal };
  }
