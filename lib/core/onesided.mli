(** The one-side-biased voting rule at the heart of SynRan (Section 4).

    After a round of bit exchange, a process holding [ones] 1-votes and
    [zeros] 0-votes out of [n_prev] (the previous round's message count)
    takes one of three actions: decide a value, propose a value, or flip a
    local coin. The asymmetry — "if you saw {e no} zeros, propose 1"
    combined with an off-center coin-flip band — is what denies the
    fail-stop adversary the cheap "hide the ones, missing counts as zero"
    bias of plain majority voting (Section 2.1's one-side-bias games).

    All comparisons are exact integer arithmetic on tenths, mirroring the
    paper's fractions. *)

type action =
  | Decide of int  (** Set b and the decided flag. *)
  | Propose of int  (** Set b deterministically. *)
  | Flip  (** Set b by an unbiased local coin. *)

type rules = {
  label : string;
  zero_rule : bool;  (** The [Z = 0 => propose 1] clause. *)
  decide_hi : int;  (** Decide 1 when 10*O > decide_hi * N'. Paper: 7. *)
  propose_hi : int;  (** Propose 1 when 10*O > propose_hi * N'. Paper: 6. *)
  decide_lo : int;  (** Decide 0 when 10*O < decide_lo * N'. Paper: 4. *)
  propose_lo : int;  (** Propose 0 when 10*O < propose_lo * N'. Paper: 5. *)
}

val paper : rules
(** The rules exactly as printed in SynRan: 7/6/-/4/5 with the zero rule. *)

val no_zero_rule : rules
(** Paper thresholds, zero rule ablated (experiment E8). *)

val symmetric : rules
(** A symmetric-band comparator: flip zone [4/10, 6/10] centred on 1/2, no
    zero rule — the "plain Ben-Or coin" whose flip zone traps the unbiased
    binomial drift (E8 shows it stalls even without an adversary). *)

val validate : rules -> unit
(** Checks the threshold ordering a sound rule set needs
    (decide_lo < propose_lo <= propose_hi < decide_hi). *)

val classify : rules -> ones:int -> zeros:int -> n_prev:int -> action
(** The decision ladder. [ones] + [zeros] is this round's receive count;
    [n_prev] is the previous round's. *)

val apply : rules -> ones:int -> zeros:int -> n_prev:int -> Prng.Rng.t ->
  int * bool
(** [apply] runs {!classify} and resolves [Flip] with the given stream;
    returns (new value of b, decided flag).
    Kept for tests: the scalar one-process reading of the ladder, checked to
    flip a fair coin and never decide on [Flip]. *)
