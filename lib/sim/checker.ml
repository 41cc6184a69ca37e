type verdict = {
  agreement : bool;
  validity : bool;
  termination : bool;
  errors : string list;
}

let ok v = v.agreement && v.validity && v.termination

type mask = Every | Except of bool array

let covers mask i =
  match mask with Every -> true | Except marked -> not marked.(i)

let judge ~inputs decisions ~judged ~must_decide ~rounds =
  let n = Array.length inputs in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let agreement = ref true and validity = ref true and termination = ref true in
  (* [first] is the first judged decider, [k] the first judged process:
     validity binds only when every judged input equals [k]'s. *)
  let first = ref (-1) and k = ref (-1) and unanimous = ref true in
  for i = 0 to n - 1 do
    if covers judged i then begin
      if !k < 0 then k := i
      else if inputs.(i) <> inputs.(!k) then unanimous := false;
      match decisions.(i) with
      | Some _ when !first < 0 -> first := i
      | Some v ->
          let v' = Option.get decisions.(!first) in
          if v <> v' then begin
            agreement := false;
            err "agreement: process %d decided %d but process %d decided %d"
              !first v' i v
          end
      | None -> ()
    end
  done;
  for i = 0 to n - 1 do
    match decisions.(i) with
    | Some d when !unanimous && covers judged i && d <> inputs.(!k) ->
        validity := false;
        err "validity: unanimous input %d but process %d decided %d" inputs.(!k)
          i d
    | Some _ | None -> ()
  done;
  for i = 0 to n - 1 do
    if covers must_decide i && Option.is_none decisions.(i) then begin
      termination := false;
      err "termination: non-faulty process %d never decided (after %d rounds)" i
        rounds
    end
  done;
  {
    agreement = !agreement;
    validity = !validity;
    termination = !termination;
    errors = List.rev !errors;
  }

let check ~inputs (o : Engine.outcome) =
  judge ~inputs o.decisions ~judged:Every ~must_decide:(Except o.faulty)
    ~rounds:o.rounds_executed

let assert_ok ~inputs o =
  let v = check ~inputs o in
  if not (ok v) then failwith (String.concat "; " v.errors)
