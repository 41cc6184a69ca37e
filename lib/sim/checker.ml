type verdict = {
  agreement : bool;
  validity : bool;
  termination : bool;
  errors : string list;
}

let ok v = v.agreement && v.validity && v.termination

let check ?(strict = true) ~inputs (o : Engine.outcome) =
  let n = Array.length inputs in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Agreement. *)
  let considered i = if strict then true else not o.faulty.(i) in
  let first_decision = ref None in
  let agreement = ref true in
  for i = 0 to n - 1 do
    match o.decisions.(i) with
    | Some v when considered i -> (
        match !first_decision with
        | None -> first_decision := Some (i, v)
        | Some (j, v') ->
            if v <> v' then begin
              agreement := false;
              err "agreement: process %d decided %d but process %d decided %d" j
                v' i v
            end)
    | Some _ | None -> ()
  done;
  (* Validity. *)
  let validity = ref true in
  let unanimous =
    let v0 = inputs.(0) in
    if Array.for_all (fun x -> x = v0) inputs then Some v0 else None
  in
  (match unanimous with
  | None -> ()
  | Some v ->
      Array.iteri
        (fun i d ->
          match d with
          | Some d when d <> v ->
              validity := false;
              err "validity: unanimous input %d but process %d decided %d" v i d
          | Some _ | None -> ())
        o.decisions);
  (* Termination: every non-faulty process decided. *)
  let termination = ref true in
  for i = 0 to n - 1 do
    if (not o.faulty.(i)) && Option.is_none o.decisions.(i) then begin
      termination := false;
      err "termination: non-faulty process %d never decided (after %d rounds)" i
        o.rounds_executed
    end
  done;
  {
    agreement = !agreement;
    validity = !validity;
    termination = !termination;
    errors = List.rev !errors;
  }

let assert_ok ?strict ~inputs o =
  let v = check ?strict ~inputs o in
  if not (ok v) then failwith (String.concat "; " v.errors)
