(* BAD (R9): a counter defined outside the trial closure handed to
   Runner.fold, bumped from inside it. Every model's trials run through
   that fold's chunks, so the escape is the same as one across
   fold_chunks_supervised — and only the Runner.fold entry catches it. *)

module Runner = struct
  let fold ~trials run_one =
    let acc = ref 0 in
    for index = 0 to trials - 1 do
      acc := acc.contents + run_one ~index
    done;
    acc.contents
end

let seen = ref 0

let run () =
  Runner.fold ~trials:10 (fun ~index ->
      seen := seen.contents + 1;
      index)

let _ = run
