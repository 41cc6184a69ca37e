(* BAD (T1 only): scheduling identity inside a protected sink path.
   [Domain.self] is no local rule's business — it is legal anywhere that
   does not feed a table — so only the taint pass can flag it here, where
   [Runner.run_trials] would make its result depend on which domain ran
   the chunk. *)

module Runner = struct
  let worker () = (Domain.self () :> int)

  let run_trials n = n + worker ()
end

let _ = Runner.run_trials 3
