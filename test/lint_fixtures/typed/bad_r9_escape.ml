(* BAD (R9): a mutable ref defined outside the trial closure handed to
   Runner.fold, mutated from inside it instead of through the chunk
   accumulator. State escaping the supervised chunk boundary makes a
   resumed run diverge from an uninterrupted one. *)

module Runner = struct
  let fold ~trials ~create ~merge run_one =
    let acc = create () in
    for index = 0 to trials - 1 do
      run_one ~index acc
    done;
    merge acc (create ())
end

let total = ref 0

let run () =
  Runner.fold ~trials:10
    ~create:(fun () -> [||])
    ~merge:(fun a _ -> a)
    (fun ~index _ -> total := total.contents + index)

let _ = run
