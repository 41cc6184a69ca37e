(* GOOD: chunk-local state only — the ref is created inside the closure
   and its value flows into the chunk accumulator, so nothing escapes the
   chunk boundary. *)

module Runner = struct
  let fold ~trials ~create ~merge run_one =
    let acc = create () in
    for index = 0 to trials - 1 do
      run_one ~index acc
    done;
    merge acc (create ())
end

let run () =
  Runner.fold ~trials:10
    ~create:(fun () -> [| 0 |])
    ~merge:(fun a b ->
      a.(0) <- a.(0) + b.(0);
      a)
    (fun ~index acc ->
      let local = ref 0 in
      local := local.contents + index;
      acc.(0) <- acc.(0) + local.contents)

let _ = run
