type t = {
  name : string;
  act : Game.t -> int array -> budget:int -> target:int -> int list;
}

let do_nothing = { name = "do-nothing"; act = (fun _ _ ~budget:_ ~target:_ -> []) }

let greedy =
  let act g values ~budget ~target =
    let n = g.Game.n in
    let masked = Array.map Option.some values in
    let hidden = ref [] in
    let eval () = g.Game.eval masked in
    let try_hide i =
      let saved = masked.(i) in
      masked.(i) <- None;
      let v = eval () in
      masked.(i) <- saved;
      v
    in
    let rec loop remaining =
      if remaining = 0 || eval () = target then ()
      else begin
        (* Prefer a single hide that reaches the target outright; otherwise
           take any hide that changes the outcome (progress in a 2-outcome
           game, exploration in a k-outcome one). *)
        let current = eval () in
        let candidates =
          List.filter (fun i -> masked.(i) <> None) (List.init n Fun.id)
        in
        let reaches = List.find_opt (fun i -> try_hide i = target) candidates in
        let changes =
          match reaches with
          | Some _ -> reaches
          | None -> List.find_opt (fun i -> try_hide i <> current) candidates
        in
        match changes with
        | None -> ()
        | Some i ->
            masked.(i) <- None;
            hidden := i :: !hidden;
            loop (remaining - 1)
      end
    in
    loop budget;
    List.rev !hidden
  in
  { name = "greedy"; act }

let exhaustive ?(subset_limit = 2_000_000) () =
  let act g values ~budget ~target =
    let n = g.Game.n in
    let explored = ref 0 in
    (* DFS over subsets of size exactly [size], lexicographic. *)
    let masked = Array.map Option.some values in
    let found = ref None in
    let rec search start chosen size =
      if !found <> None || !explored > subset_limit then ()
      else if size = 0 then begin
        incr explored;
        if g.Game.eval masked = target then found := Some (List.rev chosen)
      end
      else
        for i = start to n - size do
          if !found = None && !explored <= subset_limit then begin
            masked.(i) <- None;
            search (i + 1) (i :: chosen) (size - 1);
            masked.(i) <- Some values.(i)
          end
        done
    in
    let rec by_size size =
      if size > budget || !found <> None then ()
      else begin
        search 0 [] size;
        by_size (size + 1)
      end
    in
    by_size 0;
    Option.value ~default:[] !found
  in
  { name = "exhaustive"; act }

let toward_value =
  let act g values ~budget ~target =
    let n = g.Game.n in
    let masked = Array.map Option.some values in
    let hidden = ref [] in
    let remaining = ref budget in
    (* Most common foreign value first: on a majority game this strips the
       opposing block fastest. *)
    let freq = Hashtbl.create 8 in
    Array.iter
      (fun v ->
        if v <> target then
          Hashtbl.replace freq v (1 + Option.value ~default:0 (Hashtbl.find_opt freq v)))
      values;
    let order =
      List.init n Fun.id
      |> List.filter (fun i -> values.(i) <> target)
      |> List.sort (fun i j ->
             let w i = Option.value ~default:0 (Hashtbl.find_opt freq values.(i)) in
             let c = Int.compare (w j) (w i) in
             if c <> 0 then c else Int.compare i j)
    in
    let rec loop = function
      | [] -> ()
      | _ when !remaining = 0 -> ()
      | _ when g.Game.eval masked = target -> ()
      | i :: rest ->
          masked.(i) <- None;
          hidden := i :: !hidden;
          decr remaining;
          loop rest
    in
    loop order;
    List.rev !hidden
  in
  { name = "toward-value"; act }

let hide_and_eval g values hidden =
  let masked = Array.map Option.some values in
  List.iter (fun i -> masked.(i) <- None) hidden;
  g.Game.eval masked

let first_success strategies =
  let act g values ~budget ~target =
    let try_one s =
      let hidden = s.act g values ~budget ~target in
      if
        List.length hidden <= budget
        && hide_and_eval g values hidden = target
      then Some hidden
      else None
    in
    match List.find_map try_one strategies with
    | Some hidden -> hidden
    | None -> []
  in
  {
    name =
      Printf.sprintf "first-of[%s]"
        (String.concat "," (List.map (fun s -> s.name) strategies));
    act;
  }

let forced_outcome g values ~strategy ~budget ~target =
  let hidden = strategy.act g values ~budget ~target in
  if List.length hidden > budget then
    invalid_arg (strategy.name ^ ": strategy exceeded its budget");
  if List.length (List.sort_uniq Int.compare hidden) <> List.length hidden then
    invalid_arg (strategy.name ^ ": strategy hid a player twice");
  Game.eval_with_hidden g values ~hidden

let best_available = first_success [ greedy; toward_value ]
