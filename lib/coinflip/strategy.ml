type t = {
  name : string;
  act : Game.cursor -> budget:int -> target:int -> int list;
}

let do_nothing =
  { name = "do-nothing"; act = (fun _ ~budget:_ ~target:_ -> []) }

let visible c =
  List.init (Game.game c).Game.n Fun.id
  |> List.filter (fun i -> not (Game.is_hidden c i))

(* Strategies hide on the cursor as they search and unhide before
   returning: [hidden] is most recent first. *)
let restore c hidden =
  List.iter (Game.unhide c) hidden;
  List.rev hidden

let greedy =
  let act c ~budget ~target =
    let n = (Game.game c).Game.n in
    let rec first ok i =
      if i >= n then None
      else if (not (Game.is_hidden c i)) && ok (Game.outcome_if_hidden c i)
      then Some i
      else first ok (i + 1)
    in
    let rec loop remaining hidden =
      let current = Game.outcome c in
      if remaining = 0 || current = target then hidden
      else
        (* Prefer a single hide that reaches the target outright; otherwise
           take any hide that changes the outcome (progress in a 2-outcome
           game, exploration in a k-outcome one). *)
        let pick =
          match first (Int.equal target) 0 with
          | Some _ as reaches -> reaches
          | None -> first (fun v -> v <> current) 0
        in
        match pick with
        | None -> hidden
        | Some i ->
            Game.hide c i;
            loop (remaining - 1) (i :: hidden)
    in
    restore c (loop budget [])
  in
  { name = "greedy"; act }

let exhaustive ?(subset_limit = 2_000_000) () =
  let act c ~budget ~target =
    let players = Array.of_list (visible c) in
    let m = Array.length players in
    let explored = ref 0 and found = ref None in
    let going () = Option.is_none !found && !explored < subset_limit in
    (* DFS over the hide-sets of exactly [size] visible players,
       lexicographic; every leaf is one evaluated subset. *)
    let rec search start chosen size =
      if size = 0 then begin
        incr explored;
        if Game.outcome c = target then found := Some (List.rev chosen)
      end
      else begin
        let i = ref start in
        while going () && !i <= m - size do
          let p = players.(!i) in
          Game.hide c p;
          search (!i + 1) (p :: chosen) (size - 1);
          Game.unhide c p;
          incr i
        done
      end
    in
    let size = ref 0 in
    while going () && !size <= Stdlib.min budget m do
      search 0 [] !size;
      incr size
    done;
    Option.value ~default:[] !found
  in
  { name = "exhaustive"; act }

let toward_value =
  let act c ~budget ~target =
    let value = Game.value c in
    let foreign = List.filter (fun i -> value i <> target) (visible c) in
    (* Most common foreign value first: on a majority game this strips the
       opposing block fastest. *)
    let freq = Hashtbl.create 8 in
    let weight v = Option.value ~default:0 (Hashtbl.find_opt freq v) in
    List.iter (fun i -> Hashtbl.replace freq (value i) (1 + weight (value i))) foreign;
    let order =
      List.sort
        (fun i j ->
          let cmp = Int.compare (weight (value j)) (weight (value i)) in
          if cmp <> 0 then cmp else Int.compare i j)
        foreign
    in
    let rec loop remaining hidden = function
      | i :: rest when remaining > 0 && Game.outcome c <> target ->
          Game.hide c i;
          loop (remaining - 1) (i :: hidden) rest
      | _ -> hidden
    in
    restore c (loop budget [] order)
  in
  { name = "toward-value"; act }

let first_success strategies =
  let act c ~budget ~target =
    let forces s =
      let hidden = s.act c ~budget ~target in
      if List.length hidden <= budget && Game.outcome_with c ~hidden = target
      then Some hidden
      else None
    in
    Option.value ~default:[] (List.find_map forces strategies)
  in
  {
    name =
      Printf.sprintf "first-of[%s]"
        (String.concat "," (List.map (fun s -> s.name) strategies));
    act;
  }

let forced_outcome g values ~strategy ~budget ~target =
  let c = Game.cursor g values in
  let hidden = strategy.act c ~budget ~target in
  if List.length hidden > budget then
    invalid_arg (strategy.name ^ ": strategy exceeded its budget");
  if List.length (List.sort_uniq Int.compare hidden) <> List.length hidden then
    invalid_arg (strategy.name ^ ": strategy hid a player twice");
  Game.outcome_with c ~hidden

let best_available = first_success [ greedy; toward_value ]
