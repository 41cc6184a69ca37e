type t = { tbl : (int, int) Hashtbl.t; mutable total : int }

let create () = { tbl = Hashtbl.create 64; total = 0 }

let add_many h v c =
  let cur = Option.value ~default:0 (Hashtbl.find_opt h.tbl v) in
  Hashtbl.replace h.tbl v (cur + c);
  h.total <- h.total + c

let add h v = add_many h v 1

let count h = h.total

let merge a b =
  let m = { tbl = Hashtbl.copy a.tbl; total = a.total } in
  (Hashtbl.iter (fun v c -> add_many m v c) b.tbl
  [@detlint.allow
    "R3: merge adds independent per-key counts; addition commutes, so \
     iteration order cannot affect the result (pinned by the QCheck \
     merge-commutativity/associativity property)"]);
  m

let bins h =
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) h.tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile";
  if h.total = 0 then None
  else begin
    let target = q *. float_of_int h.total in
    let rec scan acc = function
      | [] -> None
      | (v, c) :: rest ->
          let acc = acc + c in
          if float_of_int acc >= target then Some v else scan acc rest
    in
    scan 0 (bins h)
  end

let render ?(width = 40) h =
  let bs = bins h in
  let peak = List.fold_left (fun m (_, c) -> Stdlib.max m c) 1 bs in
  let line (v, c) =
    let bar = String.make (c * width / peak) '#' in
    Printf.sprintf "%6d | %-*s %d" v width bar c
  in
  String.concat "\n" (List.map line bs)
