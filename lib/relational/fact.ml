type t = { rel : string; args : Value.t array }

let make rel args =
  if args = [] then invalid_arg "Fact.make: nullary facts are not supported";
  { rel; args = Array.of_list args }

let make_array rel args =
  if Array.length args = 0 then
    invalid_arg "Fact.make_array: nullary facts are not supported";
  { rel; args = Array.copy args }

let rel f = f.rel
let args f = Array.to_list f.args
let arity f = Array.length f.args
let arg f i = f.args.(i)

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    let c = Stdlib.compare la lb in
    if c <> 0 then c
    else
      let rec go i =
        if i = la then 0
        else
          let c = Value.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = compare a b = 0
let hash f = Hashtbl.hash (f.rel, Array.map Value.hash f.args)

let adom f =
  Array.fold_left (fun acc v -> Value.Set.add v acc) Value.Set.empty f.args

let map_values g f = { f with args = Array.map g f.args }
let is_invented f = Array.exists Value.is_invented f.args

let to_string f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat "," (Array.to_list (Array.map Value.to_string f.args)))

let pp ppf f = Format.pp_print_string ppf (to_string f)

let of_string s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> invalid_arg ("Fact.of_string: missing '(' in " ^ s)
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      invalid_arg ("Fact.of_string: missing ')' in " ^ s);
    let rel = String.trim (String.sub s 0 i) in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    if String.exists (fun c -> c = '(' || c = ')') inner then
      invalid_arg ("Fact.of_string: parenthesis inside an argument in " ^ s);
    let parts = String.split_on_char ',' inner in
    let vals = List.map (fun p -> Value.of_string (String.trim p)) parts in
    if rel = "" || List.exists (fun v -> Value.to_string v = "") vals then
      invalid_arg ("Fact.of_string: bad fact " ^ s);
    make rel vals

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
