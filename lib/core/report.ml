type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
  mutable notes : string list;
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }
let add_row t row = t.rows <- row :: t.rows
let add_note t note = t.notes <- note :: t.notes

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols =
    List.fold_left (fun acc row -> max acc (List.length row)) 0 all
  in
  let width i =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row i with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad cell w = cell ^ String.make (max 0 (w - String.length cell)) ' ' in
  let line row =
    "| "
    ^ String.concat " | "
        (List.mapi (fun i w -> pad (Option.value (List.nth_opt row i) ~default:"") w) widths)
    ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  Buffer.add_string buf (line t.columns ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.add_string buf (sep ^ "\n");
  List.iter
    (fun note -> Buffer.add_string buf ("  note: " ^ note ^ "\n"))
    (List.rev t.notes);
  Buffer.contents buf

let print t = print_string (render t)
let cell_bool b = if b then "yes" else "no"
let cell_member b = if b then "in" else "NOT in"
