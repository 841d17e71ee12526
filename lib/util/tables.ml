type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Tables.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let looks_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e') s

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row)
    all;
  let pad i cell =
    let w = widths.(i) in
    let l = String.length cell in
    if l >= w then cell
    else if looks_numeric cell then String.make (w - l) ' ' ^ cell
    else cell ^ String.make (w - l) ' '
  in
  let line row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let sep =
    "|" ^ String.concat "|" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (line t.columns ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (line row ^ "\n")) rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
