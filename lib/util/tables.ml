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

(* Display width in UTF-8 code points: every byte but a continuation byte
   (10xxxxxx) starts one, so a "§" or "Θ" cell pads as one column. *)
let width s = String.fold_left (fun n c -> if Char.code c land 0xC0 <> 0x80 then n + 1 else n) 0 s

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i c -> widths.(i) <- max widths.(i) (width c)) row)
    all;
  let pad i cell =
    let w = widths.(i) in
    let l = width cell in
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
