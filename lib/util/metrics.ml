(* Histograms keep every sample, in a growable float array. A summary
   sorts a copy and folds it in sorted order through Stats.summarize, so
   the exported figures are a pure function of the sample multiset. *)

type samples = { mutable data : float array; mutable len : int }

type entry = Counter of int ref | Histogram of samples

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 32 }

let clear t = Hashtbl.reset t.entries

let counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter c) -> c
  | Some (Histogram _) -> invalid_arg (Printf.sprintf "Metrics: %s is a histogram" name)
  | None ->
      let c = ref 0 in
      Hashtbl.replace t.entries name (Counter c);
      c

let histogram t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Histogram s) -> s
  | Some (Counter _) -> invalid_arg (Printf.sprintf "Metrics: %s is a counter" name)
  | None ->
      let s = { data = [||]; len = 0 } in
      Hashtbl.replace t.entries name (Histogram s);
      s

let push s v =
  if s.len = Array.length s.data then begin
    let data = Array.make (max 16 (2 * s.len)) 0.0 in
    Array.blit s.data 0 data 0 s.len;
    s.data <- data
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let incr t ?(by = 1) name =
  let c = counter t name in
  c := !c + by

(* A NaN has no place in the sorted order the summaries fold over. *)
let observe t name v =
  if Float.is_nan v then invalid_arg "Metrics.observe: NaN sample";
  push (histogram t name) v

let observe_int t name v = observe t name (float_of_int v)

let counter_value t name =
  match Hashtbl.find_opt t.entries name with Some (Counter c) -> !c | _ -> 0

let summary s =
  if s.len = 0 then None
  else begin
    let sorted = Array.sub s.data 0 s.len in
    Array.sort compare sorted;
    Some (Stats.summarize (Array.to_list sorted))
  end

let histogram_summary t name =
  match Hashtbl.find_opt t.entries name with Some (Histogram s) -> summary s | _ -> None

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.entries [] |> List.sort compare

let json_of_summary (s : Stats.summary) =
  Printf.sprintf
    "{\"count\": %d, \"mean\": %g, \"stddev\": %g, \"min\": %g, \"max\": %g, \"p50\": %g, \
     \"p90\": %g, \"p99\": %g}"
    s.Stats.count s.Stats.mean s.Stats.stddev s.Stats.min s.Stats.max s.Stats.p50 s.Stats.p90
    s.Stats.p99

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let field name =
    match Hashtbl.find t.entries name with
    | Counter c -> Printf.sprintf "  \"%s\": %d" (escape name) !c
    | Histogram s ->
        let body = match summary s with None -> "{\"count\": 0}" | Some m -> json_of_summary m in
        Printf.sprintf "  \"%s\": %s" (escape name) body
  in
  Printf.sprintf "{\n%s\n}\n" (String.concat ",\n" (List.map field (names t)))

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "name,kind,value,count,mean,stddev,min,max,p50,p90,p99\n";
  List.iter
    (fun name ->
      match Hashtbl.find t.entries name with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%s,counter,%d,,,,,,,,\n" name !c)
      | Histogram s -> (
          match summary s with
          | None -> Buffer.add_string buf (Printf.sprintf "%s,histogram,,0,,,,,,,\n" name)
          | Some m ->
              Buffer.add_string buf
                (Printf.sprintf "%s,histogram,,%d,%g,%g,%g,%g,%g,%g,%g\n" name m.Stats.count
                   m.Stats.mean m.Stats.stddev m.Stats.min m.Stats.max m.Stats.p50 m.Stats.p90
                   m.Stats.p99)))
    (names t);
  Buffer.contents buf
