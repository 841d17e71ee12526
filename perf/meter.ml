(* Wall-clock measurement around the library calls the benchmark makes.

   Every call is timed on bechamel's monotonic clock and lands in a phase
   (build, query, scan, insert, remove, repair) as one latency sample per
   call: the call's wall time divided by the items it handled, so a single
   query and one key of a batch are on the same scale.

   In a traced round the call additionally records a span (name, start,
   end, parent, op id), the Gc counters it moved and, when the workload
   owns a pool, the pool's busy time and task count. Untraced rounds do
   none of that, which is what the tracing overhead is measured against. *)

module Pool = Skipweb_util.Pool
module Stats = Skipweb_util.Stats

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Machine speed. On a shared machine the same code runs tens of percent
   slower for minutes at a time, and no statistic over one run removes
   that. So every round is followed, and every set-up build preceded, by
   a fixed calibration kernel: a dependent walk through a 16 MB random
   cycle plus an integer mixing loop, outside the OCaml heap. The gated
   timings are scaled by [speed] = [reference_s] / kernel time, that is,
   reported as if the kernel took [reference_s], its typical time on a
   shared two-vCPU Intel Xeon virtual machine. Library code never runs in
   the kernel, so a change to it moves the scaled timings as much as the
   raw ones. *)
let reference_s = 7.5e-3

let ring =
  lazy
    (let n = 1 lsl 21 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through all n slots. *)
     let s = ref 12345 in
     for i = n - 1 downto 1 do
       s := ((!s * 0x5851f42d4c957f2d) + 0x14057b7ef767814f) land max_int;
       let j = (!s lsr 17) mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let speed () =
  let a = Lazy.force ring in
  let t0 = now () in
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 50_000 do
    p := a.{!p}
  done;
  for i = 1 to 1_000_000 do
    acc := !acc lxor (i * 0x9e3779b1)
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity (!p + !acc));
  reference_s /. dt

(* A growable array; float instances are stored flat. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; fill : 'a }

  let create fill = { data = Array.make 256 fill; len = 0; fill }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) v.fill in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
end

type phase = {
  label : string;  (* build | query | scan | insert | remove | repair *)
  fn : string;  (* the public function called, used as the span name *)
  samples : float Vec.t;  (* seconds per item, one per call *)
  mutable calls : int;
  mutable items : int;
  mutable time : float;
  (* traced calls only *)
  mutable tcalls : int;
  mutable titems : int;
  mutable ttime : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable busy_s : float;
  mutable tasks : int;
}

type t = {
  pool : Pool.t option;
  origin : float;
  mutable tracing : bool;  (* is the current round traced? *)
  mutable phases : phase list;
  sp_name : string Vec.t;
  sp_start : float Vec.t;
  sp_end : float Vec.t;
  sp_parent : int Vec.t;
  sp_op : int Vec.t;
  mutable parent : int;  (* index of the innermost open group span, or -1 *)
  mutable marks : (int * float * int) array list;
      (* at each round boundary, newest first: every phase's (items, time,
         samples) so far, in phase order *)
  speeds : float Vec.t;  (* [speed ()] after each round *)
}

let create ?pool () =
  {
    pool;
    origin = now ();
    tracing = false;
    phases = [];
    sp_name = Vec.create "";
    sp_start = Vec.create 0.0;
    sp_end = Vec.create 0.0;
    sp_parent = Vec.create 0;
    sp_op = Vec.create 0;
    parent = -1;
    marks = [];
    speeds = Vec.create 0.0;
  }

let jobs m = match m.pool with None -> 1 | Some p -> Pool.jobs p

let phase m label fn =
  let ph =
    {
      label;
      fn;
      samples = Vec.create 0.0;
      calls = 0;
      items = 0;
      time = 0.0;
      tcalls = 0;
      titems = 0;
      ttime = 0.0;
      minor_words = 0.0;
      promoted_words = 0.0;
      major_collections = 0;
      busy_s = 0.0;
      tasks = 0;
    }
  in
  m.phases <- m.phases @ [ ph ];
  ph

let push_span m name t0 t1 op =
  Vec.push m.sp_name name;
  Vec.push m.sp_start (t0 -. m.origin);
  Vec.push m.sp_end (t1 -. m.origin);
  Vec.push m.sp_parent m.parent;
  Vec.push m.sp_op op

let account ph items dt =
  Vec.push ph.samples (dt /. float_of_int (max 1 items));
  ph.calls <- ph.calls + 1;
  ph.items <- ph.items + items;
  ph.time <- ph.time +. dt

(* Time one library call handling [items] items. [f] must not raise:
   workloads catch the failures they count inside it. *)
let call m ph ?(items = 1) ~op f =
  if not m.tracing then begin
    let t0 = now () in
    let r = f () in
    account ph items (now () -. t0);
    r
  end
  else begin
    let g0 = Gc.quick_stat () in
    Option.iter Pool.reset_utilization m.pool;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    Option.iter
      (fun p ->
        let u = Pool.utilization p in
        ph.busy_s <- ph.busy_s +. Array.fold_left ( +. ) 0.0 u.Pool.busy_s;
        ph.tasks <- ph.tasks + Array.fold_left ( + ) 0 u.Pool.tasks)
      m.pool;
    ph.minor_words <- ph.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    ph.promoted_words <- ph.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    ph.major_collections <- ph.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
    ph.tcalls <- ph.tcalls + 1;
    ph.titems <- ph.titems + items;
    ph.ttime <- ph.ttime +. (t1 -. t0);
    push_span m ph.fn t0 t1 op;
    account ph items (t1 -. t0);
    r
  end

(* A span enclosing other calls (a round, an epoch) or an untimed call
   such as a host kill. Recorded only in traced rounds. *)
let group m name ~op f =
  if not m.tracing then f ()
  else begin
    let idx = Vec.length m.sp_name in
    let saved = m.parent in
    push_span m name (now ()) nan op;
    m.parent <- idx;
    let r = f () in
    m.parent <- saved;
    m.sp_end.Vec.data.(idx) <- now () -. m.origin;
    r
  end

let mark m =
  m.marks <-
    Array.of_list (List.map (fun ph -> (ph.items, ph.time, Vec.length ph.samples)) m.phases)
    :: m.marks

(* Run rounds until [seconds] of wall clock have passed and at least
   [min_rounds] have run. In a traced run even rounds are traced and odd
   ones are not, so both see the same structure and the same op mix. *)
let rounds m ~traced ~seconds ~min_rounds f =
  let start = now () in
  let i = ref 0 in
  mark m;
  while !i < min_rounds || now () -. start < seconds do
    m.tracing <- traced && !i mod 2 = 0;
    group m "round" ~op:!i (fun () -> f !i);
    mark m;
    Vec.push m.speeds (speed ());
    incr i
  done;
  m.tracing <- false;
  !i

(* Each round's (before, after) marks and speed, oldest first. *)
let windows m =
  let ms = Array.of_list (List.rev m.marks) in
  List.init (max 0 (Array.length ms - 1)) (fun i -> (ms.(i), ms.(i + 1), m.speeds.Vec.data.(i)))

let index m ph =
  let rec go k = function
    | [] -> invalid_arg "Meter.index"
    | p :: rest -> if p == ph then k else go (k + 1) rest
  in
  go 0 m.phases

let median_of a =
  Array.sort compare a;
  Stats.percentile a 0.5

(* The median of [ph]'s samples within each round that has any, scaled
   to the reference speed. *)
let round_medians m ph =
  let k = index m ph in
  List.filter_map
    (fun (a, b, speed) ->
      let _, _, s0 = a.(k) and _, _, s1 = b.(k) in
      if s1 = s0 then None
      else Some (median_of (Array.sub ph.samples.Vec.data s0 (s1 - s0)) *. speed))
    (windows m)

(* Each round's items in the phases [ops] selects, per second spent in
   all of the round's calls, scaled to the reference speed. *)
let round_rates m ~ops =
  List.filter_map
    (fun (a, b, speed) ->
      let items = ref 0 and time = ref 0.0 in
      List.iteri
        (fun k ph ->
          let i0, t0, _ = a.(k) and i1, t1, _ = b.(k) in
          if ops ph then items := !items + (i1 - i0);
          time := !time +. (t1 -. t0))
        m.phases;
      if !time > 0.0 then Some (float_of_int !items /. !time /. speed) else None)
    (windows m)

let quantile ph q =
  let a = Vec.to_array ph.samples in
  if Array.length a = 0 then 0.0
  else begin
    Array.sort compare a;
    Stats.percentile a q
  end

let median = function [] -> 0.0 | xs -> median_of (Array.of_list xs)

let mean_span ph = if ph.tcalls = 0 then 0.0 else ph.ttime /. float_of_int ph.tcalls

(* Traced cost per item over untraced cost per item, minus 1, across the
   timed loop's phases. *)
let overhead_frac m =
  let sum f = List.fold_left (fun acc ph -> if ph.label = "build" then acc else acc +. f ph) 0.0 m.phases in
  let t_time = sum (fun ph -> ph.ttime) and t_items = sum (fun ph -> float_of_int ph.titems) in
  let u_time = sum (fun ph -> ph.time -. ph.ttime)
  and u_items = sum (fun ph -> float_of_int (ph.items - ph.titems)) in
  if t_items = 0.0 || u_items = 0.0 || u_time = 0.0 then 0.0
  else (t_time /. t_items) /. (u_time /. u_items) -. 1.0

let spans_json m =
  let b = Buffer.create (64 * Vec.length m.sp_name) in
  let floats name v =
    Buffer.add_string b (Printf.sprintf "\"%s\":[" name);
    for i = 0 to v.Vec.len - 1 do
      if i > 0 then Buffer.add_char b ',';
      let x = v.Vec.data.(i) in
      Buffer.add_string b (if Float.is_finite x then Printf.sprintf "%.9f" x else "null")
    done;
    Buffer.add_string b "]"
  in
  let ints name v =
    Buffer.add_string b (Printf.sprintf "\"%s\":[" name);
    for i = 0 to v.Vec.len - 1 do
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v.Vec.data.(i))
    done;
    Buffer.add_string b "]"
  in
  (* Span names are interned: "name" indexes into "names". *)
  let ids = Hashtbl.create 16 and names = ref [] in
  let name_ids = Vec.create 0 in
  for i = 0 to m.sp_name.Vec.len - 1 do
    let s = m.sp_name.Vec.data.(i) in
    let id =
      match Hashtbl.find_opt ids s with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.replace ids s id;
          names := s :: !names;
          id
    in
    Vec.push name_ids id
  done;
  Buffer.add_string b "{\"names\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b ("\"" ^ Skipweb_net.Trace.json_escape s ^ "\""))
    (List.rev !names);
  Buffer.add_string b "],";
  ints "name" name_ids;
  Buffer.add_char b ',';
  floats "start_s" m.sp_start;
  Buffer.add_char b ',';
  floats "end_s" m.sp_end;
  Buffer.add_char b ',';
  ints "parent" m.sp_parent;
  Buffer.add_char b ',';
  ints "op" m.sp_op;
  Buffer.add_string b "}\n";
  Buffer.contents b
