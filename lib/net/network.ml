type host = int

exception Host_dead of host

(* Every shared counter is an atomic so that sessions (the parallel read
   path) and per-level write tasks (the parallel write path, charging
   memory directly) can update it concurrently from different domains;
   every counter is a sum, and sums are order-independent, so the totals
   are bit-identical to a sequential run.

   Liveness is a plain flag array: [kill]/[revive] are epoch operations
   that must not run concurrently with in-flight sessions (the structures
   serialize failure epochs against query batches, like updates), so the
   flags need no atomicity — sessions only read them. *)
type t = {
  hosts : int;
  memory : int Atomic.t array;
  traffic : int Atomic.t array;
  total_messages : int Atomic.t;
  sessions : int Atomic.t;
  up : bool array;  (* liveness flag per host *)
  mutable live : int;  (* number of true entries in [up] *)
}

let create ~hosts =
  if hosts < 1 then invalid_arg "Network.create: need at least one host";
  {
    hosts;
    memory = Array.init hosts (fun _ -> Atomic.make 0);
    traffic = Array.init hosts (fun _ -> Atomic.make 0);
    total_messages = Atomic.make 0;
    sessions = Atomic.make 0;
    up = Array.make hosts true;
    live = hosts;
  }

let host_count t = t.hosts

let check_host t h =
  if h < 0 || h >= t.hosts then invalid_arg (Printf.sprintf "Network: bad host %d (H=%d)" h t.hosts)

(* ------- failure model ------- *)

let alive t h =
  check_host t h;
  t.up.(h)

let live_hosts t = t.live

let kill t h =
  check_host t h;
  if t.up.(h) then begin
    if t.live = 1 then invalid_arg "Network.kill: cannot kill the last live host";
    t.up.(h) <- false;
    t.live <- t.live - 1
  end

let revive t h =
  check_host t h;
  if not t.up.(h) then begin
    t.up.(h) <- true;
    t.live <- t.live + 1
  end

let charge_memory t h k =
  check_host t h;
  let old = Atomic.fetch_and_add t.memory.(h) k in
  assert (old + k >= 0)

let memory t h =
  check_host t h;
  Atomic.get t.memory.(h)

let max_memory t = Array.fold_left (fun acc a -> max acc (Atomic.get a)) 0 t.memory

let total_memory t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.memory

let mean_memory t = float_of_int (total_memory t) /. float_of_int t.live

let stranded_memory t =
  let acc = ref 0 in
  Array.iteri (fun h a -> if not t.up.(h) then acc := !acc + Atomic.get a) t.memory;
  !acc

(* A session buffers everything it will charge the network — its message
   count and the reversed list of host visits — and commits the lot in
   [finish]. Until then it touches no shared state, so any number of
   sessions may run concurrently on different domains; the committed
   quantities are sums, and sums are order-independent, so the totals are
   bit-identical to a sequential run of the same sessions. *)
type session = {
  net : t;
  mutable at : host;
  mutable msgs : int;
  mutable visits : host list;  (* reverse order, includes the start host *)
  mutable finished : bool;
  trace : Trace.t option;
}

let start ?trace t h =
  check_host t h;
  if not t.up.(h) then raise (Host_dead h);
  { net = t; at = h; msgs = 0; visits = [ h ]; finished = false; trace }

let current s = s.at

let goto ?label s h =
  if s.finished then invalid_arg "Network.goto: session already finished";
  check_host s.net h;
  if not s.net.up.(h) then raise (Host_dead h);
  if h <> s.at then begin
    (match s.trace with None -> () | Some tr -> Trace.hop tr ?label ~src:s.at ~dst:h ());
    s.msgs <- s.msgs + 1;
    s.visits <- h :: s.visits;
    s.at <- h
  end

let messages s = s.msgs

let finish s =
  if not s.finished then begin
    s.finished <- true;
    Atomic.incr s.net.sessions;
    if s.msgs > 0 then ignore (Atomic.fetch_and_add s.net.total_messages s.msgs);
    List.iter (fun h -> Atomic.incr s.net.traffic.(h)) s.visits;
    s.visits <- []
  end

let total_messages t = Atomic.get t.total_messages

let sessions_started t = Atomic.get t.sessions

let traffic t h =
  check_host t h;
  Atomic.get t.traffic.(h)

let max_traffic t = Array.fold_left (fun acc a -> max acc (Atomic.get a)) 0 t.traffic

let mean_traffic t =
  float_of_int (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.traffic)
  /. float_of_int t.live

let reset_traffic t =
  Array.iter (fun a -> Atomic.set a 0) t.traffic;
  Atomic.set t.total_messages 0;
  Atomic.set t.sessions 0

let congestion t ~items =
  (* Only live hosts serve queries: the most loaded *serving* host, and
     the query-start share spread over the hosts actually up. A dead
     host's stranded memory is unreachable, not congested. *)
  let worst = ref 0 in
  Array.iteri (fun h a -> if t.up.(h) then worst := max !worst (Atomic.get a)) t.memory;
  float_of_int !worst +. (float_of_int items /. float_of_int t.live)
