type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  queue : (int -> unit) Queue.t;  (* tasks receive the executing slot *)
  mutable pending : int;  (* tasks queued or executing, current batch *)
  mutable active : bool;  (* a parallel batch is in flight *)
  mutable stop : bool;
  mutable failure : exn option;
  mutable workers : unit Domain.t list;
  (* Per-slot utilization, indexed by executing domain: worker domain [i]
     owns slot [i], the submitting domain owns slot [jobs - 1]. Each slot
     is only ever written by its own domain; [run_batch]'s final mutex
     round gives the submitter a consistent view once a batch returns. *)
  stat_tasks : int array;
  stat_busy : float array;
}

(* Run one queued closure; record the first exception rather than killing
   the domain, then account for its completion and the slot's busy time.
   Work items (indices, dynamic claims) are counted by the dispatchers,
   which know how many an executing closure covers. *)
let exec pool slot task =
  let t0 = Unix.gettimeofday () in
  (try task slot
   with e ->
     Mutex.lock pool.mutex;
     if pool.failure = None then pool.failure <- Some e;
     Mutex.unlock pool.mutex);
  pool.stat_busy.(slot) <- pool.stat_busy.(slot) +. (Unix.gettimeofday () -. t0);
  Mutex.lock pool.mutex;
  pool.pending <- pool.pending - 1;
  if pool.pending = 0 then Condition.broadcast pool.work_done;
  Mutex.unlock pool.mutex

let rec worker_loop pool slot =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.stop do
    Condition.wait pool.work_ready pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* stop *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    exec pool slot task;
    worker_loop pool slot
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      active = false;
      stop = false;
      failure = None;
      workers = [];
      stat_tasks = Array.make jobs 0;
      stat_busy = Array.make jobs 0.0;
    }
  in
  (* The caller participates in draining the queue, so jobs - 1 extra
     domains suffice for a concurrency level of [jobs]. *)
  pool.workers <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool i));
  pool

let jobs pool = pool.jobs

let clamp_jobs ?(warn = true) jobs =
  let cap = Domain.recommended_domain_count () in
  if jobs > cap then begin
    if warn then
      Printf.eprintf
        "warning: --jobs %d exceeds the recommended domain count %d; clamping to %d\n%!" jobs cap
        cap;
    cap
  end
  else jobs

type utilization = { tasks : int array; busy_s : float array }

let utilization pool =
  { tasks = Array.copy pool.stat_tasks; busy_s = Array.copy pool.stat_busy }

let reset_utilization pool =
  Array.fill pool.stat_tasks 0 pool.jobs 0;
  Array.fill pool.stat_busy 0 pool.jobs 0.0

let record_metrics pool reg =
  let u = utilization pool in
  Metrics.incr reg ~by:pool.jobs "pool.jobs";
  for i = 0 to pool.jobs - 1 do
    Metrics.incr reg ~by:u.tasks.(i) (Printf.sprintf "pool.slot%02d.tasks" i);
    Metrics.incr reg
      ~by:(int_of_float (u.busy_s.(i) *. 1e6))
      (Printf.sprintf "pool.slot%02d.busy_us" i)
  done

(* The submitting domain helps: run queued tasks until none are left, then
   wait for the stragglers other domains are still executing. *)
let drain pool =
  let slot = pool.jobs - 1 in
  let rec loop () =
    Mutex.lock pool.mutex;
    if not (Queue.is_empty pool.queue) then begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      exec pool slot task;
      loop ()
    end
    else begin
      while pool.pending > 0 do
        Condition.wait pool.work_done pool.mutex
      done;
      Mutex.unlock pool.mutex
    end
  in
  loop ()

(* Launch a prepared batch of closures and block until every one has
   completed, the submitting domain helping to drain. Shared by the static
   (parallel_for) and dynamic (parallel_for_tasks) dispatchers. *)
let run_batch pool ~name tasks =
  Mutex.lock pool.mutex;
  if pool.stop then begin
    Mutex.unlock pool.mutex;
    invalid_arg (name ^ ": pool is shut down")
  end;
  if pool.active then begin
    Mutex.unlock pool.mutex;
    invalid_arg (name ^ ": pool already running a batch (not re-entrant)")
  end;
  pool.active <- true;
  pool.failure <- None;
  pool.pending <- Array.length tasks;
  Array.iter (fun task -> Queue.push task pool.queue) tasks;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  drain pool;
  Mutex.lock pool.mutex;
  pool.active <- false;
  let failure = pool.failure in
  pool.failure <- None;
  Mutex.unlock pool.mutex;
  match failure with Some e -> raise e | None -> ()

let parallel_for pool ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then
    if pool.jobs = 1 || n = 1 then
      for i = lo to hi - 1 do
        f i
      done
    else begin
      (* Deterministic static chunking: [chunks] contiguous index ranges
         whose boundaries depend only on (lo, hi, jobs), never on timing. *)
      let chunks = min pool.jobs n in
      let base = n / chunks and extra = n mod chunks in
      let tasks =
        Array.init chunks (fun c ->
            let start = lo + (c * base) + min c extra in
            let stop = start + base + if c < extra then 1 else 0 in
            fun slot ->
              pool.stat_tasks.(slot) <- pool.stat_tasks.(slot) + (stop - start);
              for i = start to stop - 1 do
                f i
              done)
      in
      run_batch pool ~name:"Pool.parallel_for" tasks
    end

(* Dynamic dispatch: [min jobs n] runner tasks claim indices one at a time
   from a shared counter, in the claim order fixed by [order]. Which domain
   runs which index depends on timing — callers must only rely on every
   index running exactly once. A runner that hits a task exception stops
   claiming (exec records the failure); the surviving runners still drain
   the counter, so the all-tasks-attempted-or-skipped accounting of
   [run_batch] holds and the first failure is re-raised. *)
let run_dynamic pool ~name ~order f =
  let n = Array.length order in
  let next = Atomic.make 0 in
  let runner slot =
    let rec claim () =
      let ix = Atomic.fetch_and_add next 1 in
      if ix < n then begin
        pool.stat_tasks.(slot) <- pool.stat_tasks.(slot) + 1;
        f order.(ix);
        claim ()
      end
    in
    claim ()
  in
  run_batch pool ~name (Array.init (min pool.jobs n) (fun _ -> runner))

let parallel_for_tasks pool ~weights f =
  let n = Array.length weights in
  if n > 0 then
    if pool.jobs = 1 || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let order = Array.init n Fun.id in
      (* Heaviest first; ties broken by index so the claim order is
         deterministic (the index-to-domain assignment still is not). *)
      Array.sort
        (fun a b -> match compare weights.(b) weights.(a) with 0 -> compare a b | c -> c)
        order;
      run_dynamic pool ~name:"Pool.parallel_for_tasks" ~order f
    end

let map_in_order ?pool ~order f xs =
  let n = Array.length xs in
  if Array.length order <> n then invalid_arg "Pool.map_in_order: order is not a permutation";
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let fill j =
      let i = order.(j) in
      out.(i) <- Some (f xs.(i))
    in
    (match pool with
    | Some pool when pool.jobs > 1 && n > 1 ->
        if n < 2 * pool.jobs then
          (* Too few elements for static chunks to balance: with fewer than
             two chunks per domain, one straggler chunk serializes the tail.
             Claim elements one at a time instead; the result array is
             still filled by index, so the output is unchanged. *)
          run_dynamic pool ~name:"Pool.map_in_order" ~order:(Array.init n Fun.id) fill
        else parallel_for pool ~lo:0 ~hi:n fill
    | _ ->
        for j = 0 to n - 1 do
          fill j
        done);
    Array.map
      (function Some v -> v | None -> invalid_arg "Pool.map_in_order: order is not a permutation")
      out
  end

let parallel_map pool f xs = map_in_order ~pool ~order:(Array.init (Array.length xs) Fun.id) f xs

let shutdown pool =
  Mutex.lock pool.mutex;
  let already = pool.stop in
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  if not already then begin
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ~jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f (Some pool))
  end
