module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Placement = Skipweb_net.Placement
module Membership = Skipweb_util.Membership
module Prng = Skipweb_util.Prng
module L = Skipweb_linklist.Linklist
module O = Skipweb_util.Ordseq
module Pool = Skipweb_util.Pool
module Presort = Skipweb_util.Presort

(* The blocks of one basic-level set, indexed by block number j. Block
   j's copy array holds its [reps] owners, primary first, then — when its
   group is cached — its k - 1 cache copies: one slot space, so failover,
   cache reads, charging and repair all read the same array. *)
type group = {
  copies : Network.host array array;  (* block j -> its owners, then its cache copies *)
  units : int array;  (* block j -> ranges stored by the block plus its cone intervals *)
}

let no_blocks = { copies = [||]; units = [||] }

(* Membership bits are derived from the key itself, so an element keeps its
   level path across rebuilds. Every table is dense: indexed by level, then
   by membership prefix. A level-l prefix is below 2^l and top = ⌈log₂ n⌉,
   so all levels together hold fewer than 4n slots. The one level-0 set,
   [sets.(0).(0)], is the whole ground set in ascending order. *)
type t = {
  net : Network.t;
  vecs : Membership.t;
  m : int;  (* per-host memory target M *)
  r : int;  (* replication factor: owners per block / cone interval *)
  mutable reps : int;  (* owners per block at the last rebuild: min r (live hosts) *)
  stride : int;  (* L = ceil(log2 M): basic levels are multiples *)
  mutable bsize : int;  (* ranges per block at basic levels *)
  mutable top : int;  (* K = ceil(log2 n) *)
  mutable sets : int array array array;  (* level -> prefix -> sorted keys ([||]: no set) *)
  mutable blocks : group array array;  (* basic level -> prefix -> blocks; [||] off basic levels *)
  mutable cones : int array array array;
      (* non-basic level -> prefix -> cone table; [||] at basic levels and
         for empty sets. Entry j is the code interval (code_lo, code_hi)
         of the set's ranges that block j of the basic set below touches,
         stored flat. Every block touches every non-empty set of its cone,
         so a table has one entry per block. *)
  (* Read-path level cache: a basic block group — the block plus every
     cone interval it drags along — whose basic level is below
     [cache_levels] keeps [cache_replicas - 1] whole extra copies on
     distinct live hosts, in the slots after its owners. Caching whole
     groups (not individual levels) preserves the co-location that gives
     Blocked1d its O(log n / log log n) bound: a query reading cache copy
     s of a group still walks the entire group on one host. *)
  mutable cache_levels : int;  (* groups with basic level < this are cached *)
  mutable cache_replicas : int;  (* k: total read copies per cached group *)
  cache_seed : int;
  host_mem : int array;  (* what we charged per host, for rebuilds *)
  pool : Pool.t option;  (* the build's pool, reused by update-triggered rebuilds *)
}

let ground t = t.sets.(0).(0)
let size t = Array.length (ground t)
let levels t = t.top + 1
let block_size t = t.bsize

let basic_levels t =
  List.filter (fun l -> l mod t.stride = 0) (List.init (t.top + 1) Fun.id)

(* An element's membership path: its prefix at the top level. The prefix
   at level l is the path's first l bits, [path lsr (top - l)]. *)
let path_of t key = Membership.prefix t.vecs ~id:key ~len:t.top

let required_top n =
  let rec go k = if 1 lsl k >= max 1 n then k else go (k + 1) in
  go 0

let charge t host units =
  Network.charge_memory t.net host units;
  t.host_mem.(host) <- t.host_mem.(host) + units

let uncharge_all t =
  Array.iteri (fun host units -> if units <> 0 then Network.charge_memory t.net host (-units)) t.host_mem;
  Array.fill t.host_mem 0 (Array.length t.host_mem) 0

(* [f level b j g] for every block j of every basic set [(level, b)]. *)
let iter_blocks t f =
  Array.iteri
    (fun level groups ->
      Array.iteri (fun b g -> Array.iteri (fun j _ -> f level b j g) g.copies) groups)
    t.blocks

(* ------- cone tables ------- *)

(* Block j's entry of a cone table. Block spans ascend with j, so along
   a table code_lo and code_hi are both non-decreasing. *)
let cone_entries tbl = Array.length tbl / 2
let cone_lo tbl j = tbl.(2 * j)
let cone_hi tbl j = tbl.((2 * j) + 1)

(* The blocks whose interval holds [code] form one run of the table.
   From a block [j] inside it, the run goes up while code_lo <= code (the
   entries after j have code_hi >= code already) and down while
   code_hi >= code (the entries before j have code_lo <= code). *)
let rec run_hi tbl j code =
  if j + 1 < cone_entries tbl && cone_lo tbl (j + 1) <= code then run_hi tbl (j + 1) code else j

let rec run_lo tbl j code = if j > 0 && cone_hi tbl (j - 1) >= code then run_lo tbl (j - 1) code else j

(* The basic level a cone level hangs off: a set at [level] with prefix
   b is in the cone of the basic set with prefix
   [b lsr (level - cone_base t level)]. *)
let cone_base t level = level - (level mod t.stride)

(* ------- the read-path group cache ------- *)

(* Cache copies per block of a basic level: k - 1 inside the window of an
   active cache, none elsewhere. *)
let cache_slots t level =
  if t.cache_replicas > 1 && level < t.cache_levels then t.cache_replicas - 1 else 0

(* Block j's copy array: owners [owner 0 .. owner (reps - 1)], then the
   cache slots its level's window asks for, each the shared placement
   draw salted by [cache_seed] and the cache slot, skipping dead hosts
   and every earlier copy — so all copies of a group sit on distinct live
   hosts. Pure in (cache_seed, group, live set, owners): [rebuild] and
   [set_cache] always agree on where every copy lives. *)
let copy_array t level b j owner =
  let copies =
    Array.init (t.reps + cache_slots t level) (fun s -> if s < t.reps then owner s else 0)
  in
  for s = t.reps to Array.length copies - 1 do
    copies.(s) <-
      Placement.draw t.net ~seed:t.cache_seed ~slot:(s - t.reps + 1) ~level ~prefix:b ~id:j
        ~hosts:copies ~taken:s ~skip_dead:true 0
  done;
  copies

(* ------- rebuild ------- *)

(* Key-interval endpoints of a code interval within a set array. *)
let interval_span arr clo chi =
  let lo, _ = L.span arr (L.decode clo) in
  let _, hi = L.span arr (L.decode chi) in
  (lo, hi)

(* Codes of [arr] whose range intersects the closed key interval
   [(lo, hi)] — the one-level conflict projection; conflict lists being
   contiguous is what makes cones intervals. *)
let codes_touching arr (lo, hi) =
  let m = Array.length arr in
  let clo =
    match lo with
    | L.Neg_inf -> 0
    | L.Key k -> 2 * O.array_lower_bound arr k
    | L.Pos_inf -> 2 * m
  in
  let chi =
    match hi with
    | L.Neg_inf -> 0
    | L.Key k -> 2 * (O.array_upper_index arr k + 1)
    | L.Pos_inf -> 2 * m
  in
  (clo, chi)

(* Run [f i] for every level i in [0, n) — over [pool] when given,
   inline otherwise. Levels cost about the same, so the weights are
   uniform; dynamic dispatch still keeps every domain busy until the
   batch drains. *)
let for_items pool n f =
  match pool with
  | None ->
      for i = 0 to n - 1 do
        f i
      done
  | Some p -> Pool.parallel_for_tasks p ~weights:(Array.make (max n 1) 1) f

(* A rebuild writes the dense tables directly, in two fan-out phases with
   sequential steps in between, so the result is bit-identical for any
   jobs count:

     1. Level sets: level 0's one set is [keys] itself, which the
        caller hands over sorted and never touches again. One membership
        path per key, then one task per level above counting-sorts [keys]
        into its level's prefix slots; keys are visited in order, so
        every set fills already sorted.
     2. Blocks and cones: block boundaries and their round-robin owners
        depend only on code counts, so they are dealt sequentially, in
        ascending (level, prefix, block) order. Then one task per
        non-basic level fills that level's cone tables, each task writing
        only its own level; a last sequential pass sums every block's
        stored units and charges its owners. *)
let rebuild t pool keys =
  uncharge_all t;
  let n = Array.length keys in
  t.top <- required_top n;
  let top = t.top in
  let paths = Array.map (path_of t) keys in
  let sets = Array.make (top + 1) [||] in
  for_items pool (top + 1) (fun level ->
      if level = 0 then sets.(0) <- [| keys |]
      else begin
        let shift = top - level in
        let fill = Array.make (1 lsl level) 0 in
        Array.iter (fun p -> fill.(p lsr shift) <- fill.(p lsr shift) + 1) paths;
        let slots = Array.map (fun len -> Array.make len 0) fill in
        Array.fill fill 0 (Array.length fill) 0;
        Array.iteri
          (fun i p ->
            let b = p lsr shift in
            slots.(b).(fill.(b)) <- keys.(i);
            fill.(b) <- fill.(b) + 1)
          paths;
        sets.(level) <- slots
      end);
  (* Size blocks so there is about one block per *live* host (each block
     drags an O(M)-sized cone along, so several blocks per host would
     overshoot the memory budget). Placement only ever targets live hosts:
     with nobody dead the live array is the identity and every owner draw
     below reproduces the historical [!counter mod hosts]. *)
  let hosts = Network.host_count t.net in
  let live =
    Array.of_list (List.filter (fun h -> Network.alive t.net h) (List.init hosts Fun.id))
  in
  let nlive = Array.length live in
  t.reps <- min t.r nlive;
  let basic level = level mod t.stride = 0 in
  let codes arr = if Array.length arr = 0 then 0 else L.num_ranges arr in
  let total_basic_codes = ref 0 in
  Array.iteri
    (fun level slots ->
      if basic level then Array.iter (fun arr -> total_basic_codes := !total_basic_codes + codes arr) slots)
    sets;
  t.bsize <- max (max 2 (t.m / 4)) ((!total_basic_codes + nlive - 1) / nlive);
  (* Deal every block in the canonical (level, prefix, block) order,
     assigning owners from the round-robin counter: replica slot s of
     block [idx] is the live host [idx + s] positions along, so the r
     copies of a block always sit on r distinct live hosts (r <= nlive).
     A cached block's cache copies follow its owners. A block's units
     start at the ranges it holds itself; [spans] keeps its key span for
     the cone scans. *)
  let blocks = Array.make (top + 1) [||] in
  let spans = Array.make (top + 1) [||] in
  let counter = ref 0 in
  for level = 0 to top do
    if basic level then begin
      let slots = sets.(level) in
      blocks.(level) <- Array.make (Array.length slots) no_blocks;
      spans.(level) <- Array.make (Array.length slots) [||];
      Array.iteri
        (fun b arr ->
          let nblocks = (codes arr + t.bsize - 1) / t.bsize in
          if nblocks > 0 then begin
            let copies = Array.make nblocks [||] and units = Array.make nblocks 0 in
            let span = Array.make nblocks (L.Neg_inf, L.Pos_inf) in
            for j = 0 to nblocks - 1 do
              let idx = !counter mod nlive in
              incr counter;
              copies.(j) <- copy_array t level b j (fun s -> live.((idx + s) mod nlive));
              let clo = j * t.bsize and chi = min (codes arr - 1) (((j + 1) * t.bsize) - 1) in
              units.(j) <- chi - clo + 1;
              span.(j) <- interval_span arr clo chi
            done;
            blocks.(level).(b) <- { copies; units };
            spans.(level).(b) <- span
          end)
        slots
    end
  done;
  (* The cone of each block: for each non-basic level above, every
     descendant set's ranges touching the block's key span. (This is the
     conflict closure clamped to the block span; clamping keeps per-host
     space O(M) while every range stays covered by the block whose span it
     touches.) The ranges of a set partition the key line, so every block
     touches every non-empty descendant set. *)
  let cones = Array.make (top + 1) [||] in
  for_items pool (top + 1) (fun level ->
      if not (basic level) then begin
        let base = cone_base t level in
        cones.(level) <-
          Array.mapi
            (fun b child ->
              if Array.length child = 0 then [||]
              else begin
                let span = spans.(base).(b lsr (level - base)) in
                let tbl = Array.make (2 * Array.length span) 0 in
                Array.iteri
                  (fun j s ->
                    let clo, chi = codes_touching child s in
                    tbl.(2 * j) <- clo;
                    tbl.((2 * j) + 1) <- chi)
                  span;
                tbl
              end)
            sets.(level)
      end);
  Array.iteri
    (fun level tables ->
      Array.iteri
        (fun b tbl ->
          let base = cone_base t level in
          let units = blocks.(base).(b lsr (level - base)).units in
          for j = 0 to cone_entries tbl - 1 do
            units.(j) <- units.(j) + (cone_hi tbl j - cone_lo tbl j + 1)
          done)
        tables)
    cones;
  Array.iter
    (Array.iter (fun g -> Array.iteri (fun j copies -> Array.iter (fun h -> charge t h g.units.(j)) copies) g.copies))
    blocks;
  t.sets <- sets;
  t.blocks <- blocks;
  t.cones <- cones

let build ~net ~seed ~m ?(r = 1) ?(cache_levels = 0) ?(cache_replicas = 1) ?pool keys =
  if m < 4 then invalid_arg "Blocked1d.build: m >= 4";
  if r < 1 || r > Network.host_count net then
    invalid_arg "Blocked1d.build: need 1 <= r <= host count";
  if cache_levels < 0 then invalid_arg "Blocked1d.build: cache_levels >= 0";
  if cache_replicas < 1 || r + cache_replicas - 1 > Network.host_count net then
    invalid_arg "Blocked1d.build: need 1 <= cache_replicas and r + cache_replicas - 1 <= hosts";
  let xs = Array.copy keys in
  Array.sort compare xs;
  Array.iteri (fun i k -> if i > 0 && xs.(i - 1) = k then invalid_arg "Blocked1d.build: duplicate keys") xs;
  let stride = max 1 (required_top m) in
  let t =
    {
      net;
      vecs = Membership.create ~seed;
      m;
      r;
      reps = r;  (* refined by rebuild *)
      stride;
      bsize = max 2 (m / 4);  (* refined by rebuild *)
      top = 0;
      sets = [||];
      blocks = [||];
      cones = [||];
      cache_levels;
      cache_replicas;
      cache_seed = seed + 0xca4e;
      host_mem = Array.make (Network.host_count net) 0;
      pool;
    }
  in
  rebuild t pool xs;
  t

(* Reconfigure the cache without a full rebuild: swap the window and
   replica count, then per block release the cache slots' charges,
   truncate the copy array to its owners and re-draw and charge the cache
   slots the new window asks for. The block / cone maps, all owners and
   every owner charge are untouched, so this is cheap even at n = 10^6 —
   which is what lets the serving bench sweep k against one build. *)
let set_cache t ~levels ~k =
  if levels < 0 then invalid_arg "Blocked1d.set_cache: levels >= 0";
  if k < 1 || t.r + k - 1 > Network.host_count t.net then
    invalid_arg "Blocked1d.set_cache: need 1 <= k and r + k - 1 <= hosts";
  t.cache_levels <- levels;
  t.cache_replicas <- k;
  iter_blocks t (fun level b j g ->
      let old = g.copies.(j) and units = g.units.(j) in
      for s = t.reps to Array.length old - 1 do
        charge t old.(s) (-units)
      done;
      let copies = copy_array t level b j (Array.get old) in
      for s = t.reps to Array.length copies - 1 do
        charge t copies.(s) units
      done;
      g.copies.(j) <- copies)

let total_storage t =
  Array.fold_left
    (Array.fold_left (fun acc arr -> if Array.length arr = 0 then acc else acc + L.num_ranges arr))
    0 t.sets

let replicated_storage t = Array.fold_left ( + ) 0 t.host_mem

let max_host_memory t = Array.fold_left max 0 t.host_mem

(* The representative for a query reading cache slot [slot] of block j's
   group in the basic set [(level, b)], by the shared cache read rule:
   the group's cache copy when it is live, the first live owner otherwise
   (the dead primary when every owner is gone, so the session hop raises
   [Host_dead] instead of silently reading a lost range). Slot 0 — every
   group outside the cache window reads slot 0 — is the owner path. *)
let entry_rep_slot t ~slot level b j =
  Placement.read t.net t.blocks.(level).(b).copies.(j) ~data:t.reps ~slot

(* Which cache copy a query from [origin] reads for groups based at basic
   level [base]: pure in (cache_seed, origin, base) — bit-identical runs
   for fixed parameters, jobs-invariant — and 0 (the owner path) whenever
   the group is uncached. One slot per *group*, not per level, so a
   descent still changes hosts only at basic-level boundaries and the
   O(log n / log log n) message bound is untouched. *)
let slot_for t origin base =
  if t.cache_replicas > 1 && base < t.cache_levels then
    Placement.replica_slot ~seed:t.cache_seed ~origin ~level:base ~k:t.cache_replicas
  else 0

type search_result = {
  predecessor : int option;
  successor : int option;
  nearest : int option;
  messages : int;
}

(* Where a descent stands: its basic group and what entering it found. *)
type cursor = {
  mutable base : int;  (* the group's basic level *)
  mutable pb : int;  (* its base set's prefix *)
  mutable jq : int;  (* the block of the base set holding q *)
  mutable slot : int;  (* the origin's cache slot for the group *)
  mutable pref : int;  (* block jq's representative: the preferred host *)
  mutable run : int;  (* entries covering q's range at the last level *)
}

(* The host a descent reads [level] on from [current] (-1: where the
   session starts). Entering a basic group locates q once in its base
   set. That block jq is the base level's entry, the preferred host, and
   inside every cone level's run above it: q lies in jq's closed key span
   and in the level's range holding q, and a cone interval lists every
   range meeting the span ([codes_touching]). The run is read head first
   (descending block), the order the pinned totals check: a session
   starts on the head-most live entry; later levels stay on [current] if
   it holds a live entry, else go to jq's representative if live, else to
   the head-most live one. With no live entry the walk goes to the dead
   head, so the hop raises [Host_dead] instead of reading a lost range. *)
let target t c ~origin ~path q level ~current =
  let base = cone_base t level in
  if base <> c.base then begin
    c.base <- base;
    c.pb <- path lsr (t.top - base);
    c.jq <- L.locate_code t.sets.(base).(c.pb) q / t.bsize;
    c.slot <- slot_for t origin base;
    c.pref <- entry_rep_slot t ~slot:c.slot base c.pb c.jq
  end;
  if level = base then begin
    c.run <- 1;
    c.pref
  end
  else begin
    let b = path lsr (t.top - level) in
    let tbl = t.cones.(level).(b) and code = L.locate_code t.sets.(level).(b) q in
    let hi = run_hi tbl c.jq code and lo = run_lo tbl c.jq code in
    c.run <- hi - lo + 1;
    let first = ref (-1) and holds_current = ref false in
    for j = hi downto lo do
      let h = entry_rep_slot t ~slot:c.slot base c.pb j in
      if Network.alive t.net h then begin
        if !first < 0 then first := h;
        if h = current then holds_current := true
      end
    done;
    if !first < 0 then entry_rep_slot t ~slot:c.slot base c.pb hi
    else if current < 0 then !first
    else if !holds_current then current
    else if Network.alive t.net c.pref then c.pref
    else !first
  end

(* Traced descents open one leveled span per level, noting whether the
   level's range lives in a block or a cone and how many entries cover
   it; hops are labeled accordingly. Trace work is guarded, so an
   untraced query runs the same walk. The origin's membership path is
   drawn once; every level's set is a shift of it. The answer is one
   binary search of q in the ground set and the keys on either side. *)
let query_from ?trace t origin q =
  let path = path_of t origin in
  let c = { base = -1; pb = 0; jq = 0; slot = 0; pref = 0; run = 0 } in
  let session = Network.start ?trace t.net (target t c ~origin ~path q t.top ~current:(-1)) in
  for level = t.top downto 0 do
    let h =
      if level = t.top then Network.current session
      else target t c ~origin ~path q level ~current:(Network.current session)
    in
    match trace with
    | None -> Network.goto session h
    | Some tr ->
        let basic = level = c.base in
        Trace.span_open tr ~level (if basic then "basic level" else "cone level");
        Network.goto ~label:(if basic then "block" else "cone") session h;
        Trace.span_close tr ~note:(Printf.sprintf "replicas=%d" c.run) ()
  done;
  Network.finish session;
  let keys = ground t in
  let i = O.array_lower_bound keys q in
  let successor = if i < Array.length keys then Some keys.(i) else None in
  let predecessor =
    match successor with
    | Some s when s = q -> successor
    | _ -> if i > 0 then Some keys.(i - 1) else None
  in
  let nearest =
    match (predecessor, successor) with
    | Some p, Some s when q - p > s - q -> successor
    | None, _ -> successor
    | _ -> predecessor
  in
  { predecessor; successor; nearest; messages = Network.messages session }

let query ?trace t ~rng q =
  if size t = 0 then { predecessor = None; successor = None; nearest = None; messages = 0 }
  else query_from ?trace t (ground t).(Prng.int rng (size t)) q

(* Fan-out of independent queries, the same as the hierarchy's: origins
   pre-drawn sequentially in input order (one rng draw per query,
   matching a loop of [query] coin-for-coin), then the descents run in
   key order, which walks each level's blocks left to right (25-40%
   faster than arrival order on 40 000 uniform queries at 5·10⁴-10⁶
   keys, EXPERIMENTS.md), and each result goes back to its input
   position. Each
   descent is a pure read-only walk whose session commits through the
   network's atomic counters — results and network totals are
   bit-identical to the loop for any jobs count. An empty structure
   consumes no rng draws, exactly like the sequential loop. *)
let query_batch ?pool t ~rng qs =
  let n = Array.length qs in
  if size t = 0 then
    Array.map (fun _ -> { predecessor = None; successor = None; nearest = None; messages = 0 }) qs
  else begin
    let keys = ground t in
    let walks = Array.init n (fun i -> (keys.(Prng.int rng (Array.length keys)), qs.(i))) in
    Pool.map_in_order ?pool ~order:(Presort.order ~cmp:Int.compare qs)
      (fun (origin, q) -> query_from t origin q)
      walks
  end

(* Where [k] sits in the ground set: its lower-bound index, and whether
   the key there is [k]. *)
let find t k =
  let keys = ground t in
  let i = O.array_lower_bound keys k in
  (i, i < Array.length keys && keys.(i) = k)

(* Updates: the message bill is a locate plus O(1) messages per basic
   level (§4 — non-basic copies live in the cones already co-located with
   basic blocks; block splits amortize). The key is spliced into a fresh
   copy of the ground set and the block/cone maps are rebuilt from it,
   which the cost model does not meter. *)
let update_cost t locate_messages = locate_messages + (2 * List.length (basic_levels t))

let insert t k =
  match find t k with
  | _, true -> 0
  | i, false ->
      let locate_msgs = if size t = 0 then 0 else (query t ~rng:(Prng.create (k + 13)) k).messages in
      let keys = ground t in
      rebuild t t.pool
        (Array.init (Array.length keys + 1) (fun j ->
             if j < i then keys.(j) else if j = i then k else keys.(j - 1)));
      update_cost t locate_msgs

let delete t k =
  match find t k with
  | _, false -> 0
  | i, true ->
      let locate_msgs = (query t ~rng:(Prng.create (k + 17)) k).messages in
      let keys = ground t in
      rebuild t t.pool
        (Array.init (Array.length keys - 1) (fun j -> if j < i then keys.(j) else keys.(j + 1)));
      update_cost t locate_msgs

let check_invariants t =
  let n = size t in
  let basic level = level mod t.stride = 0 in
  let shape what len want = if len <> want then failwith ("Blocked1d: wrong table shape: " ^ what) in
  let uncovered level = failwith (Printf.sprintf "Blocked1d: range uncovered at level %d" level) in
  shape "sets" (Array.length t.sets) (t.top + 1);
  shape "blocks" (Array.length t.blocks) (t.top + 1);
  shape "cones" (Array.length t.cones) (t.top + 1);
  let keys = ground t in
  let paths = Array.map (path_of t) keys in
  for level = 0 to t.top do
    (* One set slot per level-l prefix, so every slot's prefix is below
       2^l; blocks at basic levels, cone tables elsewhere. *)
    let slots = t.sets.(level) in
    shape "sets" (Array.length slots) (1 lsl level);
    shape "blocks" (Array.length t.blocks.(level)) (if basic level then 1 lsl level else 0);
    shape "cones" (Array.length t.cones.(level)) (if basic level then 0 else 1 lsl level);
    (* The level's sets partition the ground set (level 0's one set): each
       set ascends strictly, every key sits in the set its own prefix
       names, and the set sizes add up to n. *)
    Array.iter
      (fun arr ->
        for i = 1 to Array.length arr - 1 do
          if arr.(i - 1) >= arr.(i) then failwith "Blocked1d: level set not strictly increasing"
        done)
      slots;
    let total = Array.fold_left (fun acc arr -> acc + Array.length arr) 0 slots in
    if total <> n then failwith "Blocked1d: level sets do not partition the keys";
    (* A basic set's blocks hold all its ranges. *)
    if basic level then
      Array.iteri
        (fun b arr ->
          let nblocks = Array.length t.blocks.(level).(b).copies in
          if Array.length arr > 0 && (L.num_ranges arr - 1) / t.bsize >= nblocks then uncovered level)
        slots;
    Array.iteri
      (fun i k ->
        let arr = slots.(paths.(i) lsr (t.top - level)) in
        let at = O.array_lower_bound arr k in
        if at >= Array.length arr || arr.(at) <> k then failwith "Blocked1d: key in wrong set")
      keys
  done;
  (* Cone tables: one entry per block of the basic set below for every
     non-empty set, none for an empty one. code_lo and code_hi are
     non-decreasing in the block index, so every stab is one run the
     query walk can step through. And every range is stored somewhere:
     the entries leave no gap from code 0 to the set's last code. *)
  Array.iteri
    (fun level tables ->
      let base = cone_base t level in
      Array.iteri
        (fun b tbl ->
          let arr = t.sets.(level).(b) in
          let nblocks =
            if Array.length arr = 0 then 0 else Array.length t.blocks.(base).(b lsr (level - base)).copies
          in
          shape "cone table" (cone_entries tbl) nblocks;
          for j = 0 to nblocks - 1 do
            let lo = cone_lo tbl j and hi = cone_hi tbl j in
            if lo > hi then failwith "Blocked1d: empty cone interval";
            if j > 0 && (lo < cone_lo tbl (j - 1) || hi < cone_hi tbl (j - 1)) then
              failwith "Blocked1d: cone table out of order";
            if lo > (if j = 0 then 0 else cone_hi tbl (j - 1) + 1) then uncovered level
          done;
          if nblocks > 0 && cone_hi tbl (nblocks - 1) <> L.num_ranges arr - 1 then uncovered level)
        tables)
    t.cones;
  (* Copies: every block holds its owners plus exactly the cache slots
     its level's window asks for, all on pairwise distinct hosts.
     (Liveness is not checked — placements go stale between a kill and
     the next repair/rebuild.) And what every host was charged is what
     the copy arrays say it stores: each copy of block j holds the
     block's units. *)
  let expected = Array.make (Network.host_count t.net) 0 in
  iter_blocks t (fun level _ j g ->
      let copies = g.copies.(j) in
      shape "copies" (Array.length copies) (t.reps + cache_slots t level);
      Array.iteri
        (fun i h ->
          Array.iteri (fun i' h' -> if i < i' && h = h' then failwith "Blocked1d: copies collide") copies;
          expected.(h) <- expected.(h) + g.units.(j))
        copies);
  Array.iteri
    (fun h e ->
      if t.host_mem.(h) <> e then
        failwith (Printf.sprintf "Blocked1d: host %d charged %d but stores %d" h t.host_mem.(h) e))
    expected;
  (* Conflict-chain soundness: on every level, the range containing a probe
     key conflicts with the range containing it one level up. And the
     property the query walk stands on: at every cone level, the block of
     the base set holding the probe is inside the run that stabs the
     probe's range. *)
  if n > 0 then begin
    let probes = [ keys.(0) - 1; keys.(n / 2); keys.(n - 1) + 1 ] in
    let path = path_of t keys.(n / 2) in
    List.iter
      (fun q ->
        let rec walk level =
          if level > 0 then begin
            let b = path lsr (t.top - level) in
            let child = t.sets.(level).(b) in
            let parent = t.sets.(level - 1).(b / 2) in
            let child_range = L.locate child q in
            let plo, phi = L.conflict_interval ~parent ~child child_range in
            let pcode = L.locate_code parent q in
            if pcode < plo || pcode > phi then failwith "Blocked1d: conflict chain broken";
            walk (level - 1)
          end
        in
        walk t.top;
        for level = 0 to t.top do
          if not (basic level) then begin
            let base = cone_base t level and b = path lsr (t.top - level) in
            let jq = L.locate_code t.sets.(base).(path lsr (t.top - base)) q / t.bsize in
            let tbl = t.cones.(level).(b) and code = L.locate_code t.sets.(level).(b) q in
            if cone_lo tbl jq > code || cone_hi tbl jq < code then
              failwith (Printf.sprintf "Blocked1d: base block outside the cone run at level %d" level)
          end
        done)
      probes
  end

type repair_stats = Placement.repair_stats =
  { scanned : int; repaired : int; messages : int; lost : int }

(* Blocked1d's update model rebuilds the block/cone maps wholesale, so
   self-repair is: bill every copy currently stranded on a dead host —
   owner or cache copy alike, a steal from any surviving copy or a loss —
   then rebuild, which re-draws every placement over live hosts only and
   migrates the stranded charges as a side effect of re-charging. A block
   and its cone intervals share one set of copies, so each copy is billed
   once for all the units its group stores; [scanned] still counts every
   block and cone-interval entry. *)
let repair t =
  let scanned = ref 0 and bill = ref Placement.no_repair in
  iter_blocks t (fun _ _ j g ->
      incr scanned;
      let copies = g.copies.(j) in
      Array.iter
        (fun h ->
          if not (Network.alive t.net h) then
            bill := Placement.bill t.net copies ~n:(Array.length copies) ~units:g.units.(j) !bill)
        copies);
  Array.iter (Array.iter (fun tbl -> scanned := !scanned + cone_entries tbl)) t.cones;
  rebuild t t.pool (ground t);
  { !bill with scanned = !scanned }

type range_result = { keys : int list; messages : int }

let range t ~rng ~lo ~hi =
  if lo > hi then invalid_arg "Blocked1d.range: lo > hi";
  if size t = 0 then { keys = []; messages = 0 }
  else begin
    let locate = query t ~rng lo in
    (* Walk the bottom level (the full set, prefix 0) from lo's block to
       hi's, one message each time the next block's representative is a
       different host. *)
    let arr = ground t and copies = t.blocks.(0).(0).copies in
    let clo, chi = L.range_codes arr ~lo ~hi in
    let rep j = Placement.first_live t.net copies.(j) ~n:t.reps in
    let crossings = ref 0 in
    for j = (clo / t.bsize) + 1 to chi / t.bsize do
      if rep j <> rep (j - 1) then incr crossings
    done;
    let first = O.array_lower_bound arr lo in
    let keys = List.init (O.array_upper_index arr hi - first + 1) (fun d -> arr.(first + d)) in
    { keys; messages = locate.messages + !crossings }
  end
