module Network = Skipweb_net.Network
module Trace = Skipweb_net.Trace
module Placement = Skipweb_net.Placement
module Membership = Skipweb_util.Membership
module Prng = Skipweb_util.Prng
module Pool = Skipweb_util.Pool
module Presort = Skipweb_util.Presort

module Make (S : Range_structure.S) = struct
  (* Level sets are identified by (level, prefix): the level-ℓ set with
     ℓ-bit membership prefix b holds every element whose vector starts with
     b. Level 0 is the full ground set.

     Host-side cost discipline: every update does O(levels) table work
     plus whatever [S.insert]/[S.remove] cost, never O(n) bookkeeping. The
     live-id arena supports O(1) insert/remove/uniform-sample, and memory
     charges follow the O(1) range deltas the structures report instead of
     re-diffing the full live range set per update. The hierarchy keeps no
     ledger of its own: a set's members are the keys of its structure
     ([S.size] says when an update empties it), and a set's charged ranges
     are the ids its structure's [S.iter_range_ids] enumerates — the
     range-delta contract keeps the two in step, and [check_invariants]
     re-derives both. *)

  (* A range's redraw key packs (level-set prefix, range id) into one int,
     [rid] in the low [key_bits] bits, so a lookup hashes an immediate and
     allocates nothing. A prefix or id that does not fit raises rather
     than aliasing another range's key. *)
  module Range_tbl = Hashtbl.Make (Int)

  let key_bits = 31

  let redraw_key b rid =
    if b lsr key_bits <> 0 || rid lsr key_bits <> 0 then
      invalid_arg (Printf.sprintf "Hierarchy: redraw key out of range (prefix %d, range %d)" b rid);
    (b lsl key_bits) lor rid

  let key_prefix key = key lsr key_bits
  let key_range key = key land ((1 lsl key_bits) - 1)

  (* All mutable state of one level lives in its [level_state] and nowhere
     else. That ownership boundary is what the parallel write path runs on:
     a pooled batch hands each level to its own task, and the level tasks
     share nothing but the read-only batch arrays and the network's atomic
     per-host memory counters, whose sums do not depend on the order the
     tasks charge them in — no locks needed, no interleaving visible.

     [sets] is dense, indexed by membership prefix: level ℓ has 2^ℓ slots,
     each holding its structure, or the shared empty set [absent] where
     no element carries that prefix. A prefix's first ℓ bits do not depend
     on the hierarchy's height, so growing or shrinking the top never
     re-indexes a level, and all levels together hold fewer than 4n slots
     (2^K < 2n at K = ⌈log₂ n⌉). The slots hold structures unboxed, so a
     lookup is one load fewer than through an option. Every reader of the
     sets either resolves the sets of one membership path ([resolve]),
     looks one prefix up, or folds order-independent sums and counts over
     the array.

     [redraw] holds the level's re-drawn placements, one entry per range
     that a repair ever moved: [redraw_key prefix rid] -> the redraw generation
     of each of its [slots_at level] replica slots. A range without an
     entry sits at generation 0 in every slot, and an entry always has a
     non-zero generation somewhere (a repair only creates one when it
     bumps a slot); [release] drops the entry with the range. Placement
     is therefore a pure function of the structure's state — queries,
     charging and repair all agree on where every copy is without any
     per-copy pointer state.

     [hosts] is the level's placement scratch for charging, sized for the
     most copies any range carries. The write paths that charge never
     share a level (a pooled batch runs one task per level; single-op
     writes are sequential), and the read paths never charge, so one
     buffer per level serves every charge without allocating. *)
  type level_state = {
    sets : S.t array;  (* prefix -> structure, [absent] if none *)
    redraw : int array Range_tbl.t;
    hosts : int array;
  }

  type t = {
    net : Network.t;
    place_seed : int;
    r : int;  (* replication factor: copies per range *)
    (* Read-path level cache (the NoN / bucket-skip-web trick): every
       range of the bottom [cache_levels] levels — the coarse, sparse-set
       levels every query funnels through — keeps [cache_replicas - 1]
       extra copies beyond its r data replicas. Cache copies occupy
       replica slots r .. r + cache_replicas - 2 of the same unified slot
       space, so placement, collision skipping, redraw generations and
       repair need no second mechanism. The window is anchored at level 0
       (membership prefixes only grow with the level index, so "coarse"
       means a *small* level index here), which keeps [cached_level]
       independent of [top]: growing or shrinking the hierarchy never
       shifts which levels are cached, so charges always match. *)
    cache_levels : int;  (* c: levels 0 .. c - 1 are cached *)
    cache_replicas : int;  (* k: total read copies per cached range *)
    cache_seed : int;  (* salts the per-origin slot choice *)
    vecs : Membership.t;
    mutable layers : level_state array;  (* index = level; length = top + 1 *)
    (* Swap-pop arena of the live elements: slot i < [live] holds one
       element's id in [ids] and its key in [keys], and [key_slot] maps a
       key to its slot. *)
    key_slot : (S.key, int) Hashtbl.t;
    mutable ids : int array;
    mutable keys : S.key array;
    mutable live : int;
    mutable top : int;  (* K = ceil(log2 n) *)
    mutable next_id : int;
  }

  let size t = t.live

  let levels t = t.top + 1

  (* An element's membership path: its prefix at the top level, drawn once
     per operation. Its level-ℓ set is the path's first ℓ bits,
     [path lsr (top - ℓ)]. *)
  let path_of t id = Membership.prefix t.vecs ~id ~len:t.top

  (* The one structure standing in every slot whose prefix no element
     carries, compared by [==]. It is shared by every hierarchy of this
     functor application, so no write may ever reach it: a write into an
     empty slot builds a fresh set, and a set its last key leaves is
     replaced by [absent], never emptied into it. [check_invariants]
     asserts it is still empty. *)
  let absent = S.build [||]

  let fresh_layer ~copies level =
    { sets = Array.make (1 lsl level) absent; redraw = Range_tbl.create 16; hosts = Array.make copies 0 }

  (* Fold [f] over the live structures of a level, in prefix order. *)
  let fold_sets f ly acc =
    let acc = ref acc in
    Array.iteri (fun b s -> if s != absent then acc := f b s !acc) ly.sets;
    !acc

  let iter_sets f ly = fold_sets (fun b s () -> f b s) ly ()

  (* Write the set of every level on one membership path into [sets],
     level ℓ at index ℓ, and return how many of them are empty. Which set
     a walk reads at a level depends on the path alone, never on what the
     level above answered, so one pass resolves them all before the first
     search: the loads of different levels do not wait on each other, and
     the CPU keeps them in flight together instead of taking one cache
     miss after another inside the walk. Reading each set's [S.size] (O(1)
     by the {!Range_structure} contract) brings its header in on the same
     pass. *)
  let resolve t path sets =
    let empty = ref 0 in
    for level = 0 to t.top do
      let s = t.layers.(level).sets.(path lsr (t.top - level)) in
      sets.(level) <- s;
      if S.size s = 0 then incr empty
    done;
    !empty

  (* Is this level in the cache window, with an active cache? With
     [cache_replicas = 1] (the default) this is false everywhere, and
     every loop below collapses to its pre-cache bounds — the bit-identical
     k = 1 contract. *)
  let cached_level t level = t.cache_replicas > 1 && level < t.cache_levels

  (* How many copies (data replicas + cache copies) a range at this level
     carries: the loop bound for charging, repair and the invariant
     cross-check, and the length of a redraw entry. *)
  let slots_at t level = if cached_level t level then t.r + t.cache_replicas - 1 else t.r

  (* The range's redraw generations, or [None] when it never moved. *)
  let generations t level b rid =
    let redraw = t.layers.(level).redraw in
    if Range_tbl.length redraw = 0 then None else Range_tbl.find_opt redraw (redraw_key b rid)

  (* Host of slot [s] at generation [g]: the shared placement draw, salted
     by [place_seed] and the slot, skipping the hosts [hosts.(0 .. s - 1)]
     of the range's earlier slots but not dead hosts (repair bumps [g]
     instead). So the copies of a range always occupy distinct hosts, and
     killing at most r - 1 hosts can never destroy every copy of anything.
     At slot 0, generation 0 this is exactly the historical single-copy
     hash — the bit-identical zero-failure contract. *)
  let draw_slot t level b rid hosts s g =
    Placement.draw t.net ~seed:t.place_seed ~slot:s ~level ~prefix:b ~id:rid ~hosts ~taken:s
      ~skip_dead:false g

  (* The placement kernel: fill [hosts.(0 .. n - 1)] with the hosts of
     slots [0 .. n - 1] of a range, slot s at generation [gens.(s)] (every
     slot at 0 when [gens] is empty), in one ascending pass — each slot's
     draw skips the hosts of the slots already filled. Every consumer
     (charging, routing, cache reads, repair, the invariant check) places
     copies through this, so they all agree. *)
  let place t level b rid hosts n gens =
    let moved = Array.length gens > 0 in
    for s = 0 to n - 1 do
      hosts.(s) <- draw_slot t level b rid hosts s (if moved then gens.(s) else 0)
    done

  let replica_hosts t level b rid hosts n =
    place t level b rid hosts n (match generations t level b rid with None -> [||] | Some g -> g)

  (* Host of the primary. Slot 0 has no earlier slot to collide with, so
     it is served from an empty [hosts] and, while the level has never
     been repaired, without a table lookup. *)
  let primary_host t level b rid =
    draw_slot t level b rid [||] 0
      (match generations t level b rid with None -> 0 | Some gens -> gens.(0))

  (* Where a query originating at element [origin] reads a range, by the
     shared [Placement.read] rule over its slot hosts. The slot is the
     origin's deterministic per-origin cache slot at cached levels and 0
     elsewhere: slot 0 is the primary, or — mid-walk failover — the first
     live replica when the primary is dead; slot s >= 1 is the cache copy
     at unified slot r - 1 + s, falling back to failover when that copy
     is dead. The no-failure primary read draws slot 0 alone. Pure in
     (cache_seed, origin, level), so a fixed-parameter run is
     bit-identical and jobs-invariant, and with the cache off
     ([replica_slot] returns 0 for k <= 1) every read is the primary
     path. Different origins spread over all k copies, which is what
     splits a hot coarse-level range's load k ways. *)
  let read_host t origin level b rid =
    let s =
      if cached_level t level then
        Placement.replica_slot ~seed:t.cache_seed ~origin ~level ~k:t.cache_replicas
      else 0
    in
    let h0 = if s = 0 then primary_host t level b rid else -1 in
    if h0 >= 0 && Network.alive t.net h0 then h0
    else begin
      let hosts = Array.make (t.r + s) 0 in
      replica_hosts t level b rid hosts (t.r + s);
      Placement.read t.net hosts ~data:t.r ~slot:s
    end

  (* Charge (or release) one unit on every copy of a range — data replicas
     and, at cached levels, the cache copies too. *)
  let charge_replicas t ~charge level b rid k =
    let n = slots_at t level in
    if n = 1 then charge (primary_host t level b rid) k
    else begin
      let hosts = t.layers.(level).hosts in
      replica_hosts t level b rid hosts n;
      for j = 0 to n - 1 do
        charge hosts.(j) k
      done
    end

  (* Release every copy of a dying range, then drop its redraw entry, so
     a later range reusing the same (level, b, rid) code starts from
     generation 0 again. *)
  let release t ~charge level b rid =
    charge_replicas t ~charge level b rid (-1);
    let redraw = t.layers.(level).redraw in
    if Range_tbl.length redraw > 0 then Range_tbl.remove redraw (redraw_key b rid)

  (* ------- live-id arena: O(1) insert / remove / uniform sample ------- *)

  (* Register a fresh key: draw its id and give it the next arena slot.
     Ids are handed out in presentation order, and the id fixes the
     element's membership vector — every entry point (build, insert,
     insert_batch) must agree on this order for a bulk load to be
     indistinguishable from the same keys arriving one at a time.
     Registration is the coin-drawing step, so it always runs
     sequentially before any level task starts: the membership bits
     [Membership.prefix] derives from (seed, id, level) can never depend
     on how the levels are later scheduled. A write to a non-empty
     hierarchy registers a key only after level 0 accepted it, so a key
     level 0 rejects draws no id. *)
  let register t k =
    if t.live = Array.length t.ids then begin
      let ids = Array.make (max 8 (2 * t.live)) 0 and keys = Array.make (max 8 (2 * t.live)) k in
      Array.blit t.ids 0 ids 0 t.live;
      Array.blit t.keys 0 keys 0 t.live;
      t.ids <- ids;
      t.keys <- keys
    end;
    t.ids.(t.live) <- t.next_id;
    t.keys.(t.live) <- k;
    Hashtbl.replace t.key_slot k t.live;
    t.live <- t.live + 1;
    t.next_id <- t.next_id + 1

  (* Drop a stored key: the last live element moves into its slot. *)
  let arena_remove t k =
    let i = Hashtbl.find t.key_slot k and last = t.live - 1 in
    t.ids.(i) <- t.ids.(last);
    t.keys.(i) <- t.keys.(last);
    Hashtbl.replace t.key_slot t.keys.(i) i;
    Hashtbl.remove t.key_slot k;
    t.live <- last

  (* The membership paths at [t.top] of stored keys. *)
  let paths_of t ks = Array.map (fun k -> path_of t t.ids.(Hashtbl.find t.key_slot k)) ks

  let sample_id t rng = t.ids.(Prng.int rng t.live)

  (* ------- incremental memory accounting ------- *)

  (* The charge sink of every write path but the bulk level build: the
     network's atomic per-host counter, safe from concurrent level tasks
     because a level only ever releases copies of its own ranges. *)
  let direct_charge t h k = Network.charge_memory t.net h k

  (* Charge every range of a freshly built level structure. *)
  let charge_fresh t ~charge level b s =
    S.iter_range_ids s ~f:(fun rid -> charge_replicas t ~charge level b rid 1)

  (* Release every charge of one level set (structure dropped or level
     shrunk away). *)
  let uncharge_set t ~charge level b s = S.iter_range_ids s ~f:(release t ~charge level b)

  (* Apply an O(1) range delta reported by [S.insert]/[S.remove]: the only
     memory traffic an update generates. The delta is trusted to be exact
     (the {!Range_structure} contract); [check_invariants] catches one that
     is not. *)
  let apply_delta t ~charge level b (d : Range_structure.range_delta) =
    List.iter (fun rid -> charge_replicas t ~charge level b rid 1) d.Range_structure.added;
    List.iter (release t ~charge level b) d.Range_structure.removed

  let required_top n =
    let rec go k = if 1 lsl k >= max 1 n then k else go (k + 1) in
    go 0

  (* The ground set as the bulk level builder reads it: the live keys,
     beside each element's path at [t.top]. With [sorted] they come in
     the structure's own order ([S.order] of their probes): [iter_groups]
     is stable, so every level set's [S.build] receives its keys already
     sorted and its presort is one pass. Otherwise, and always for an
     order-sensitive structure (the trapezoidal map numbers trapezoids in
     array order, so its [S.order] is the identity), they come in arena
     slot order: presentation order after a bulk load, with removals
     moving the last slot into the freed one. No hash order is read. *)
  let snapshot t ~sorted =
    let keys = Array.sub t.keys 0 t.live in
    let order = if sorted then S.order (Array.map S.probe keys) else Array.init t.live Fun.id in
    (Array.map (fun i -> keys.(i)) order, Array.map (fun i -> path_of t t.ids.(i)) order)

  (* The one prefix-grouping kernel: a stable counting sort of (keys,
     paths) by level prefix, then [f b ks] once per non-empty group [b],
     with [ks] in input order — so a sorted batch hands every set its keys
     ascending, and the bulk build hands [S.build] the snapshot's order.
     Groups come in ascending prefix order, though no caller depends on
     that: each group touches only its own set. The sort costs O(2^level)
     beside O(batch), the size of the level's own set table, so a batch
     of at most one key (every single write) skips it. *)
  let iter_groups t (keys, paths) level f =
    let shift = t.top - level and sets = 1 lsl level in
    if Array.length keys <= 1 then Array.iteri (fun i k -> f (paths.(i) lsr shift) [| k |]) keys
    else begin
      let start = Array.make (sets + 1) 0 in
      Array.iter (fun p -> start.((p lsr shift) + 1) <- start.((p lsr shift) + 1) + 1) paths;
      for b = 1 to sets do
        start.(b) <- start.(b) + start.(b - 1)
      done;
      let order = Array.make (Array.length keys) 0 in
      Array.iteri
        (fun i p ->
          let b = p lsr shift in
          order.(start.(b)) <- i;
          start.(b) <- start.(b) + 1)
        paths;
      (* Placing the keys moved every [start.(b)] to the end of group b. *)
      let lo = ref 0 in
      while !lo < Array.length order do
        let b = paths.(order.(!lo)) lsr shift in
        let first = !lo in
        f b (Array.init (start.(b) - first) (fun i -> keys.(order.(first + i))));
        lo := start.(b)
      done
    end

  (* Build every set of one level from a snapshot: one [S.build] per
     prefix group. The sets are stored, and their copies summed into a
     dense per-host array and charged once per host, only once every
     build of the level has succeeded, so a rejected key leaves the level
     untouched. Writes only this level's state, so levels build
     concurrently. *)
  let build_level t snap level =
    let built = ref [] in
    iter_groups t snap level (fun b ks -> built := (b, S.build ks) :: !built);
    let ly = t.layers.(level).sets and per_host = Array.make (Network.host_count t.net) 0 in
    let add h k = per_host.(h) <- per_host.(h) + k in
    List.iter
      (fun (b, s) ->
        ly.(b) <- s;
        charge_fresh t ~charge:add level b s)
      !built;
    Array.iteri (fun h k -> if k <> 0 then direct_charge t h k) per_host

  (* The one update step of a level set, run once per prefix group by
     [insert_batch] (and so by [insert]) on the set [s] in slot [b]: an
     existing set takes the keys one [S.insert] at a time, in the order
     given, each delta charged as it comes — a batch is §4's single-key
     step repeated, and per-host memory is an order-independent sum, so
     the grouping never shows in the charges. A set the update creates
     from nothing takes one canonical [S.build] over the keys. *)
  let insert_group t level b s ks =
    let charge = direct_charge t in
    if s == absent then begin
      let s = S.build ks in
      t.layers.(level).sets.(b) <- s;
      charge_fresh t ~charge level b s
    end
    else Array.iter (fun k -> apply_delta t ~charge level b (S.insert s k)) ks

  (* The mirror of [insert_group]: a set whose every key goes is dropped
     outright, releasing every charge it held (the same net charges as
     removing its keys one at a time). *)
  let remove_group t level b s ks =
    let charge = direct_charge t in
    if s == absent then failwith "Hierarchy.remove: missing structure"
    else if S.size s = Array.length ks then begin
      t.layers.(level).sets.(b) <- absent;
      uncharge_set t ~charge level b s
    end
    else Array.iter (fun k -> apply_delta t ~charge level b (S.remove s k)) ks

  (* Run [f] on every level in [lo .. top]: in order on the calling
     domain, or with a pool as one task per level. Level ℓ holds ~n/2^ℓ
     keys, so tasks are claimed heaviest first and level 0 starts at
     once. Each level task writes only its own [level_state] and charges
     memory straight into the network's atomic per-host counters; the
     charges are sums, so per-host memory is bit-identical to the
     sequential loop for any jobs count. *)
  let run_levels ?pool ?(lo = 0) t f =
    match pool with
    | None ->
        for level = lo to t.top do
          f level
        done
    | Some p ->
        let n = size t in
        let weights = Array.init (t.top - lo + 1) (fun i -> (n lsr (lo + i)) + 1) in
        Pool.parallel_for_tasks p ~weights (fun i -> f (lo + i))

  (* Run [group level b s ks] on levels [lo .. top] once per level set a
     sorted batch of stored or fresh keys touches, [s] the set in slot
     [b]. *)
  let write_levels ?pool ?lo t batch group =
    run_levels ?pool ?lo t (fun level ->
        let ly = t.layers.(level).sets in
        iter_groups t batch level (fun b ks -> group level b ly.(b) ks))

  (* The one bulk level builder: build levels [lo .. K] from scratch over
     the whole ground set, K = ⌈log₂ n⌉ — every level for a batch landing
     in an empty hierarchy, the new top levels when the hierarchy grows.
     Only a full build sorts its snapshot. The new top levels' sets hold
     a key or two each, so their builds gain nothing from sorted input,
     and the sort of all n keys is pure cost: a one-key insert that grows
     a 2-d hierarchy of 2^16 points took a median 106-137 ms with arena
     order and 156-185 ms with the sort (EXPERIMENTS.md, "Read batches
     in the structure's own order"). *)
  let build_levels ?pool t lo =
    let wanted = required_top (size t) in
    let copies = t.r + t.cache_replicas - 1 in
    t.layers <-
      Array.init (wanted + 1) (fun l -> if l < lo then t.layers.(l) else fresh_layer ~copies l);
    t.top <- wanted;
    let snap = snapshot t ~sorted:(lo = 0) in
    run_levels ?pool ~lo t (build_level t snap)

  let grow_top ?pool t = if t.top < required_top (size t) then build_levels ?pool t (t.top + 1)

  (* The one write step of every insertion, [insert]'s included. Into a
     non-empty hierarchy: level 0's single set takes the fresh keys one
     at a time in sorted order, and stops at the first key it rejects;
     the keys it accepted are registered in presentation order and
     streamed through levels 1 .. top, one group per level set (with a
     pool, one task per level), and only then does the rejection
     propagate. Level 0 holds every key and each rejection is monotone
     under subsets, so no higher level can reject what level 0 took.
     Into an empty hierarchy the batch is registered and built by the
     bulk level builder, all levels in one fan-out; a rejection there
     releases every built level and hands back every id, leaving the
     hierarchy empty. Pure host-side work — no query routing, hence no
     messages; returns the number of keys inserted. *)
  let insert_batch ?pool t keys =
    let stored k = Hashtbl.mem t.key_slot k in
    let fresh = Array.of_seq (Seq.filter (fun k -> not (stored k)) (Array.to_seq keys)) in
    let register_fresh admit =
      Array.iter (fun k -> if admit k && not (stored k) then register t k) fresh
    in
    if Array.length fresh = 0 then 0
    else if size t = 0 then begin
      let first = t.next_id in
      register_fresh (fun _ -> true);
      (try build_levels ?pool t 0
       with e ->
         Array.iteri (fun l -> iter_sets (uncharge_set t ~charge:(direct_charge t) l)) t.layers;
         Hashtbl.reset t.key_slot;
         t.live <- 0;
         t.next_id <- first;
         build_levels t 0 (* back to one empty level *);
         raise e);
      size t
    end
    else begin
      let sorted = Presort.sorted_distinct ?pool ~cmp:compare fresh and taken = ref 0 in
      let rejection =
        try
          let ground = t.layers.(0).sets.(0) in
          Array.iter (fun k -> insert_group t 0 0 ground [| k |]; incr taken) sorted;
          None
        with e -> Some e
      in
      register_fresh (fun k -> !taken = Array.length sorted || compare k sorted.(!taken) < 0);
      let added = Array.sub sorted 0 !taken in
      let batch = (added, paths_of t added) in
      write_levels ?pool ~lo:1 t batch (insert_group t);
      grow_top ?pool t;
      Option.iter raise rejection;
      !taken
    end

  let build ~net ~seed ?(p = 0.5) ?(r = 1) ?(cache_levels = 0) ?(cache_replicas = 1) ?pool keys
      =
    if r < 1 then invalid_arg "Hierarchy.build: r >= 1";
    if r > Network.host_count net then invalid_arg "Hierarchy.build: r exceeds host count";
    if cache_levels < 0 then invalid_arg "Hierarchy.build: cache_levels >= 0";
    if cache_replicas < 1 then invalid_arg "Hierarchy.build: cache_replicas >= 1";
    if r + cache_replicas - 1 > Network.host_count net then
      invalid_arg "Hierarchy.build: r + cache_replicas - 1 exceeds host count";
    let vecs = if p = 0.5 then Membership.create ~seed else Membership.biased ~seed ~p in
    let t =
      {
        net;
        place_seed = seed + 0x5157;
        r;
        cache_levels;
        cache_replicas;
        cache_seed = seed + 0xca4e;
        vecs;
        layers = [| fresh_layer ~copies:(r + cache_replicas - 1) 0 |];
        key_slot = Hashtbl.create 64;
        ids = [||];
        keys = [||];
        live = 0;
        top = 0;
        next_id = 0;
      }
    in
    ignore (insert_batch ?pool t keys);
    t

  (* ------- self-repair ------- *)

  (* One repair pass: for every live range and every replica slot whose
     current host is dead, bump the slot's redraw generation until its
     placement lands on a live host, migrate the memory charge off the
     dead host, and bill one copy message for stealing the range from a
     surviving replica (rainbow-style repair: any live copy can seed the
     new one). A slot with {e no} surviving replica is counted in [lost]
     instead of [messages] — the simulator re-materializes it so the
     structure stays whole, but a real deployment would have lost that
     range; with r >= 2 and at most r - 1 concurrent failures per epoch,
     [lost] is always 0.

     Liveness is read once per host into a snapshot, and two passes per
     level keep the walk over every range free of table lookups:
     + every range holding a redraw entry is re-placed from its
       generations and repaired (the table is iterated, not probed);
     + every live range is tested on its raw generation-0 draws, from
       hash prefixes kept per (set, slot) in an unboxed table. When those
       draws land on distinct live hosts they are the range's placement
       (no slot skips a collision), so the range has nothing to repair —
       whether or not it holds an entry, which the first pass saw. Only a
       range whose raw draws hit a dead host or repeat one is placed by
       the kernel and, when a copy is dead, probes the table: one with an
       entry was the first pass's, one without is repaired here. Testing
       first keeps the kernel's draw call out of the loop most ranges
       run, which measured faster than placing every range through it
       (EXPERIMENTS.md, "Repair in one exact pass").
     [scanned] counts the second pass, so every live range once. The
     range visitor is one closure per call, told the current set
     through refs, so the pass allocates O(levels) words beside the
     snapshot, plus the entries and bills of the copies it moves.

     A range's new generations are drawn in scratch space and written,
     with its charges, only once every slot has landed: when
     [Placement.draw] gives up partway (too few live hosts among many),
     every range is either re-homed or untouched, never half-moved.

     The repair bill is reported in the returned stats, not pushed through
     sessions: repair is host-side maintenance (like memory charges),
     metered separately from the query workload so availability metrics
     stay clean. Must not run concurrently with queries or updates. *)
  type repair_stats = Placement.repair_stats =
    { scanned : int; repaired : int; messages : int; lost : int }

  let repair t =
    (* Level 0 carries the most copies per range and is non-empty
       whenever the hierarchy is: with fewer live hosts than its copies,
       no placement exists, so refuse before anything moves. *)
    if size t > 0 && slots_at t 0 > Network.live_hosts t.net then
      invalid_arg "Hierarchy.repair: fewer live hosts than copies per range";
    let hc = Network.host_count t.net and most = t.r + t.cache_replicas - 1 in
    let live = Bytes.make hc '\000' in
    for h = 0 to hc - 1 do
      if Network.alive t.net h then Bytes.set live h '\001'
    done;
    let alive h = Bytes.get live h <> '\000' in
    let scanned = ref 0 and bill = ref Placement.no_repair in
    let old = Array.make most 0 and fresh = Array.make most 0 and next = Array.make most 0 in
    let prefixes = Prng.prefixes most in
    let any_dead slots =
      let x = ref 0 in
      while !x < slots && alive old.(!x) do
        incr x
      done;
      !x < slots
    in
    (* Re-home a range whose placement [old] has a dead copy: every copy
       counts — its r data replicas plus, at cached levels, the cache
       copies, so a cache copy on a dead host is re-drawn with the same
       collision-skipping generation scheme and billed like any other
       steal, and the cache never silently survives on dead hosts. *)
    let rehome level b rid slots gens =
      (* Bump each dead slot's generation until its placement lands live,
         in one [Placement.redraw] walk per slot. Ascending slot order: a
         bumped slot can shift the admissible enumeration of *later* slots
         only, so one ascending pass settles every slot. The bumps go to
         [next]; [gens] takes them only after the last slot has landed. *)
      for j = 0 to slots - 1 do
        let h, g =
          Placement.redraw t.net ~seed:t.place_seed ~slot:j ~level ~prefix:b ~id:rid ~hosts:fresh
            ~taken:j gens.(j)
        in
        fresh.(j) <- h;
        next.(j) <- g
      done;
      Array.blit next 0 gens 0 slots;
      (* Migrate charges by placement diff — which also catches a live
         slot whose admissible draw shifted because an earlier slot of the
         same range moved — and bill each moved copy. *)
      for j = 0 to slots - 1 do
        if fresh.(j) <> old.(j) then begin
          Network.charge_memory t.net old.(j) (-1);
          Network.charge_memory t.net fresh.(j) 1;
          bill := Placement.bill t.net old ~n:slots ~units:1 !bill
        end
      done
    in
    (* The set the visitor walks: its level, slot count, prefix and
       level state. *)
    let level = ref 0 and slots = ref 0 and b = ref 0 and ly = ref t.layers.(0) in
    let visit rid =
      incr scanned;
      let n = !slots and clean = ref true in
      for j = 0 to n - 1 do
        let h = Prng.hash3_at prefixes j rid mod hc in
        if not (alive h) then clean := false;
        for x = 0 to j - 1 do
          if old.(x) = h then clean := false
        done;
        old.(j) <- h
      done;
      if not !clean then begin
        place t !level !b rid old n [||];
        if any_dead n then begin
          let key = redraw_key !b rid in
          if not (Range_tbl.mem !ly.redraw key) then begin
            let gens = Array.make n 0 in
            rehome !level !b rid n gens;
            Range_tbl.replace !ly.redraw key gens
          end
        end
      end
    in
    Array.iteri
      (fun l state ->
        let n = slots_at t l in
        Range_tbl.iter
          (fun key gens ->
            let b = key_prefix key and rid = key_range key in
            place t l b rid old n gens;
            if any_dead n then rehome l b rid n gens)
          state.redraw;
        level := l;
        slots := n;
        ly := state;
        iter_sets
          (fun p s ->
            b := p;
            for j = 0 to n - 1 do
              Prng.set_prefix prefixes j
                (Placement.salt ~seed:t.place_seed ~slot:j ~raw:0)
                (Placement.code ~level:l ~prefix:p)
            done;
            S.iter_range_ids s ~f:visit)
          state)
      t.layers;
    { !bill with scanned = !scanned }

  let level_set_sizes t level = fold_sets (fun _ s acc -> S.size s :: acc) t.layers.(level) []

  let total_storage t =
    Array.fold_left
      (fun acc ly -> fold_sets (fun _ s acc -> acc + S.storage_units s) ly acc)
      0 t.layers

  type query_stats = { messages : int; ranges_visited : int; per_level_visits : int list }

  (* Route a query from the top-level set of the given element down to
     level 0; the session's host pointer tracks where processing happens.
     Shared by point queries and scans: returns the still-open session
     (the caller charges any further walk, then finishes it), the level-0
     location and structure, and the visit accounting (per-level counts
     in level-0-first order).

     Tracing discipline: one leveled span per refinement step, closed with
     the step's conflict-set size, and every hop labeled with the
     structure's walk kind. All trace work is guarded on [trace], so an
     untraced query allocates and branches exactly as before. *)
  let routed_descent ?trace t origin_id q =
    let path = path_of t origin_id in
    let sets = Array.make (t.top + 1) absent in
    if resolve t path sets > 0 then
      failwith "Hierarchy: missing level structure on an element's path";
    let b_top = path in
    let s_top = sets.(t.top) in
    let loc0, visited0 = S.locate s_top q in
    let start_host =
      match visited0 with
      | rid :: _ -> read_host t origin_id t.top b_top rid
      | [] -> read_host t origin_id t.top b_top 0
    in
    let session = Network.start ?trace t.net start_host in
    let goto_label = match trace with None -> None | Some _ -> Some S.visit_label in
    (match trace with
    | None -> ()
    | Some tr -> Trace.span_open tr ~level:t.top ("locate " ^ S.name));
    List.iter
      (fun rid -> Network.goto ?label:goto_label session (read_host t origin_id t.top b_top rid))
      visited0;
    (match trace with
    | None -> ()
    | Some tr ->
        Trace.span_close tr ~note:(Printf.sprintf "conflicts=%d" (List.length visited0)) ());
    let per_level = ref [ List.length visited0 ] in
    let total = ref (List.length visited0) in
    let step level visited =
      let b = path lsr (t.top - level) in
      (match trace with
      | None -> ()
      | Some tr -> Trace.span_open tr ~level ("refine " ^ S.name));
      List.iter
        (fun rid -> Network.goto ?label:goto_label session (read_host t origin_id level b rid))
        visited;
      (match trace with
      | None -> ()
      | Some tr ->
          Trace.span_close tr ~note:(Printf.sprintf "conflicts=%d" (List.length visited)) ());
      per_level := List.length visited :: !per_level;
      total := !total + List.length visited
    in
    let loc_final = S.refine_path sets loc0 q ~f:step in
    (session, loc_final, sets.(0), !per_level, !total)

  let query_from ?trace t origin_id q =
    let session, loc_final, s_final, per_level, total = routed_descent ?trace t origin_id q in
    Network.finish session;
    let answer = S.answer s_final loc_final q in
    ( answer,
      {
        messages = Network.messages session;
        ranges_visited = total;
        per_level_visits = List.rev per_level;
      } )

  let query ?trace t ~rng q =
    if size t = 0 then invalid_arg "Hierarchy.query: empty structure";
    query_from ?trace t (sample_id t rng) q

  (* Multi-result scans (range counts, k-NN, prefix enumeration): route
     the scan's probe down to level 0 exactly like a point query, then run
     the structure's scan walk there, charging each range it visits as a
     hop from the session's current host. The extra visits land in level
     0's per-level entry, so scan stats decompose like query stats. *)
  let scan_from ?trace t origin_id sc =
    let q = S.scan_probe sc in
    let session, loc0, s0, per_level, total = routed_descent ?trace t origin_id q in
    (match trace with
    | None -> ()
    | Some tr -> Trace.span_open tr ~level:0 ("scan " ^ S.name));
    let ans, visited = S.scan s0 loc0 sc in
    let goto_label = match trace with None -> None | Some _ -> Some S.visit_label in
    List.iter
      (fun rid -> Network.goto ?label:goto_label session (read_host t origin_id 0 0 rid))
      visited;
    (match trace with
    | None -> ()
    | Some tr -> Trace.span_close tr ~note:(Printf.sprintf "ranges=%d" (List.length visited)) ());
    Network.finish session;
    let nv = List.length visited in
    let per_level = match per_level with l0 :: rest -> (l0 + nv) :: rest | [] -> [ nv ] in
    ( ans,
      {
        messages = Network.messages session;
        ranges_visited = total + nv;
        per_level_visits = List.rev per_level;
      } )

  let scan ?trace t ~rng sc =
    if size t = 0 then invalid_arg "Hierarchy.scan: empty structure";
    scan_from ?trace t (sample_id t rng) sc

  (* Fan-out of independent queries or scans. Origins are pre-drawn
     sequentially from the caller's rng, in input order — [query] and
     [scan] consume exactly one draw per call, so the batch sees the same
     coin sequence a sequential loop would. The walks then run in the
     structure's own order of their probes ([S.order]), so consecutive
     walks read nearby ranges, and each result goes back to its input
     position. Each walk is a pure read-only walk committing its session
     via the network's atomic counters, so answers, stats and network
     totals are bit-identical to the loop for any jobs count, including
     [pool = None]: the order changes only the wall clock. *)
  let fan_out ?pool t ~rng ~name ~probe walk xs =
    let n = Array.length xs in
    if n > 0 && size t = 0 then invalid_arg (name ^ ": empty structure");
    let walks = Array.init n (fun i -> (sample_id t rng, xs.(i))) in
    Pool.map_in_order ?pool
      ~order:(S.order (Array.map probe xs))
      (fun (origin, x) -> walk t origin x)
      walks

  let scan_batch ?pool t ~rng scs =
    fan_out ?pool t ~rng ~name:"Hierarchy.scan_batch" ~probe:S.scan_probe (scan_from ?trace:None)
      scs

  let query_batch ?pool t ~rng qs =
    fan_out ?pool t ~rng ~name:"Hierarchy.query_batch" ~probe:Fun.id (query_from ?trace:None) qs

  (* The counterpart of [grow_top]: after deletions the required number of
     levels shrinks, so dead levels must be dropped — otherwise the
     hierarchy pays their linking messages and per-host memory forever.
     With per-level state this is: release every charge the dying layers
     hold, then truncate the layer array. *)
  let shrink_top t =
    let wanted = required_top (size t) in
    if t.top > wanted then begin
      for level = wanted + 1 to t.top do
        iter_sets (uncharge_set t ~charge:(direct_charge t) level) t.layers.(level)
      done;
      t.layers <- Array.sub t.layers 0 (wanted + 1);
      t.top <- wanted
    end

  (* A single write is its §4 bill — a locate, routed as a probe query
     from an origin drawn off the element's id (none in an empty
     hierarchy), plus O(1) linking messages per level, read before the
     write moves the top — and then the batch write step on one key. *)
  let bill t ~seed k =
    let locate =
      if size t = 0 then 0
      else (snd (query_from t (sample_id t (Prng.create seed)) (S.probe k))).messages
    in
    locate + (2 * (t.top + 1))

  let insert t k =
    if Hashtbl.mem t.key_slot k then 0
    else begin
      let cost = bill t ~seed:(t.next_id + 77) k in
      ignore (insert_batch t [| k |] : int);
      cost
    end

  (* Bulk deletion, the mirror of [insert_batch]: one sorted sweep per
     level (fanned over the pool when one is given) through [remove_group],
     then the arena drops the keys in presentation order, and one
     hierarchy shrink ends the batch. Host-side only; returns the number
     of keys actually removed. *)
  let remove_batch ?pool t keys =
    let victims = Array.of_seq (Seq.filter (Hashtbl.mem t.key_slot) (Array.to_seq keys)) in
    let victims = Presort.sorted_distinct ?pool ~cmp:compare victims in
    if Array.length victims > 0 then begin
      let batch = (victims, paths_of t victims) in
      write_levels ?pool t batch (remove_group t);
      Array.iter (fun k -> if Hashtbl.mem t.key_slot k then arena_remove t k) keys;
      shrink_top t
    end;
    Array.length victims

  let remove t k =
    match Hashtbl.find_opt t.key_slot k with
    | None -> 0
    | Some slot ->
        let cost = bill t ~seed:(t.ids.(slot) + 991) k in
        ignore (remove_batch t [| k |] : int);
        cost

  let mean_refinement_work t ~queries ~rng =
    let total = ref 0 and count = ref 0 in
    Array.iter
      (fun q ->
        let _, stats = query t ~rng q in
        total := !total + stats.ranges_visited;
        count := !count + List.length stats.per_level_visits)
      queries;
    if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

  let check_invariants t =
    let n = size t in
    if S.size absent <> 0 then failwith "Hierarchy: a write reached the shared empty set";
    if Array.length t.layers <> t.top + 1 then
      failwith "Hierarchy: layer array out of sync with top";
    if t.top <> required_top n then failwith "Hierarchy: top out of sync with size";
    (* Arena: exactly the live keys, each knowing its slot. *)
    if Hashtbl.length t.key_slot <> n then
      failwith "Hierarchy: id arena size disagrees with ground set";
    for i = 0 to t.live - 1 do
      if Hashtbl.find_opt t.key_slot t.keys.(i) <> Some i then
        failwith "Hierarchy: id arena slot broken"
    done;
    (* Every level partitions the ground set: recount the live ids per
       prefix from their paths; each non-empty prefix has a structure of
       exactly that size, and no other prefix has one. *)
    let paths = Array.init t.live (fun i -> path_of t t.ids.(i)) in
    for level = 0 to t.top do
      let counts = Array.make (1 lsl level) 0 in
      Array.iter
        (fun p ->
          let b = p lsr (t.top - level) in
          counts.(b) <- counts.(b) + 1)
        paths;
      let ly = t.layers.(level).sets in
      if Array.length ly <> Array.length counts then
        failwith "Hierarchy: level table length is not 2^level";
      Array.iteri
        (fun b c ->
          let s = ly.(b) in
          if s == absent then (if c > 0 then failwith "Hierarchy: missing structure")
          else begin
            if c = 0 then failwith "Hierarchy: structure for an empty level set";
            if S.size s <> c then failwith "Hierarchy: structure size disagrees with level set"
          end)
        counts
    done;
    (* Cross-check every copy of every live range against the simulator's
       per-host memory, which the updates charged from range deltas.
       (Assumes this hierarchy is the only structure charging this
       network, which holds in the test harnesses.) On the way, count the
       live ranges holding a redraw entry: every entry must belong to one,
       or a range reusing a dead range's code would inherit its redraws.
       Every key must also decode to a set of its level and encode back to
       itself, so a wrapped key cannot stand in for a live range's. *)
    let expected = Array.make (Network.host_count t.net) 0 in
    let hosts = Array.make (t.r + t.cache_replicas - 1) 0 in
    Array.iteri
      (fun level ly ->
        let slots = slots_at t level and owned = ref 0 in
        iter_sets
          (fun b s ->
            S.iter_range_ids s ~f:(fun rid ->
                if Range_tbl.mem ly.redraw (redraw_key b rid) then incr owned;
                replica_hosts t level b rid hosts slots;
                for j = 0 to slots - 1 do
                  expected.(hosts.(j)) <- expected.(hosts.(j)) + 1
                done))
          ly;
        if !owned <> Range_tbl.length ly.redraw then
          failwith (Printf.sprintf "Hierarchy: stale redraw entry at level %d" level);
        Range_tbl.iter
          (fun key gens ->
            let b = key_prefix key in
            if b >= Array.length ly.sets || ly.sets.(b) == absent
               || redraw_key b (key_range key) <> key
            then failwith (Printf.sprintf "Hierarchy: redraw key %d names no set at level %d" key level);
            if Array.length gens <> slots || Array.for_all (( = ) 0) gens then
              failwith (Printf.sprintf "Hierarchy: malformed redraw entry at level %d" level))
          ly.redraw)
      t.layers;
    Array.iteri
      (fun h e ->
        if Network.memory t.net h <> e then
          failwith
            (Printf.sprintf "Hierarchy: host %d memory %d but charged %d" h
               (Network.memory t.net h) e))
      expected
end
