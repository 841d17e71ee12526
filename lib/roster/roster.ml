(* The roster of the seven one-dimensional structures of the paper's
   Table 1, plus the generic hierarchy over integers: the one place the
   CLI, the Table 1 bench and the E17/E18 experiments build and drive
   them. Each entry builds its structure on a network the caller sizes
   (host counts stay with the callers) and returns one driver; [churn] is
   the one kill/query/repair epoch loop. *)

module Network = Skipweb_net.Network
module Placement = Skipweb_net.Placement
module Trace = Skipweb_net.Trace
module Pool = Skipweb_util.Pool
module Prng = Skipweb_util.Prng
module SG = Skipweb_skipgraph.Skip_graph
module NoN = Skipweb_skipgraph.Non_skip_graph
module FT = Skipweb_skipgraph.Family_tree
module DS = Skipweb_skipgraph.Det_skipnet
module BSG = Skipweb_skipgraph.Bucket_skip_graph
module B1 = Skipweb_core.Blocked1d
module HInt = Skipweb_core.Hierarchy.Make (Skipweb_core.Instances.Ints)

type entry =
  | Skip_graph
  | Non_skip_graph
  | Family_tree
  | Det_skipnet
  | Bucket_skip_graph
  | Skipweb
  | Bucket_skipweb
  | Skipweb_generic

(* Table 1's rows in the paper's order, then the generic hierarchy, under
   the names the CLI's --structure takes. *)
let entries =
  [
    ("skipgraph", Skip_graph);
    ("non", Non_skip_graph);
    ("family", Family_tree);
    ("detskipnet", Det_skipnet);
    ("bucket", Bucket_skip_graph);
    ("skipweb", Skipweb);
    ("bucket-skipweb", Bucket_skipweb);
    ("skipweb-generic", Skipweb_generic);
  ]

(* ⌈log₂ n⌉, at least 1. *)
let log2i n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

(* H of the two bucket rows: n / log n buckets, at least 2. *)
let default_buckets n = max 2 (n / log2i n)

type driver = {
  query : ?rng:Prng.t -> int -> int option * int;
      (* nearest key and messages; [rng] replaces the driver's own coin
         stream for this one query *)
  query_all : ?pool:Pool.t -> int array -> int array;
      (* messages per query: the skip-webs' batch fan-out over [pool], a
         sequential map of [query] for the overlays; the same counts as
         mapping [query] for any jobs count *)
  insert : int -> int;
  delete : int -> int;
  query_traced : (Trace.t -> int -> int option * int) option;
      (* only the skip-webs carry level-attributable traces *)
  repair : (unit -> Placement.repair_stats) option;
      (* one self-repair pass; only the skip-webs replicate *)
  check_invariants : unit -> unit;
  m : int option;  (* the blocked skip-webs' per-host memory target M *)
  net : Network.t;
}

(* Build [entry] over the distinct [keys] on [net]. Every coin a query or
   an update of the driver draws comes from one stream seeded [seed + 1].
   [m] defaults to 4⌈log₂ n⌉ for the skip-web, n/H + 4⌈log₂ H⌉ for the
   bucket skip-web; [buckets] (H) to [default_buckets n]. Only the
   skip-webs take [r], [cache] and [pool]; the blocked ones keep [pool]
   for their update rebuilds, so it must outlive the driver. *)
let build entry ~net ~seed ?m ?buckets ?r ?(cache = (0, 1)) ?pool keys =
  let n = Array.length keys in
  let buckets = match buckets with Some b -> b | None -> default_buckets n in
  let cache_levels, cache_replicas = cache in
  let rng = Prng.create (seed + 1) in
  let overlay search ~insert ~delete ~check_invariants =
    let query ?(rng = rng) q =
      let res : SG.search_result = search rng q in
      (res.nearest, res.messages)
    in
    let query_all ?pool:_ qs = Array.map (fun q -> snd (query q)) qs in
    { query; query_all; insert; delete; query_traced = None; repair = None; check_invariants; m = None; net }
  in
  let blocked m =
    let g = B1.build ~net ~seed ~m ?r ~cache_levels ~cache_replicas ?pool keys in
    let query ?trace ?(rng = rng) q =
      let res = B1.query ?trace g ~rng q in
      (res.B1.nearest, res.B1.messages)
    in
    {
      query = (fun ?rng q -> query ?rng q);
      query_all =
        (fun ?pool qs ->
          Array.map (fun (res : B1.search_result) -> res.messages) (B1.query_batch ?pool g ~rng qs));
      insert = B1.insert g;
      delete = B1.delete g;
      query_traced = Some (fun trace q -> query ~trace q);
      repair = Some (fun () -> B1.repair g);
      check_invariants = (fun () -> B1.check_invariants g);
      m = Some m;
      net;
    }
  in
  match entry with
  | Skip_graph ->
      let g = SG.create ~net ~seed ~keys in
      overlay (fun rng q -> SG.search_from_random g ~rng q) ~insert:(SG.insert g)
        ~delete:(SG.delete g) ~check_invariants:(fun () -> SG.check_invariants g)
  | Non_skip_graph ->
      let g = NoN.create ~net ~seed ~keys in
      overlay (fun rng q -> NoN.search_from_random g ~rng q) ~insert:(NoN.insert g)
        ~delete:(NoN.delete g) ~check_invariants:(fun () -> NoN.check_invariants g)
  | Family_tree ->
      let g = FT.create ~net ~seed ~keys in
      overlay (fun rng q -> FT.search g ~from:(Prng.int rng (max 1 (FT.size g))) q)
        ~insert:(FT.insert g) ~delete:(FT.delete g)
        ~check_invariants:(fun () -> FT.check_invariants g)
  | Det_skipnet ->
      (* Host 0 is the header; a query starts at a random element's host
         and pays the hop up to it. *)
      let g = DS.create ~net ~keys in
      overlay (fun rng q -> DS.search g ~from:(1 + Prng.int rng (max 1 (DS.size g))) q)
        ~insert:(DS.insert g) ~delete:(DS.delete g)
        ~check_invariants:(fun () -> DS.check_invariants g)
  | Bucket_skip_graph ->
      (* Queries and updates share the driver's one rng. *)
      let g = BSG.create ~net ~seed ~keys ~buckets in
      overlay (fun rng q -> BSG.search g ~rng q) ~insert:(BSG.insert g ~rng)
        ~delete:(BSG.delete g ~rng) ~check_invariants:(fun () -> BSG.check_invariants g)
  | Skipweb -> blocked (match m with Some m -> m | None -> 4 * log2i n)
  | Bucket_skipweb -> blocked (match m with Some m -> m | None -> (n / buckets) + (4 * log2i buckets))
  | Skipweb_generic ->
      let g = HInt.build ~net ~seed ?r ~cache_levels ~cache_replicas ?pool keys in
      let query ?trace ?(rng = rng) q =
        let answer, stats = HInt.query ?trace g ~rng q in
        (answer, stats.HInt.messages)
      in
      {
        query = (fun ?rng q -> query ?rng q);
        query_all =
          (fun ?pool qs -> Array.map (fun (_, s) -> s.HInt.messages) (HInt.query_batch ?pool g ~rng qs));
        insert = HInt.insert g;
        delete = HInt.remove g;
        query_traced = Some (fun trace q -> query ~trace q);
        repair = Some (fun () -> HInt.repair g);
        check_invariants = (fun () -> HInt.check_invariants g);
        m = None;
        net;
      }

(* ---------------- churn: kill/query/repair/revive epochs ---------------- *)

type epoch = {
  killed : Network.host list;  (* in kill order *)
  stranded : int;  (* memory charged to dead hosts, before the repair *)
  ok : int;
  failed : int;  (* walks that found every copy of a needed range dead *)
  ok_messages : int;  (* summed over the successful queries *)
  repair : Placement.repair_stats;
}

(* Run [epochs] epochs over [qs], [Array.length qs / epochs] queries each.
   An epoch kills [fails] distinct live hosts drawn from [krng] (never the
   last live one), fans its queries out over [pool] — query i draws its
   coins from [Prng.stream coins i], so a failed walk never shifts the
   coins of the others and the outcome is the same for any jobs count —
   runs one repair pass and revives the victims. Raises [Invalid_argument]
   for a driver that does not repair. *)
let churn ?pool (d : driver) ~epochs ~fails ~coins ~krng qs =
  let repair = match d.repair with Some f -> f | None -> invalid_arg "Roster.churn: no repair" in
  let net = d.net in
  let per = Array.length qs / epochs in
  let msgs = Array.make per 0 in
  List.init epochs (fun e ->
      let killed = ref [] in
      while List.length !killed < fails do
        let h = Prng.int krng (Network.host_count net) in
        if Network.alive net h && Network.live_hosts net > 1 then begin
          Network.kill net h;
          killed := h :: !killed
        end
      done;
      let stranded = Network.stranded_memory net in
      let one j =
        let i = (e * per) + j in
        msgs.(j) <-
          (match d.query ~rng:(Prng.stream coins i) qs.(i) with
          | _, m -> m
          | exception Network.Host_dead _ -> -1)
      in
      (match pool with
      | None -> for j = 0 to per - 1 do one j done
      | Some p -> Pool.parallel_for p ~lo:0 ~hi:per one);
      let ok = Array.fold_left (fun acc m -> if m >= 0 then acc + 1 else acc) 0 msgs in
      let ok_messages = Array.fold_left (fun acc m -> acc + max 0 m) 0 msgs in
      let repair = repair () in
      List.iter (Network.revive net) !killed;
      { killed = List.rev !killed; stranded; ok; failed = per - ok; ok_messages; repair })
