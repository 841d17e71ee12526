(* Tests for the roster: the seven Table 1 structures and the generic
   hierarchy, built on the same seeded keys, must agree with the sorted
   key set and with themselves.

     - every query's answer is the sorted set's nearest key
       ([Linklist.nearest]);
     - [query_all] at jobs 1 and at jobs 2 bills, query by query, what a
       loop of [query] bills on a twin build;
     - after a round of inserts of fresh keys and deletes (half of them,
       and as many stored keys), the invariants hold and every answer is
       still the nearest key of the updated set. *)

module Network = Skipweb_net.Network
module R = Skipweb_roster.Roster
module Lk = Skipweb_linklist.Linklist
module W = Skipweb_workload.Workload
module Pool = Skipweb_util.Pool

let n = 512
let keys = W.distinct_ints ~seed:11 ~n ~bound:(100 * n)
let qs = W.query_mix ~seed:12 ~keys ~n:300 ~bound:(100 * n)

(* Hosts enough for every entry's build and the update round. *)
let hosts = function
  | R.Det_skipnet -> (2 * n) + 64
  | R.Bucket_skip_graph -> 2 * R.default_buckets n
  | R.Bucket_skipweb -> R.default_buckets n
  | _ -> n + 64

let build ?pool entry = R.build entry ~net:(Network.create ~hosts:(hosts entry)) ~seed:7 ?pool keys

let check_answers what (d : R.driver) set =
  let sorted = Array.copy set in
  Array.sort compare sorted;
  Array.iter
    (fun q -> Alcotest.(check (option int)) what (Lk.nearest sorted q) (fst (d.query q)))
    qs

let test_answers entry () = check_answers "nearest" (build entry) keys

let test_batch entry () =
  let loop = build entry in
  let expected = Array.map (fun q -> snd (loop.query q)) qs in
  let check jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    let d = build ?pool entry in
    let what = Printf.sprintf "jobs %d" jobs in
    Alcotest.(check (array int)) what expected (d.query_all ?pool qs);
    Alcotest.(check int) (what ^ " total") (Network.total_messages loop.net)
      (Network.total_messages d.net)
  in
  check 1;
  check 2

let test_updates entry () =
  let d = build entry in
  let stored = Hashtbl.create n in
  Array.iter (fun k -> Hashtbl.replace stored k ()) keys;
  (* Interior fresh keys: the successor of every 16th stored key that is
     not itself stored. *)
  let fresh =
    List.init (n / 16) (fun i -> keys.(16 * i) + 1)
    |> List.filter (fun k -> not (Hashtbl.mem stored k))
    |> Array.of_list
  in
  Array.iter (fun k -> ignore (d.insert k : int)) fresh;
  let half = Array.length fresh / 2 in
  let gone = Array.append (Array.sub fresh 0 half) (Array.sub keys 1 half) in
  Array.iter (fun k -> ignore (d.delete k : int)) gone;
  d.check_invariants ();
  let set =
    List.filter (fun k -> not (Array.mem k gone)) (Array.to_list (Array.append keys fresh))
  in
  check_answers "nearest after updates" d (Array.of_list set)

let suite =
  List.concat_map
    (fun (name, entry) ->
      [
        Alcotest.test_case (name ^ ": answers = sorted-set nearest") `Quick (test_answers entry);
        Alcotest.test_case (name ^ ": query_all = loop of query, jobs 1 and 2") `Quick (test_batch entry);
        Alcotest.test_case (name ^ ": updates keep invariants and answers") `Quick (test_updates entry);
      ])
    R.entries
