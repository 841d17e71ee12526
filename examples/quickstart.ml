(* Quickstart: a one-dimensional skip-web in a few lines.

   We stand up a simulated peer-to-peer network, spread a sorted set over
   it with the blocked 1-d skip-web of §2.4.1, and run nearest-neighbor
   queries and updates while watching the message meter.

   Run with: dune exec examples/quickstart.exe *)

(* A tour of the Blocked1d API itself (levels, storage, predecessor and
   successor), so it builds the structure directly, not through the roster. *)
module Network = Skipweb_net.Network
module Skipweb = Skipweb_core.Blocked1d
module Prng = Skipweb_util.Prng

let () =
  (* 1024 hosts, each allowed to store about M = 40 units. *)
  let net = Network.create ~hosts:1024 in
  let keys = Array.init 1024 (fun i -> i * 97) in
  let web = Skipweb.build ~net ~seed:2005 ~m:40 keys in
  Printf.printf "Built a skip-web over %d keys: %d levels, basic levels at %s\n"
    (Skipweb.size web) (Skipweb.levels web)
    (String.concat ", " (List.map string_of_int (Skipweb.basic_levels web)));
  Printf.printf "Storage: %d ranges, %d after blocking replication; busiest host stores %d units\n\n"
    (Skipweb.total_storage web) (Skipweb.replicated_storage web) (Skipweb.max_host_memory web);

  (* Nearest-neighbor queries from random hosts. *)
  let rng = Prng.create 7 in
  List.iter
    (fun q ->
      let r = Skipweb.query web ~rng q in
      Printf.printf "nearest(%6d) = %6s   [pred %6s, succ %6s]  in %d messages\n" q
        (match r.Skipweb.nearest with Some k -> string_of_int k | None -> "-")
        (match r.Skipweb.predecessor with Some k -> string_of_int k | None -> "-")
        (match r.Skipweb.successor with Some k -> string_of_int k | None -> "-")
        r.Skipweb.messages)
    [ 0; 50_000; 31_337; 99_999; 12_345 ];

  (* Updates cost a locate plus O(1) messages per basic level. *)
  let cost = Skipweb.insert web 31_338 in
  Printf.printf "\ninsert 31338 cost %d messages\n" cost;
  let r = Skipweb.query web ~rng 31_338 in
  Printf.printf "nearest(31338) is now %s\n"
    (match r.Skipweb.nearest with Some k -> string_of_int k | None -> "-");
  let cost = Skipweb.delete web 31_338 in
  Printf.printf "delete 31338 cost %d messages\n" cost
