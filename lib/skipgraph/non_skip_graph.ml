module LL = Level_lists

(* Direct neighbors at every level of a position. *)
let neighbors lists i =
  let acc = ref [] in
  for level = 0 to LL.top_level lists i do
    (match LL.left_neighbor lists i level with Some j -> acc := j :: !acc | None -> ());
    match LL.right_neighbor lists i level with Some j -> acc := j :: !acc | None -> ()
  done;
  List.sort_uniq compare !acc

(* Neighbor pointers an element keeps: two per participating level. *)
let entries lists i = 2 * (LL.top_level lists i + 1)

include Skip_graph.Make (struct
  let name = "Non_skip_graph"

  (* key + root + own pointers + a copy of each neighbor's pointer list:
     the O(log^2 n) NoN table. *)
  let memory_units lists i =
    List.fold_left (fun acc j -> acc + entries lists j) (2 + entries lists i) (neighbors lists i)

  (* Lookahead routing: from the current element we know the addresses of
     all elements within two list hops; jump directly (one message) to the
     admissible one that makes the most progress toward the target. *)
  let route lists ~from ~dir_right ~admissible ~goto =
    let ahead j k =
      if dir_right then LL.key lists j > LL.key lists k else LL.key lists j < LL.key lists k
    in
    let rec hop cur =
      let two_hop = List.concat_map (fun j -> j :: neighbors lists j) (neighbors lists cur) in
      let best =
        List.fold_left
          (fun best j ->
            if admissible j && ahead j cur && (match best with None -> true | Some b -> ahead j b)
            then Some j
            else best)
          None two_hop
      in
      match best with
      | Some j ->
          goto j;
          hop j
      | None -> ()
    in
    hop from

  (* Update cost: the plain skip graph linking work, plus one message per
     NoN table entry that must be installed remotely — the element ships
     its pointer list to every neighbor, and receives each neighbor's list.
     An insert counts it after the splice, a delete before the splice-out. *)
  let refresh_messages lists pos =
    List.fold_left (fun acc j -> acc + entries lists pos + entries lists j) 0 (neighbors lists pos)
end)
