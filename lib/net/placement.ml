module Prng = Skipweb_util.Prng

let salt ~seed ~slot ~raw = seed + (slot * 0x9e3779) + (raw * 0x85ebca)

let code ~level ~prefix = (level * 0x100000) + prefix

let draw net ~seed ~slot ~level ~prefix ~id ~hosts ~taken ~skip_dead g =
  let hc = Network.host_count net and code = code ~level ~prefix in
  (* The hot case, every primary: nothing to skip, so draw g is admissible
     draw g. *)
  if taken = 0 && not skip_dead then Prng.hash3 (salt ~seed ~slot ~raw:g) code id mod hc
  else begin
    let raw = ref 0 and left = ref g and found = ref (-1) in
    while !found < 0 do
      if !raw > 10_000 then failwith "Placement.draw: placement exhausted";
      let h = Prng.hash3 (salt ~seed ~slot ~raw:!raw) code id mod hc in
      let x = ref 0 in
      while !x < taken && hosts.(!x) <> h do
        incr x
      done;
      if !x = taken && not (skip_dead && not (Network.alive net h)) then begin
        if !left = 0 then found := h else decr left
      end;
      incr raw
    done;
    !found
  end

let redraw net ~seed ~slot ~level ~prefix ~id ~hosts ~taken g =
  let hc = Network.host_count net and code = code ~level ~prefix in
  let raw = ref 0 and gen = ref (-1) and found = ref (-1) in
  while !found < 0 do
    if !raw > 10_000 then failwith "Placement.draw: placement exhausted";
    let h = Prng.hash3 (salt ~seed ~slot ~raw:!raw) code id mod hc in
    let x = ref 0 in
    while !x < taken && hosts.(!x) <> h do
      incr x
    done;
    if !x = taken then begin
      incr gen;
      if !gen >= g && Network.alive net h then found := h
    end;
    incr raw
  done;
  (!found, !gen)

let first_live net hosts ~n =
  let x = ref 0 in
  while !x < n && not (Network.alive net hosts.(!x)) do
    incr x
  done;
  if !x < n then hosts.(!x) else hosts.(0)

let read net hosts ~data ~slot =
  if slot >= 1 && Network.alive net hosts.(data - 1 + slot) then hosts.(data - 1 + slot)
  else first_live net hosts ~n:data

let replica_slot ~seed ~origin ~level ~k =
  if k <= 1 then 0 else Prng.hash3 seed origin level mod k

type repair_stats = { scanned : int; repaired : int; messages : int; lost : int }

let no_repair = { scanned = 0; repaired = 0; messages = 0; lost = 0 }

let bill net hosts ~n ~units st =
  if Network.alive net (first_live net hosts ~n) then
    { st with repaired = st.repaired + units; messages = st.messages + units }
  else { st with repaired = st.repaired + units; lost = st.lost + units }
