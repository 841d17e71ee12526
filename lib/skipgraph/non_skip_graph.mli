(** Neighbor-of-neighbor (NoN) skip graphs (Manku–Naor–Wieder, STOC 2004;
    Naor–Wieder) — Table 1 row 2.

    The {!Skip_graph} protocol core (same level lists, search shell,
    linking and charges) with three differences. Every element
    additionally stores its neighbors' neighbor tables. Routing uses
    one-step lookahead: from the current element, consider every element
    reachable in at most two list hops (whose address is known locally)
    and jump {e directly} to the admissible one closest to the target —
    one message despite two hops of progress. Expected route length drops
    to O(log n / log log n) while memory, congestion and update cost rise
    to O(log² n).

    Update cost accounting: an update must install/refresh O(log n) NoN
    table entries at each of O(log n) neighbors; we count one message per
    remote table entry installed, which reproduces the Ũ(log² n) shape of
    Table 1. *)

include Skip_graph.S
