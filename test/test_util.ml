(* Tests for Skipweb_util: PRNG, membership vectors, statistics, metrics,
   time series, tables. *)

module Prng = Skipweb_util.Prng
module Membership = Skipweb_util.Membership
module Stats = Skipweb_util.Stats
module Tables = Skipweb_util.Tables
module Metrics = Skipweb_util.Metrics
module Series = Skipweb_util.Series

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 a = Prng.next64 b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_prng_int_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_int_covers () =
  let g = Prng.create 11 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.int g 8) <- true
  done;
  checkb "all residues hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.float g 2.5 in
    checkb "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_coin_bias () =
  let g = Prng.create 5 in
  let heads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.coin g ~p:0.25 then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  checkb "frequency near 0.25" true (Float.abs (freq -. 0.25) < 0.02)

let test_prng_bool_fair () =
  let g = Prng.create 9 in
  let heads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bool g then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  checkb "fair coin" true (Float.abs (freq -. 0.5) < 0.02)

let test_prng_split_independent () =
  let g = Prng.create 13 in
  let h = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 g = Prng.next64 h then incr same
  done;
  checkb "split streams differ" true (!same < 4)

let test_shuffle_permutation () =
  let g = Prng.create 21 in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 (fun i -> i)) sorted;
  checkb "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_hash2_deterministic () =
  check Alcotest.int "stable" (Prng.hash2 5 9) (Prng.hash2 5 9);
  checkb "argument order matters" true (Prng.hash2 5 9 <> Prng.hash2 9 5);
  checkb "non-negative" true (Prng.hash2 (-4) 17 >= 0)

(* Pinned outputs (every placement and membership bit derives from these
   mixers, so a change here moves every message count), and the hot-path
   contract: with [mix64] inlined the [Int64] intermediates stay unboxed
   and a hash allocates nothing. *)
let test_hash_pinned_allocation_free () =
  check Alcotest.int "hash2 1 2" 4308867352236993466 (Prng.hash2 1 2);
  check Alcotest.int "hash2 0 0" 0 (Prng.hash2 0 0);
  check Alcotest.int "hash3 1 2 3" 1993141804617626836 (Prng.hash3 1 2 3);
  check Alcotest.int "hash3 -5 42 1e6" 1101410255812683636 (Prng.hash3 (-5) 42 1_000_000);
  let p = Prng.prefixes 2 in
  Prng.set_prefix p 1 (-5) 42;
  check Alcotest.int "hash3 from a stored prefix" 1101410255812683636
    (Prng.hash3_at p 1 1_000_000);
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    acc := !acc lxor Prng.hash3 i (i + 1) 7
  done;
  let words = Gc.minor_words () -. before in
  checkb "hashes computed" true (!acc <> 0);
  check (Alcotest.float 0.0) "10 000 hash3 calls allocate no minor words" 0.0 words;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    Prng.set_prefix p (i land 1) i 7;
    acc := !acc lxor Prng.hash3_at p (i land 1) i
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "stored prefixes match hash3" (Prng.hash3 9_999 7 9_999)
    (Prng.hash3_at p 1 9_999);
  check (Alcotest.float 0.0) "10 000 stored-prefix hashes allocate no minor words" 0.0 words

let test_membership_deterministic () =
  let v = Membership.create ~seed:77 in
  for id = 0 to 20 do
    for level = 0 to 20 do
      checkb "stable bit" true (Membership.bit v ~id ~level = Membership.bit v ~id ~level)
    done
  done

let test_membership_prefix () =
  let v = Membership.create ~seed:123 in
  for id = 0 to 50 do
    let p5 = Membership.prefix v ~id ~len:5 in
    (* Recompute by hand. *)
    let expected = ref 0 in
    for level = 0 to 4 do
      expected := (!expected lsl 1) lor if Membership.bit v ~id ~level then 1 else 0
    done;
    check Alcotest.int "prefix matches bits" !expected p5;
    (* Prefix nesting: len-4 prefix is the len-5 prefix shifted. *)
    check Alcotest.int "prefix nesting" (p5 lsr 1) (Membership.prefix v ~id ~len:4)
  done

let test_membership_balanced () =
  let v = Membership.create ~seed:5 in
  let ones = ref 0 in
  let n = 20_000 in
  for id = 0 to n - 1 do
    if Membership.bit v ~id ~level:3 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int n in
  checkb "bits roughly fair" true (Float.abs (freq -. 0.5) < 0.02)

let test_membership_biased () =
  let v = Membership.biased ~seed:5 ~p:0.25 in
  let ones = ref 0 in
  let n = 20_000 in
  for id = 0 to n - 1 do
    if Membership.bit v ~id ~level:0 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int n in
  checkb "bias respected" true (Float.abs (freq -. 0.25) < 0.02)

let test_membership_common_prefix () =
  let v = Membership.create ~seed:31 in
  let cp = Membership.common_prefix v 4 9 in
  checkb "cp sane" true (cp >= 0 && cp <= 60);
  if cp < 60 then
    checkb "bits differ after cp" true (Membership.bit v ~id:4 ~level:cp <> Membership.bit v ~id:9 ~level:cp);
  for level = 0 to cp - 1 do
    checkb "bits equal before cp" true (Membership.bit v ~id:4 ~level = Membership.bit v ~id:9 ~level)
  done

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check Alcotest.(float 1e-9) "mean" 3.0 s.Stats.mean;
  check Alcotest.(float 1e-9) "min" 1.0 s.Stats.min;
  check Alcotest.(float 1e-9) "max" 5.0 s.Stats.max;
  check Alcotest.(float 1e-9) "median" 3.0 s.Stats.p50;
  check Alcotest.(float 1e-6) "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_percentile () =
  let a = Array.init 101 float_of_int in
  check Alcotest.(float 1e-9) "p50" 50.0 (Stats.percentile a 0.5);
  check Alcotest.(float 1e-9) "p90" 90.0 (Stats.percentile a 0.9);
  check Alcotest.(float 1e-9) "p0" 0.0 (Stats.percentile a 0.0);
  check Alcotest.(float 1e-9) "p100" 100.0 (Stats.percentile a 1.0)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample") (fun () ->
      ignore (Stats.mean []))

(* Small-sample edge cases: one and two elements must give sensible
   stddev and percentiles, not NaN or interpolation noise. *)
let test_stats_single_element () =
  let s = Stats.summarize [ 7.25 ] in
  checkb "count" true (s.Stats.count = 1);
  check Alcotest.(float 0.0) "mean" 7.25 s.Stats.mean;
  check Alcotest.(float 0.0) "stddev" 0.0 s.Stats.stddev;
  check Alcotest.(float 0.0) "p50 is the element exactly" 7.25 s.Stats.p50;
  check Alcotest.(float 0.0) "p90 is the element exactly" 7.25 s.Stats.p90;
  check Alcotest.(float 0.0) "p99 is the element exactly" 7.25 s.Stats.p99;
  check Alcotest.(float 0.0) "min" 7.25 s.Stats.min;
  check Alcotest.(float 0.0) "max" 7.25 s.Stats.max

let test_stats_two_elements () =
  let s = Stats.summarize [ 10.0; 2.0 ] in
  check Alcotest.(float 1e-12) "mean" 6.0 s.Stats.mean;
  (* Unbiased sample stddev of {2, 10}: sqrt(((−4)² + 4²)/1) *)
  check Alcotest.(float 1e-12) "stddev" (sqrt 32.0) s.Stats.stddev;
  check Alcotest.(float 1e-12) "p50 interpolates" 6.0 s.Stats.p50;
  check Alcotest.(float 1e-12) "p90 interpolates" 9.2 s.Stats.p90;
  check Alcotest.(float 0.0) "min" 2.0 s.Stats.min;
  check Alcotest.(float 0.0) "max" 10.0 s.Stats.max

let test_stats_percentile_boundary_exact () =
  let a = [| 1.5; 2.5; 4.5 |] in
  (* q = 1.0 and q = 0.0 return the extreme elements exactly — bitwise,
     with no interpolation arithmetic. *)
  checkb "p100 exact" true (Stats.percentile a 1.0 = 4.5);
  checkb "p0 exact" true (Stats.percentile a 0.0 = 1.5);
  (* Ranks landing exactly on an element skip interpolation too. *)
  checkb "p50 exact on element" true (Stats.percentile a 0.5 = 2.5);
  checkb "singleton every quantile" true (Stats.percentile [| 3.75 |] 0.37 = 3.75)

(* ------- metrics registry ------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  checki "absent counter reads 0" 0 (Metrics.counter_value m "ops");
  Metrics.incr m "ops";
  Metrics.incr m ~by:4 "ops";
  checki "accumulates" 5 (Metrics.counter_value m "ops");
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics: ops is a counter") (fun () ->
      Metrics.observe m "ops" 1.0)

let test_metrics_histograms () =
  let m = Metrics.create () in
  checkb "absent histogram" true (Metrics.histogram_summary m "lat" = None);
  List.iter (Metrics.observe m "lat") [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  (match Metrics.histogram_summary m "lat" with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      checki "count" 5 s.Stats.count;
      check Alcotest.(float 1e-9) "mean" 3.0 s.Stats.mean;
      check Alcotest.(float 1e-9) "p50" 3.0 s.Stats.p50);
  Alcotest.check_raises "kind clash" (Invalid_argument "Metrics: lat is a histogram") (fun () ->
      Metrics.incr m "lat");
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Metrics.observe: NaN sample") (fun () ->
      Metrics.observe m "lat" Float.nan)

let test_metrics_export () =
  let m = Metrics.create () in
  Metrics.incr m ~by:7 "b.counter";
  Metrics.observe_int m "a.hist" 3;
  Metrics.observe_int m "a.hist" 5;
  Alcotest.(check (list string)) "names sorted" [ "a.hist"; "b.counter" ] (Metrics.names m);
  let json = Metrics.to_json m in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "json has counter" true (contains json "\"b.counter\": 7");
  checkb "json has histogram count" true (contains json "\"count\": 2");
  let csv = Metrics.to_csv m in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  checki "header + one row per entry" 3 (List.length lines);
  checkb "csv header" true
    (List.hd lines = "name,kind,value,count,mean,stddev,min,max,p50,p90,p99");
  checkb "csv counter row" true (contains csv "b.counter,counter,7");
  Metrics.clear m;
  Alcotest.(check (list string)) "clear empties" [] (Metrics.names m)

(* ------- windowed time series ------- *)

let test_series_ring () =
  let s = Series.create ~window:3 in
  checki "empty length" 0 (Series.length s);
  checkb "no last" true (Series.last s = None);
  checkb "no summary" true (Series.summary s = None);
  List.iter (Series.push s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  checki "window" 3 (Series.window s);
  checki "total counts everything" 5 (Series.total s);
  checki "length is the window" 3 (Series.length s);
  checkb "oldest two rolled off" true
    (Series.to_list s = [ (2, 3.0); (3, 4.0); (4, 5.0) ]);
  checkb "values" true (Series.values s = [ 3.0; 4.0; 5.0 ]);
  checkb "nth oldest" true (Series.nth s 0 = 3.0);
  checkb "last" true (Series.last s = Some 5.0);
  (match Series.summary s with
  | None -> Alcotest.fail "expected summary"
  | Some sum ->
      check Alcotest.(float 1e-12) "windowed mean" 4.0 sum.Stats.mean;
      checki "windowed count" 3 sum.Stats.count);
  Alcotest.check_raises "nth past window" (Invalid_argument "Series.nth: index out of window")
    (fun () -> ignore (Series.nth s 3))

let test_series_partial_fill () =
  let s = Series.create ~window:8 in
  Series.push s 10.0;
  Series.push s 20.0;
  checki "length below window" 2 (Series.length s);
  checkb "epochs from zero" true (Series.to_list s = [ (0, 10.0); (1, 20.0) ]);
  let j = Series.to_json s in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "json window" true (contains j "\"window\": 8");
  checkb "json first epoch" true (contains j "\"first_epoch\": 0")

let test_series_rejects_bad_window () =
  Alcotest.check_raises "window 0" (Invalid_argument "Series.create: window must be >= 1")
    (fun () -> ignore (Series.create ~window:0))

let qcheck_series_model =
  QCheck.Test.make ~name:"series agrees with take-last model" ~count:120
    QCheck.(
      pair (int_range 1 10) (list_of_size Gen.(int_range 0 50) (float_range (-100.0) 100.0)))
    (fun (window, xs) ->
      let s = Series.create ~window in
      List.iter (Series.push s) xs;
      let n = List.length xs in
      let keep = min n window in
      let expected =
        List.filteri (fun i _ -> i >= n - keep) xs |> List.mapi (fun i v -> (n - keep + i, v))
      in
      Series.to_list s = expected && Series.total s = n && Series.length s = keep)

let series_of f = List.map (fun n -> (float_of_int n, f (float_of_int n))) [ 16; 64; 256; 1024; 4096; 16384 ]

let test_fit_recognizes_log () =
  let log2 x = Float.log x /. Float.log 2.0 in
  let m, _ = Stats.Fit.best (series_of (fun n -> 3.0 *. log2 n)) in
  check Alcotest.string "log shape" "O(log n)" (Stats.Fit.name m)

let test_fit_recognizes_constant () =
  let m, _ = Stats.Fit.best (series_of (fun _ -> 5.0)) in
  check Alcotest.string "constant shape" "O(1)" (Stats.Fit.name m)

let test_fit_recognizes_linear () =
  let m, _ = Stats.Fit.best (series_of (fun n -> 0.5 *. n)) in
  check Alcotest.string "linear shape" "O(n)" (Stats.Fit.name m)

let test_fit_recognizes_log_squared () =
  let log2 x = Float.log x /. Float.log 2.0 in
  let m, _ = Stats.Fit.best (series_of (fun n -> 2.0 *. log2 n *. log2 n)) in
  check Alcotest.string "log^2 shape" "O(log^2 n)" (Stats.Fit.name m)

let test_fit_recognizes_log_over_loglog () =
  let log2 x = Float.log x /. Float.log 2.0 in
  let m, _ = Stats.Fit.best (series_of (fun n -> 4.0 *. log2 n /. log2 (log2 n))) in
  check Alcotest.string "log/loglog shape" "O(log n / log log n)" (Stats.Fit.name m)

let test_fit_constant_least_squares () =
  let series = [ (16.0, 8.0); (256.0, 16.0); (4096.0, 24.0) ] in
  let c = Stats.Fit.fit_constant Stats.Fit.Log series in
  check Alcotest.(float 1e-6) "exact fit constant" 2.0 c;
  check Alcotest.(float 1e-9) "zero rmse" 0.0 (Stats.Fit.rmse Stats.Fit.Log ~c series)

let test_tables_render () =
  let t = Tables.create ~title:"demo" ~columns:[ "n"; "cost" ] in
  Tables.add_row t [ "16"; "4.00" ];
  Tables.add_row t [ "256"; "8.00" ];
  let s = Tables.render t in
  checkb "title present" true (String.length s > 0 && String.sub s 0 3 = "== ");
  checkb "row present" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '|'))

(* A non-ASCII label pads by code points: every line of the table is
   equally wide on screen. *)
let test_tables_utf8_alignment () =
  let t = Tables.create ~title:"utf8" ~columns:[ "series"; "paper" ] in
  Tables.add_row t [ "blocked placement (§2.4.1)"; "Θ(n)" ];
  Tables.add_row t [ "plain"; "~O(log n)" ];
  let lines =
    String.split_on_char '\n' (Tables.render t)
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '|')
  in
  let code_points l =
    String.fold_left (fun n c -> if Char.code c land 0xC0 <> 0x80 then n + 1 else n) 0 l
  in
  checki "four table lines" 4 (List.length lines);
  List.iter (fun l -> checki l (code_points (List.hd lines)) (code_points l)) lines;
  check Alcotest.string "label row" "| blocked placement (§2.4.1) | Θ(n)      |" (List.nth lines 2)

let test_tables_arity_check () =
  let t = Tables.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "bad arity" (Invalid_argument "Tables.add_row: wrong number of cells")
    (fun () -> Tables.add_row t [ "1" ])

(* ---- chunked sorted sequence ---- *)

module Ordseq = Skipweb_util.Ordseq

let test_array_searches () =
  let a = [| 2; 4; 4; 7; 9 |] in
  checki "lb below" 0 (Ordseq.array_lower_bound a 1);
  checki "lb hit" 1 (Ordseq.array_lower_bound a 4);
  checki "lb between" 3 (Ordseq.array_lower_bound a 5);
  checki "lb above" 5 (Ordseq.array_lower_bound a 10);
  checki "ui below" (-1) (Ordseq.array_upper_index a 1);
  checki "ui hit" 2 (Ordseq.array_upper_index a 4);
  checki "ui above" 4 (Ordseq.array_upper_index a 10);
  (* [len] restricts to a prefix, as chunk storage needs. *)
  checki "lb len prefix" 2 (Ordseq.array_lower_bound ~len:2 a 10);
  checki "ui len prefix" 1 (Ordseq.array_upper_index ~len:2 a 10)

let test_array_splices () =
  let a = [| 2; 4; 7 |] in
  let check_arr msg want got = Alcotest.(check (array int)) msg want got in
  check_arr "insert front" [| 1; 2; 4; 7 |] (Ordseq.array_insert_at a 0 1);
  check_arr "insert mid" [| 2; 4; 5; 7 |] (Ordseq.array_insert_at a 2 5);
  check_arr "insert end" [| 2; 4; 7; 9 |] (Ordseq.array_insert_at a 3 9);
  check_arr "insert into empty" [| 3 |] (Ordseq.array_insert_at [||] 0 3);
  check_arr "remove front" [| 4; 7 |] (Ordseq.array_remove_at a 0);
  check_arr "remove mid" [| 2; 7 |] (Ordseq.array_remove_at a 1);
  check_arr "remove last" [| 2; 4 |] (Ordseq.array_remove_at a 2);
  check_arr "source untouched" [| 2; 4; 7 |] a;
  Alcotest.check_raises "insert past end"
    (Invalid_argument "Ordseq.array_insert_at: index out of range") (fun () ->
      ignore (Ordseq.array_insert_at a 4 0));
  Alcotest.check_raises "remove past end"
    (Invalid_argument "Ordseq.array_remove_at: index out of range") (fun () ->
      ignore (Ordseq.array_remove_at a 3))

let test_ordseq_bulk () =
  let n = 10_000 in
  let a = Array.init n (fun i -> 3 * i) in
  let t = Ordseq.of_sorted_array a in
  Ordseq.check t;
  checki "length" n (Ordseq.length t);
  checki "rank mid" 1234 (Ordseq.search t (3 * 1234)).Ordseq.rank;
  checkb "search hit" true (Ordseq.search t (3 * 999)).Ordseq.stored;
  checkb "search miss" false (Ordseq.search t ((3 * 999) + 1)).Ordseq.stored;
  checkb "roundtrip" true (Ordseq.to_array t = a);
  (* Chunk shape stays O(√n). *)
  let c = Array.length (Ordseq.chunk_lengths t) in
  checkb "sqrt-ish chunk count" true (c * c <= 16 * n && c <= n)

let test_ordseq_of_array () =
  let t = Ordseq.of_array [| 5; 1; 5; 3; 1; 9 |] in
  Ordseq.check t;
  checkb "sorted deduped" true (Ordseq.to_array t = [| 1; 3; 5; 9 |]);
  (* At the pooled presort's size gate, every jobs count loads the same
     sequence as the model: a shuffled multiset of the multiples of 3
     below 1.8 * 10^6, each present once or twice. *)
  let big = Array.init 1_000_000 (fun i -> 3 * (i mod 600_000)) in
  Prng.shuffle (Prng.create 7) big;
  let observe t = (Ordseq.to_array t, Ordseq.chunk_lengths t) in
  let model = observe (Ordseq.of_sorted_array (Array.init 600_000 (fun i -> 3 * i))) in
  List.iter
    (fun jobs ->
      Skipweb_util.Pool.with_pool ~jobs (fun pool ->
          let t = Ordseq.of_array ?pool big in
          Ordseq.check t;
          checkb (Printf.sprintf "of_array jobs %d = model" jobs) true (observe t = model)))
    [ 1; 2; 4 ];
  (* Strictly sorted input comes back from the presort as the same array;
     the sequence must not alias it. *)
  let sorted = [| 2; 4; 6; 8 |] in
  let t = Ordseq.of_array sorted in
  sorted.(0) <- 100;
  Ordseq.check t;
  checkb "sorted input not aliased" true (Ordseq.to_array t = [| 2; 4; 6; 8 |])

let test_ordseq_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Ordseq.of_sorted_array: not strictly increasing") (fun () ->
      ignore (Ordseq.of_sorted_array [| 3; 2 |]))

let test_ordseq_empty () =
  let t = Ordseq.of_sorted_array [||] in
  Ordseq.check t;
  checki "empty length" 0 (Ordseq.length t);
  checkb "insert" true (Ordseq.insert t 42);
  checkb "dup insert" false (Ordseq.insert t 42);
  checkb "remove" true (Ordseq.remove t 42);
  checkb "absent remove" false (Ordseq.remove t 42);
  checki "empty again" 0 (Ordseq.length t)

let test_ordseq_incremental_growth () =
  (* One-by-one growth from empty keeps the chunk shape amortized. *)
  let t = Ordseq.of_sorted_array [||] in
  let g = Prng.create 31337 in
  let n = 4096 in
  let inserted = ref 0 in
  for _ = 1 to n do
    if Ordseq.insert t (Prng.int g 1_000_000) then incr inserted
  done;
  Ordseq.check t;
  checki "all tracked" !inserted (Ordseq.length t);
  let c = Array.length (Ordseq.chunk_lengths t) in
  checkb "chunk count stays sublinear" true (c * c <= 64 * Ordseq.length t)

(* Reference model: a sorted list of distinct ints. *)
let model_insert xs k =
  if List.mem k xs then (xs, false) else (List.sort compare (k :: xs), true)

let model_remove xs k =
  if List.mem k xs then (List.filter (fun x -> x <> k) xs, true) else (xs, false)

let qcheck_ordseq_model =
  QCheck.Test.make ~name:"ordseq agrees with sorted-list model" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 200) (pair bool (int_range 0 120)))
    (fun ops ->
      let t = Ordseq.of_sorted_array [||] in
      let xs = ref [] in
      List.for_all
        (fun (ins, k) ->
          let op_ok =
            if ins then begin
              let xs', r = model_insert !xs k in
              xs := xs';
              Ordseq.insert t k = r
            end
            else begin
              let xs', r = model_remove !xs k in
              xs := xs';
              Ordseq.remove t k = r
            end
          in
          Ordseq.check t;
          let arr = Array.of_list !xs in
          let n = Array.length arr in
          op_ok
          && Ordseq.to_array t = arr
          && Ordseq.length t = n
          && Ordseq.lower_bound t k = Ordseq.array_lower_bound arr k)
        ops)

(* [Ordseq.search] against a sorted-array model: rank, membership and
   both neighbours, with [min_int]/[max_int] for a missing one. *)
let model_search arr k =
  let n = Array.length arr in
  let i = Ordseq.array_lower_bound arr k in
  ( i,
    i < n && arr.(i) = k,
    (if i > 0 then arr.(i - 1) else min_int),
    if i < n then arr.(i) else max_int )

(* Probe every stored key and both its sides — so the first and last
   key of every chunk, and the gaps around them — plus points below the
   minimum and above the maximum. *)
let search_agrees t =
  Ordseq.check t;
  let arr = Ordseq.to_array t in
  let agrees k =
    let h = Ordseq.search t k in
    (h.Ordseq.rank, h.Ordseq.stored, h.Ordseq.pred, h.Ordseq.succ) = model_search arr k
  in
  List.for_all agrees [ min_int; -1; max_int ]
  && Array.for_all (fun x -> agrees (x - 1) && agrees x && agrees (x + 1)) arr

(* Runs over [0, 4000) of single inserts, single removes, batch inserts
   and removes of a random share of the stored keys: long insert runs
   split chunks and re-chunk as the sequence grows past 4x its anchor,
   long remove runs merge chunks and re-chunk as it shrinks below a
   quarter of it. *)
let qcheck_ordseq_search =
  QCheck.Test.make ~name:"ordseq search agrees with sorted-array model" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (triple (int_range 0 3) (int_range 0 600) small_nat))
    (fun runs ->
      let t = Ordseq.of_sorted_array [||] in
      search_agrees t
      && List.for_all
           (fun (op, len, seed) ->
             let g = Prng.create seed in
             let stored () = Ordseq.to_array t in
             (match op with
             | 0 ->
                 for _ = 1 to len do
                   ignore (Ordseq.insert t (Prng.int g 4000) : bool)
                 done
             | 1 ->
                 for _ = 1 to len do
                   let xs = stored () in
                   if Array.length xs > 0 then
                     ignore (Ordseq.remove t xs.(Prng.int g (Array.length xs)) : bool)
                 done
             | 2 ->
                 let ks = List.sort_uniq compare (List.init len (fun _ -> Prng.int g 4000)) in
                 ignore (Ordseq.insert_batch t (Array.of_list ks) : int)
             | _ ->
                 let ks = List.filter (fun _ -> Prng.int g 600 < len) (Array.to_list (stored ())) in
                 List.iter (fun k -> ignore (Ordseq.remove t k : bool)) ks);
             search_agrees t)
           runs)

(* ---------- the batch insert ---------- *)

module DPool = Skipweb_util.Pool

let sorted_distinct_of_list xs = Array.of_list (List.sort_uniq compare xs)

(* One batch insert under [jobs] domains, observing the count, the
   contents AND the chunk layout: [insert_batch] ignores its pool, so the
   tuple must not depend on the jobs count. *)
let batch_observation ~jobs ~base ~batch =
  DPool.with_pool ~jobs @@ fun pool ->
  let t = Ordseq.of_sorted_array base in
  let added = Ordseq.insert_batch ?pool t batch in
  Ordseq.check t;
  (added, Ordseq.to_array t, Ordseq.chunk_lengths t)

let qcheck_ordseq_batch_model =
  QCheck.Test.make ~name:"ordseq batch splice = model, layout jobs-invariant" ~count:30
    QCheck.(pair (list (int_range 0 2000)) (list (int_range 0 2000)))
    (fun (base_l, batch_l) ->
      let base = sorted_distinct_of_list base_l in
      let batch = sorted_distinct_of_list batch_l in
      let module S = Set.Make (Int) in
      let bset = S.of_list (Array.to_list base) in
      let kset = S.of_list (Array.to_list batch) in
      let expect = Array.of_list (S.elements (S.union bset kset)) in
      let ((added, contents, _) as o1) = batch_observation ~jobs:1 ~base ~batch in
      added = Array.length expect - S.cardinal bset
      && contents = expect
      && List.for_all (fun jobs -> batch_observation ~jobs ~base ~batch = o1) [ 2; 4 ])

let test_ordseq_batch_adversarial () =
  (* Every batch key lands in ONE chunk of the base, so the per-key
     inserts split that chunk again and again: the split cascade inside
     one region. *)
  let base = Array.init 512 (fun i -> 100_000 * i) in
  let batch = Array.init 700 (fun i -> 5_000_001 + (7 * i)) in
  let ((added, contents, _) as o1) = batch_observation ~jobs:1 ~base ~batch in
  checki "added" 700 added;
  checki "length" (512 + 700) (Array.length contents);
  checkb "jobs 2 bit-identical" true (batch_observation ~jobs:2 ~base ~batch = o1);
  checkb "jobs 4 bit-identical" true (batch_observation ~jobs:4 ~base ~batch = o1)

(* Batches around the chunk count — 1, nchunks - 1, nchunks and
   nchunks + 1 keys — into bases of 10², 10³ and 10⁴ keys: the sizes
   the random generators above rarely produce. The keys are spread
   evenly over and just beyond the base's span, so each batch mixes
   stored and fresh keys. Contents and counts follow a [Set] model, and
   the chunk layout is the same at jobs 1 and 2. *)
let test_ordseq_batch_boundary () =
  let module S = Set.Make (Int) in
  List.iter
    (fun n ->
      let base = Array.init n (fun i -> 3 * i) in
      let nch = Array.length (Ordseq.chunk_lengths (Ordseq.of_sorted_array base)) in
      let model = S.of_list (Array.to_list base) in
      List.iter
        (fun m ->
          let span = (3 * n) + 6 in
          let batch = Array.init m (fun j -> (j * span / m) - 3) in
          let expect = S.union model (S.of_list (Array.to_list batch)) in
          let ((count, contents, _) as o1) = batch_observation ~jobs:1 ~base ~batch in
          let name = Printf.sprintf "insert n=%d m=%d" n m in
          checki (name ^ " count") (S.cardinal expect - n) count;
          checkb (name ^ " contents") true (contents = Array.of_list (S.elements expect));
          checkb (name ^ " jobs 2 layout") true (batch_observation ~jobs:2 ~base ~batch = o1))
        [ 1; nch - 1; nch; nch + 1 ])
    [ 100; 1_000; 10_000 ]

let test_ordseq_batch_validation () =
  let t = Ordseq.of_sorted_array [| 1; 2; 3 |] in
  Alcotest.check_raises "unsorted insert batch"
    (Invalid_argument "Ordseq.insert_batch: batch not strictly increasing") (fun () ->
      ignore (Ordseq.insert_batch t [| 5; 4 |] : int));
  checki "empty insert batch" 0 (Ordseq.insert_batch t [||]);
  checki "dup-only batch" 0 (Ordseq.insert_batch t [| 1; 2; 3 |]);
  checkb "untouched" true (Ordseq.to_array t = [| 1; 2; 3 |]);
  (* The whole batch is checked before any key lands: a rejected batch
     whose sorted prefix holds fresh keys leaves contents and chunk
     layout as they were. *)
  let big = Ordseq.of_sorted_array (Array.init 1_000 (fun i -> 3 * i)) in
  let before = (Ordseq.to_array big, Ordseq.chunk_lengths big) in
  Alcotest.check_raises "unsorted tail rejected"
    (Invalid_argument "Ordseq.insert_batch: batch not strictly increasing") (fun () ->
      ignore (Ordseq.insert_batch big (Array.append (Array.init 200 (fun i -> (3 * i) + 1)) [| 0 |]) : int));
  Ordseq.check big;
  checkb "rejected batch left no trace" true ((Ordseq.to_array big, Ordseq.chunk_lengths big) = before);
  let e = Ordseq.of_sorted_array [||] in
  checki "into empty" 3 (Ordseq.insert_batch e [| 7; 8; 9 |]);
  Ordseq.check e;
  checkb "filled" true (Ordseq.to_array e = [| 7; 8; 9 |])

(* ------- the shared batch presort ------- *)

(* Pins the semantics every batch entry point relies on: physical
   identity on strictly sorted input, sort + dedup (first of each run of
   cmp-equals) otherwise, input untouched, and a pooled run bit-identical
   to the sequential one. *)
let test_presort_semantics () =
  let module Presort = Skipweb_util.Presort in
  let a = [| 1; 3; 5; 9 |] in
  checkb "strictly sorted input returned physically" true
    (Presort.sorted_distinct ~cmp:compare a == a);
  checkb "empty input returned physically" true
    (let e = [||] in
     Presort.sorted_distinct ~cmp:compare e == e);
  let b = [| 5; 1; 3; 1; 5; 2 |] in
  let out = Presort.sorted_distinct ~cmp:compare b in
  checkb "unsorted input gets a fresh array" true (out != b);
  Alcotest.(check (array int)) "sorted and distinct" [| 1; 2; 3; 5 |] out;
  Alcotest.(check (array int)) "input untouched" [| 5; 1; 3; 1; 5; 2 |] b;
  (* merely sorted-with-duplicates is not "strictly sorted": it must be
     deduplicated, not returned as-is *)
  Alcotest.(check (array int)) "sorted dupes collapse" [| 1; 2; 3 |]
    (Presort.sorted_distinct ~cmp:compare [| 1; 2; 2; 3 |]);
  (* custom comparator: one representative per equivalence class, classes
     in cmp order (which structurally distinct member survives is
     unspecified) *)
  let pairs = [| (2, "b"); (1, "a"); (2, "a"); (1, "b") |] in
  let cls = Presort.sorted_distinct ~cmp:(fun (x, _) (y, _) -> compare x y) pairs in
  checki "one per class" 2 (Array.length cls);
  checki "first class" 1 (fst cls.(0));
  checki "second class" 2 (fst cls.(1))

(* The stable sorting permutation: ties in index order, the identity on
   non-decreasing input (duplicates included), input untouched. *)
let test_presort_order () =
  let module Presort = Skipweb_util.Presort in
  let b = [| 3; 1; 2; 1; 3; 0 |] in
  Alcotest.(check (array int)) "stable permutation" [| 5; 1; 3; 2; 0; 4 |] (Presort.order ~cmp:compare b);
  Alcotest.(check (array int)) "input untouched" [| 3; 1; 2; 1; 3; 0 |] b;
  Alcotest.(check (array int)) "sorted input: identity" [| 0; 1; 2; 3 |]
    (Presort.order ~cmp:compare [| 1; 2; 2; 7 |]);
  Alcotest.(check (array int)) "empty" [||] (Presort.order ~cmp:compare [||])

let test_presort_pooled_identical () =
  let module Presort = Skipweb_util.Presort in
  let g = Prng.create 99 in
  (* At the pooled path's size gate. *)
  let big = Array.init 1_000_000 (fun _ -> Prng.int g 10_000) in
  let seq = Presort.sorted_distinct ~cmp:compare big in
  Skipweb_util.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "pooled = sequential" seq
        (Presort.sorted_distinct ?pool ~cmp:compare big))

let qcheck_prng_int =
  QCheck.Test.make ~name:"prng int always in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let qcheck_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      Array.sort compare a;
      Stats.percentile a 0.2 <= Stats.percentile a 0.8)

(* The lock-step kernel against one [array_lower_bound] per array, in
   one call over arrays of every awkward length, some searched over a
   live prefix only, for keys below, at, between and above the stored
   ones. *)
let test_ordseq_lower_bounds () =
  let g = Prng.create 46 in
  let sorted n = Array.init n (fun i -> (3 * i) - 40 + Prng.int g 2) in
  let lengths = [ 0; 1; 2; 31; 32; 33; 300; 517 ] in
  let arrays = Array.of_list (List.map sorted (lengths @ [ 9; 64 ])) in
  arrays.(0) <- [| min_int; max_int |];
  let lens = Array.map Array.length arrays in
  lens.(0) <- 2;
  lens.(Array.length lens - 2) <- 4;
  lens.(Array.length lens - 1) <- 33;
  let m = Array.length arrays in
  let out = Array.make m (-1) in
  List.iter
    (fun k ->
      Ordseq.lower_bounds arrays lens k out;
      Array.iteri
        (fun i a ->
          checki
            (Printf.sprintf "array %d (len %d), key %d" i lens.(i) k)
            (Ordseq.array_lower_bound ~len:lens.(i) a k)
            out.(i))
        arrays)
    ([ min_int; min_int + 1; max_int - 1; max_int; 0 ] @ List.init 1700 (fun i -> i - 60));
  Alcotest.check_raises "len beyond its array"
    (Invalid_argument "Ordseq.lower_bounds: len out of range") (fun () ->
      Ordseq.lower_bounds [| [| 1 |] |] [| 2 |] 0 [| 0 |]);
  Alcotest.check_raises "lengths differ"
    (Invalid_argument "Ordseq.lower_bounds: arrays, lens and out differ in length") (fun () ->
      Ordseq.lower_bounds [| [| 1 |] |] [| 1 |] 0 [||])

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int covers residues" `Quick test_prng_int_covers;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng coin bias" `Quick test_prng_coin_bias;
    Alcotest.test_case "prng bool fair" `Quick test_prng_bool_fair;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "hash2 deterministic" `Quick test_hash2_deterministic;
    Alcotest.test_case "hash pinned, allocation-free" `Quick test_hash_pinned_allocation_free;
    Alcotest.test_case "membership deterministic" `Quick test_membership_deterministic;
    Alcotest.test_case "membership prefix packing" `Quick test_membership_prefix;
    Alcotest.test_case "membership bits balanced" `Quick test_membership_balanced;
    Alcotest.test_case "membership biased bits" `Quick test_membership_biased;
    Alcotest.test_case "membership common prefix" `Quick test_membership_common_prefix;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats empty raises" `Quick test_stats_empty_raises;
    Alcotest.test_case "stats single element" `Quick test_stats_single_element;
    Alcotest.test_case "stats two elements" `Quick test_stats_two_elements;
    Alcotest.test_case "stats percentile boundary exact" `Quick test_stats_percentile_boundary_exact;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics histograms" `Quick test_metrics_histograms;
    Alcotest.test_case "metrics export" `Quick test_metrics_export;
    Alcotest.test_case "series ring semantics" `Quick test_series_ring;
    Alcotest.test_case "series partial fill" `Quick test_series_partial_fill;
    Alcotest.test_case "series rejects bad window" `Quick test_series_rejects_bad_window;
    Alcotest.test_case "fit recognizes log" `Quick test_fit_recognizes_log;
    Alcotest.test_case "fit recognizes constant" `Quick test_fit_recognizes_constant;
    Alcotest.test_case "fit recognizes linear" `Quick test_fit_recognizes_linear;
    Alcotest.test_case "fit recognizes log^2" `Quick test_fit_recognizes_log_squared;
    Alcotest.test_case "fit recognizes log/loglog" `Quick test_fit_recognizes_log_over_loglog;
    Alcotest.test_case "fit least squares constant" `Quick test_fit_constant_least_squares;
    Alcotest.test_case "tables render" `Quick test_tables_render;
    Alcotest.test_case "tables arity check" `Quick test_tables_arity_check;
    Alcotest.test_case "tables pad non-ASCII cells by code point" `Quick test_tables_utf8_alignment;
    Alcotest.test_case "ordseq shared array searches" `Quick test_array_searches;
    Alcotest.test_case "ordseq array splices" `Quick test_array_splices;
    Alcotest.test_case "ordseq bulk load" `Quick test_ordseq_bulk;
    Alcotest.test_case "ordseq of_array sorts+dedups" `Quick test_ordseq_of_array;
    Alcotest.test_case "ordseq rejects unsorted" `Quick test_ordseq_rejects_unsorted;
    Alcotest.test_case "ordseq empty edge cases" `Quick test_ordseq_empty;
    Alcotest.test_case "ordseq incremental growth" `Quick test_ordseq_incremental_growth;
    Alcotest.test_case "ordseq batch adversarial one-chunk" `Quick test_ordseq_batch_adversarial;
    Alcotest.test_case "ordseq batch around the chunk count" `Quick test_ordseq_batch_boundary;
    Alcotest.test_case "ordseq batch validation" `Quick test_ordseq_batch_validation;
    Alcotest.test_case "ordseq lock-step lower bounds" `Quick test_ordseq_lower_bounds;
    Alcotest.test_case "presort semantics" `Quick test_presort_semantics;
    Alcotest.test_case "presort order" `Quick test_presort_order;
    Alcotest.test_case "presort pooled identical" `Quick test_presort_pooled_identical;
    QCheck_alcotest.to_alcotest qcheck_prng_int;
    QCheck_alcotest.to_alcotest qcheck_percentile_monotone;
    QCheck_alcotest.to_alcotest qcheck_ordseq_model;
    QCheck_alcotest.to_alcotest qcheck_ordseq_search;
    QCheck_alcotest.to_alcotest qcheck_ordseq_batch_model;
    QCheck_alcotest.to_alcotest qcheck_series_model;
  ]
