(** Self-tests of the benchmark: its order statistics, and that a seed
    fully determines the inputs and the request schedule. *)

open Perfbench

let close = Alcotest.float 1e-12
let opt_float = Alcotest.(option (float 1e-12))

let test_quantiles () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.check close "median, odd" 3.0 (Stats.median xs);
  Alcotest.check close "median, even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check close "q1" 2.0 (Stats.quantile xs 0.25);
  Alcotest.check close "q3" 4.0 (Stats.quantile xs 0.75);
  Alcotest.check close "min" 1.0 (Stats.quantile xs 0.0);
  Alcotest.check close "max" 5.0 (Stats.quantile xs 1.0);
  Alcotest.check close "interpolated" 1.4 (Stats.quantile xs 0.1);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.median [||]));
  Alcotest.check close "input left unsorted" 5.0 xs.(0)

let test_percentile_tail () =
  let sample n = Array.init n float_of_int in
  Alcotest.(check int) "tail of p99 over 1000" 10 (Stats.tail_count ~n:1000 0.99);
  Alcotest.(check int) "tail of p99 over 999" 9 (Stats.tail_count ~n:999 0.99);
  Alcotest.check opt_float "p99 needs ten samples beyond it" None
    (Stats.percentile (sample 999) 0.99);
  Alcotest.check opt_float "p99 over 1000" (Some 989.01)
    (Stats.percentile (sample 1000) 0.99);
  Alcotest.check opt_float "p50 over 20" (Some 9.5) (Stats.percentile (sample 20) 0.5);
  Alcotest.check opt_float "p99 over 10" None (Stats.percentile (sample 10) 0.99)

let test_buf () =
  let b = Stats.Buf.create () in
  for i = 1 to 1000 do
    Stats.Buf.add b (float_of_int i)
  done;
  Alcotest.(check int) "length" 1000 (Stats.Buf.length b);
  Alcotest.check close "median" 500.5 (Stats.median (Stats.Buf.to_array b))

let test_windowed_median () =
  (* five one-second windows of ten samples 0.0, 0.2 .. 1.8 (median
     0.9); the last two windows disturbed by +10 *)
  let keys = Array.init 50 (fun i -> float_of_int i /. 10.0) in
  let base i = float_of_int (i mod 10) /. 5.0 in
  let shifted from = Array.mapi (fun i k -> base i +. if k >= from then 10.0 else 0.0) keys in
  Alcotest.check close "disturbed minority of windows" 0.9
    (Stats.windowed_median ~width:1.0 keys (shifted 3.0));
  Alcotest.check close "the overall median moves" 1.6 (Stats.median (shifted 3.0));
  Alcotest.check close "disturbed majority of windows" 10.9
    (Stats.windowed_median ~width:1.0 keys (shifted 2.0));
  Alcotest.check close "one window" 2.0
    (Stats.windowed_median ~width:1.0 [| 0.1; 0.2; 0.3 |] [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check bool) "empty" true
    (Float.is_nan (Stats.windowed_median ~width:1.0 [||] [||]))

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let test_schedule () =
  let s1 = Inputs.schedule ~seed:3 ~rate:1000.0 ~seconds:2.0 ~targets:Inputs.tenants in
  let s2 = Inputs.schedule ~seed:3 ~rate:1000.0 ~seconds:2.0 ~targets:Inputs.tenants in
  let s3 = Inputs.schedule ~seed:4 ~rate:1000.0 ~seconds:2.0 ~targets:Inputs.tenants in
  let same a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun (x : Inputs.request) (y : Inputs.request) ->
           x.due = y.due && x.tenant = y.tenant && same_floats x.row y.row)
         a b
  in
  Alcotest.(check bool) "same seed, same schedule" true (same s1 s2);
  Alcotest.(check bool) "another seed, another schedule" false (same s1 s3);
  let n = Array.length s1 in
  (* Poisson count over 2 s at 1000/s: mean 2000, sd ~45 *)
  Alcotest.(check bool) "arrival count near rate x seconds" true (abs (n - 2000) < 250);
  Array.iteri
    (fun i (q : Inputs.request) ->
      if q.due < 0.0 || q.due >= 2.0 then Alcotest.fail "due time outside the phase";
      if i > 0 && q.due < s1.(i - 1).due then Alcotest.fail "due times not ascending";
      if q.tenant < 0 || q.tenant >= Inputs.tenants then Alcotest.fail "tenant out of range";
      if Array.length q.row <> Inputs.tenant_features then Alcotest.fail "row width")
    s1;
  let hot = Inputs.schedule ~seed:3 ~rate:1000.0 ~seconds:2.0 ~targets:2 in
  Alcotest.(check bool) "a hot schedule targets only the first tenants" true
    (Array.for_all (fun (q : Inputs.request) -> q.tenant < 2) hot)

let test_speaker_rows () =
  let c1, n1 = Inputs.speaker_rows ~seed:5 ~rows:300 in
  let c2, n2 = Inputs.speaker_rows ~seed:5 ~rows:300 in
  let c3, _ = Inputs.speaker_rows ~seed:6 ~rows:300 in
  let flat x = Array.concat (Array.to_list x) in
  Alcotest.(check bool) "same seed, same clean rows" true (same_floats (flat c1) (flat c2));
  Alcotest.(check bool) "same seed, same noisy rows" true (same_floats (flat n1) (flat n2));
  Alcotest.(check bool) "another seed, other rows" false (same_floats (flat c1) (flat c3));
  let values = flat n1 and clean = flat c1 in
  let nans = Array.fold_left (fun a v -> if Float.is_nan v then a + 1 else a) 0 values in
  let frac = float_of_int nans /. float_of_int (Array.length values) in
  Alcotest.(check bool) "about 25% missing" true (frac > 0.22 && frac < 0.28);
  Alcotest.(check bool) "noisy rows are the clean rows with holes" true
    (Array.for_all2 (fun n c -> Float.is_nan n || n = c) values clean)

let test_models_and_samples () =
  let ser m = Spnc_spn.Serialize.to_string m in
  Alcotest.(check bool) "speaker models fixed" true
    (Array.map ser (Inputs.speaker_models ()) = Array.map ser (Inputs.speaker_models ()));
  Alcotest.(check bool) "RAT-SPN models fixed" true
    (ser (Inputs.rat_models ()).(0) = ser (Inputs.rat_models ()).(0));
  Alcotest.(check bool) "class model order from the seed" true
    (Inputs.rat_class ~seed:3 0 <> Inputs.rat_class ~seed:4 0);
  Alcotest.(check bool) "RAT-SPN rows from the seed" true
    (same_floats
       (Array.concat (Array.to_list (Inputs.rat_rows ~seed:2 ~rows:4)))
       (Array.concat (Array.to_list (Inputs.rat_rows ~seed:2 ~rows:4))));
  let s = Inputs.sample_indices ~seed:9 ~n:100 ~k:10 in
  Alcotest.(check int) "sample size" 10 (Array.length s);
  Array.iteri
    (fun i x ->
      if x < 0 || x >= 100 || (i > 0 && x <= s.(i - 1)) then
        Alcotest.fail "sample indices not distinct, sorted and in range")
    s;
  Alcotest.(check (array int)) "sample from the seed" s (Inputs.sample_indices ~seed:9 ~n:100 ~k:10)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "percentile tail rule" `Quick test_percentile_tail;
          Alcotest.test_case "sample buffer" `Quick test_buf;
          Alcotest.test_case "windowed median" `Quick test_windowed_median;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "request schedule from the seed" `Quick test_schedule;
          Alcotest.test_case "speaker rows from the seed" `Quick test_speaker_rows;
          Alcotest.test_case "models and samples from the seed" `Quick test_models_and_samples;
        ] );
    ]
