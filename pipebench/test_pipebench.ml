(* Tests of the benchmark's own code: order statistics, metric names, the
   digest check and a miniature of every workload. *)

open Pipebench

let check_float msg expected actual = Alcotest.(check (float 0.)) msg expected actual

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3.; 10.; 9.; 8.; 7.; 6. |] in
  check_float "p50 of 1..10" 5. (Timing.percentile 0.5 xs);
  check_float "p90 of 1..10" 9. (Timing.percentile 0.9 xs);
  check_float "p100 is the max" 10. (Timing.percentile 1. xs);
  check_float "tiny p is the min" 1. (Timing.percentile 0.01 xs);
  check_float "minimum" 1. (Timing.minimum xs);
  check_float "median of one" 7. (Timing.median [| 7. |]);
  check_float "median of three" 2. (Timing.median [| 3.; 1.; 2. |]);
  check_float "input left unsorted" 5. xs.(0);
  Alcotest.check_raises "empty" (Invalid_argument "Timing.percentile: no samples") (fun () ->
      ignore (Timing.percentile 0.5 [||]));
  Alcotest.check_raises "p = 0" (Invalid_argument "Timing.percentile: p outside (0, 1]") (fun () ->
      ignore (Timing.percentile 0. xs))

let test_best_of_k () =
  let b = Timing.best_create 3 in
  Alcotest.(check bool) "untimed job reads infinity" true (Float.equal b.(0) infinity);
  List.iter (Timing.best_record b) [ [| 3.; 1.; 5. |]; [| 2.; 4.; 6. |]; [| 9.; 0.5; 5.5 |] ];
  Alcotest.(check (array (float 0.))) "per-job minimum over passes" [| 2.; 0.5; 5. |] b;
  Alcotest.check_raises "length" (Invalid_argument "Timing.best_record: length mismatch") (fun () ->
      Timing.best_record b [| 1. |])

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) ("valid: " ^ n) true (Measure.valid_name n))
    (Measure.end_to_end_names @ Measure.per_layer_names);
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid: " ^ n) false (Measure.valid_name n))
    [ ""; "has space"; "slash/name"; "_lead"; ".lead"; "ünicode"; String.make 65 'a' ];
  let all = Measure.end_to_end_names @ Measure.per_layer_names in
  Alcotest.(check int) "names are distinct" (List.length all)
    (List.length (List.sort_uniq String.compare all))

let smoke_config workload ~trace ~expected_digest =
  { Measure.workload;
    scale = Jobs.Smoke;
    seed = 11;
    seconds = 0.;
    trace;
    expected_digest }

let test_digest_trips () =
  let jobs = Jobs.setup Jobs.Tiled_pipeline ~scale:Jobs.Smoke ~seed:11 in
  let results = Array.map (Jobs.run Jobs.direct) jobs in
  let good = Jobs.digest results in
  Alcotest.(check bool) "digest repeats" true (String.equal good (Jobs.digest (Array.map (Jobs.run Jobs.direct) jobs)));
  let i = ref (-1) in
  Array.iteri (fun k r -> match r with Ok o when o.Jobs.verdict.Jobs.feasible && !i < 0 -> i := k | _ -> ()) results;
  Alcotest.(check bool) "a feasible job exists" true (!i >= 0);
  let planted = Array.copy results in
  (match planted.(!i) with
  | Ok o ->
    let v = o.Jobs.verdict in
    planted.(!i) <- Ok { o with Jobs.verdict = { v with Jobs.makespan = Float.succ v.Jobs.makespan } }
  | Error _ -> assert false);
  let bad = Jobs.digest planted in
  Alcotest.(check bool) "a one-ulp makespan changes the digest" false (String.equal good bad);
  Alcotest.(check bool) "planted verdict differs" false (Jobs.same_verdict results.(!i) planted.(!i));
  (match Jobs.check_digest ~expected:(Some good) bad with
  | Jobs.Mismatch _ -> ()
  | Jobs.Match | Jobs.Unchecked -> Alcotest.fail "planted makespan passed the digest check");
  (* The whole run fails when its verdicts do not match the stored digest. *)
  let r = Measure.run (smoke_config Jobs.Tiled_pipeline ~trace:false ~expected_digest:(Some (String.make 32 '0'))) in
  Alcotest.(check bool) "run marked incorrect" false r.Measure.correct;
  Alcotest.(check int) "every job counts as failed" r.Measure.attempted r.Measure.failed

let test_parse_digests () =
  let stored = Jobs.parse_digests "# comment\n\nrand-sweep 7 0123456789abcdef0123456789abcdef\n" in
  Alcotest.(check (list (pair (pair string int) string)))
    "parsed"
    [ (("rand-sweep", 7), "0123456789abcdef0123456789abcdef") ]
    stored;
  Alcotest.check_raises "malformed line" (Failure "digests line 2: expected <workload> <seed> <md5 hex>")
    (fun () -> ignore (Jobs.parse_digests "# ok\nrand-sweep seven abc\n"))

let test_seed_changes_inputs () =
  let digest w seed = Jobs.digest (Array.map (Jobs.run Jobs.direct) (Jobs.setup w ~scale:Jobs.Smoke ~seed)) in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Jobs.workload_name w ^ ": another seed, other verdicts")
        false
        (String.equal (digest w 1) (digest w 2)))
    Jobs.workloads

let smoke workload () =
  let names r = List.map (fun x -> x.Measure.name) r.Measure.metrics in
  let plain = Measure.run (smoke_config workload ~trace:false ~expected_digest:None) in
  Alcotest.(check bool) "correct" true plain.Measure.correct;
  Alcotest.(check int) "no failures" 0 plain.Measure.failed;
  Alcotest.(check (list string)) "end-to-end metrics" Measure.end_to_end_names (names plain);
  List.iter
    (fun x -> Alcotest.(check bool) (x.Measure.name ^ " > 0") true (x.Measure.value > 0.))
    plain.Measure.metrics;
  let traced = Measure.run (smoke_config workload ~trace:true ~expected_digest:None) in
  Alcotest.(check bool) "traced correct" true traced.Measure.correct;
  Alcotest.(check (list string)) "per-layer metrics" Measure.per_layer_names (names traced);
  let value n = (List.find (fun x -> String.equal x.Measure.name n) traced.Measure.metrics).Measure.value in
  let shares =
    List.fold_left
      (fun acc l -> acc +. value (Spans.layer_name l ^ ".share"))
      (value "job.glue_share")
      (Array.to_list Spans.layers)
  in
  (* A sanity check of the arithmetic only: glue is defined as what the
     layer spans leave uncovered.  The run compares that gap with the
     tracing overhead in its notes. *)
  Alcotest.(check (float 1e-9)) "layer shares plus the uncovered gap make 1" 1. shares;
  Alcotest.(check bool) "coverage reported" true
    (List.exists (fun l -> String.starts_with ~prefix:"coverage: " l) traced.Measure.notes);
  check_float "no validator rejection" 0. (value "sim.validate.rejected");
  let json = Measure.render_json traced in
  Alcotest.(check bool) "one line" false (String.contains json '\n')

let () =
  Alcotest.run "pipebench"
    [ ( "helpers",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "best of k" `Quick test_best_of_k;
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "digest file" `Quick test_parse_digests ] );
      ( "correctness",
        [ Alcotest.test_case "planted makespan trips the digest" `Quick test_digest_trips;
          Alcotest.test_case "seed changes every workload" `Quick test_seed_changes_inputs ] );
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case (Jobs.workload_name w) `Quick (smoke w))
          Jobs.workloads ) ]
