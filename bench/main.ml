(* Benchmark harness: regenerates every table and figure of the paper
   (sections printed to stdout, CSVs under results/), then runs Bechamel
   micro-benchmarks of the library's hot paths.

   Usage: main.exe [--quick | --paper] [--skip-micro] [--skip-figures]
                   [--only-exact] [--only-serve] [--only-hotpath] [--only-sim]
                   [--only-online] [--only-lint] [--jobs N]
   Default scale completes in a few minutes; --paper runs the full SS 6
   campaign (50x30, 100x1000, 13x13 with the complete alpha grid).
   --only-exact runs just the campaign/exact section (results/BENCH_exact.json).
   --only-serve runs just the campaign/serve section (results/BENCH_serve.json).
   --only-hotpath runs just the campaign/hotpath section, including the
   10^5-task LU row (results/BENCH_hotpath.json).
   --only-sim runs just the campaign/sim section — flat validate/trace/stats
   vs the *_reference pipeline, --jobs byte-identity, and the 10^6-task LU
   row (results/BENCH_sim.json).
   --only-online runs just the campaign/online section — plan under jittered
   arrivals, replay under multiplicative noise (results/BENCH_online.json).
   --only-lint runs just the campaign/lint section — typed static analysis
   over the repo's own cmts, cold vs cached (results/BENCH_lint.json).
   --jobs N fans the campaign out over a N-domain Par pool (results are
   bit-identical for every N; default: recognised CPUs).
   --quick writes under results/quick/ (git-ignored) instead of results/, so
   a smoke run never overwrites the committed full-scale rows. *)

(* Every wall-clock sample in this harness goes through [now]: the numbers
   are reported, never fed back into scheduling decisions, so the
   nondeterminism is confined to this one pragma'd line. *)
(* lint: allow determinism -- the timing harness measures wall-clock by definition *)
let now () = Unix.gettimeofday ()

let run_figures scale pool out_dir =
  let report s =
    print_string s;
    flush stdout
  in
  match scale with
  | `Quick -> Figures.all_quick ~out_dir ~report ~pool ()
  | `Paper -> Figures.all_paper ~out_dir ~report ~pool ()
  | `Default ->
    Figures.table1 ~out_dir ~report ();
    Figures.figure8 ~out_dir ~report ();
    Figures.figure9 ~out_dir ~report ();
    Figures.figure10 ~out_dir ~report ~pool ~count:50 ~exact_nodes:10_000 ~capped_count:15
      ~tiny_count:20 ();
    Figures.figure11 ~out_dir ~report ~pool ();
    Figures.figure12 ~out_dir ~report ~pool ~count:30 ~size:1000 ();
    Figures.figure13 ~out_dir ~report ~pool ();
    Figures.figure14 ~out_dir ~report ~pool ~n:13 ();
    Figures.figure15 ~out_dir ~report ~pool ~n:13 ();
    Figures.ilp_cross_check ~out_dir ~report ~pool ~node_limit:20_000 ();
    Figures.ablations ~out_dir ~report ~pool ~count:20 ();
    Figures.extensions ~out_dir ~report ~pool ~count:20 ();
    Plots.write_gnuplot ~out_dir ()

(* ------------------------------------------------- campaign/sweep-par ---- *)

(* Wall-clock comparison of the serial normalized_sweep against the Par
   pool, on the same instance set; also cross-checks the determinism
   contract and prints the pool counters so a speedup regression (or a
   pool pathology: queue starvation, submit backpressure) is visible. *)
let run_sweep_par_bench jobs =
  Printf.printf "\n==== campaign/sweep-par -- serial vs --jobs %d ====\n\n%!" jobs;
  let platform = Workloads.platform_random in
  let baselines = Sweep.baselines platform (Workloads.large_rand_set ~count:12 ~size:300 ()) in
  let alphas = Figures.default_alphas in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let sweep ?pool () =
    List.map
      (fun h -> Sweep.normalized_sweep ?pool platform ~alphas h baselines)
      [ Heuristics.MemHEFT; Heuristics.MemMinMin ]
  in
  let serial, t_serial = time (fun () -> sweep ()) in
  Par.with_pool ~jobs (fun pool ->
      let par, t_par = time (fun () -> sweep ~pool ()) in
      Printf.printf "serial:   %8.3f s\n--jobs %d: %7.3f s  (speedup %.2fx)\n" t_serial jobs t_par
        (t_serial /. t_par);
      (* [compare]: mean ratios are nan where no instance succeeds. *)
      (* lint: allow poly-compare -- jobs-parity check wants bit-identity *)
      Printf.printf "aggregates identical across jobs counts: %b\n" (compare serial par = 0);
      Format.printf "pool counters: %a@." Par.pp_counters (Par.counters pool))

(* -------------------------------------------------- campaign/hotpath ---- *)

(* Perf trajectory of the scheduling core: wall-clock of the optimised
   hot paths against the in-tree pre-optimisation reference runners
   ([Heuristics.memheft_reference] / [memminmin_reference]), per heuristic
   and DAG family at two sizes each.  Emits results/BENCH_hotpath.json so
   successive PRs can track the numbers; this section runs even with
   --skip-figures (it is independent of the figure campaign). *)
let run_hotpath_bench scale out_dir =
  Printf.printf "\n==== campaign/hotpath -- optimised vs reference core ====\n\n%!";
  let quick = scale = `Quick in
  let instances =
    let rand size =
      ( "random",
        size,
        (fun () -> List.hd (Workloads.large_rand_set ~count:1 ~size ())),
        Workloads.platform_random )
    in
    let lu n = ("lu", n, (fun () -> Workloads.lu ~n ()), Workloads.platform_mirage) in
    let chol n = ("cholesky", n, (fun () -> Workloads.cholesky ~n ()), Workloads.platform_mirage) in
    if quick then [ rand 100; rand 300; lu 6; lu 8; chol 6; chol 8 ]
    else [ rand 300; rand 1000; lu 8; lu 13; chol 8; chol 13 ]
  in
  let time reps f =
    ignore (f ());
    (* warm-up *)
    let t0 = now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (now () -. t0) /. float_of_int reps
  in
  let entries = ref [] in
  List.iter
    (fun (family, param, mk, platform) ->
      let g = mk () in
      let n = Dag.n_tasks g in
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g platform) in
      let p = Platform.with_bounds platform ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak) in
      let reps = if quick then 2 else if n >= 1000 then 3 else 10 in
      List.iter
        (fun (hname, opt, refr) ->
          let t_opt = time reps (fun () -> opt g p) in
          let t_ref = time reps (fun () -> refr g p) in
          Printf.printf "%-9s %-9s n=%-5d  opt %7.2f ms  ref %7.2f ms  speedup %.2fx\n%!" hname
            family n (1e3 *. t_opt) (1e3 *. t_ref) (t_ref /. t_opt);
          entries := (family, param, n, hname, t_opt, t_ref) :: !entries)
        [ ("MemHEFT",
           (fun g p -> ignore (Heuristics.memheft g p)),
           fun g p -> ignore (Heuristics.memheft_reference g p));
          ("MemMinMin",
           (fun g p -> ignore (Heuristics.memminmin g p)),
           fun g p -> ignore (Heuristics.memminmin_reference g p)) ])
    instances;
  (* The 10^5-task row: MemHEFT over the LU elimination DAG at n = 67
     (102510 kernel tasks; broadcast pipelining off so the count is the
     plain sum of the elimination kernels).  Bounds are HEFT's own planned
     peaks — the §6.2.1 regime, where MemHEFT replays HEFT with zero
     rejections — so the timing isolates the flat core: CSR estimate walks,
     staircase updates and the flat ready set.  The reference runner is
     deliberately absent (its full-list rescans are quadratic; hours at this
     size), so the row carries opt_ms only. *)
  let big_n = 67 in
  let g = Lu.generate ~pipeline_broadcasts:false ~n:big_n () in
  let n = Dag.n_tasks g in
  let platform = Workloads.platform_mirage in
  let t0 = now () in
  let _, (peak_blue, peak_red) = Heuristics.heft_measured g platform in
  let t_peak = now () -. t0 in
  let p = Platform.with_bounds platform ~m_blue:peak_blue ~m_red:peak_red in
  let t0 = now () in
  (match Heuristics.memheft g p with
  | Ok _ -> ()
  | Error _ -> failwith "hotpath: MemHEFT infeasible at HEFT's own peaks (§6.2.1 violation)");
  let t_opt = now () -. t0 in
  Printf.printf "%-9s %-9s n=%-6d opt %7.0f ms  (HEFT peak pass %.0f ms; reference omitted)\n%!"
    "MemHEFT" "lu" n (1e3 *. t_opt) (1e3 *. t_peak);
  let big_entry =
    [ ("family", Bench_json.S "lu"); ("param", Bench_json.I big_n);
      ("n_tasks", Bench_json.I n); ("heuristic", Bench_json.S "MemHEFT");
      ("opt_ms", Bench_json.F (1e3 *. t_opt)); ("ref", Bench_json.S "skipped") ]
  in
  let entries = List.rev !entries in
  Bench_json.write ~out_dir ~file:"BENCH_hotpath.json" ~bench:"hotpath"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    (List.map
       (fun (family, param, n, hname, t_opt, t_ref) ->
         [ ("family", Bench_json.S family); ("param", Bench_json.I param);
           ("n_tasks", Bench_json.I n); ("heuristic", Bench_json.S hname);
           ("opt_ms", Bench_json.F (1e3 *. t_opt)); ("ref_ms", Bench_json.F (1e3 *. t_ref));
           ("speedup", Bench_json.F (t_ref /. t_opt)) ])
       entries
    @ [ big_entry ])

(* ----------------------------------------------------- campaign/sim ----- *)

(* Verification-pipeline throughput (lib/sim): the flat validate / trace /
   stats against the verbatim *_reference pipeline on small and medium
   instances — every A/B row also asserts bit-identity of the two results —
   the sharded validator's --jobs byte-identity (on a valid and on a
   corrupted schedule, error report included), and the 10^6-task pin: HEFT
   over the LU elimination DAG at n = 144 (1,005,720 kernel tasks),
   validated at HEFT's own measured peaks (the §6.2.1 zero-rejection
   regime), traced and stats'd.  The reference pipeline is deliberately
   skipped on the big row — its per-processor [tasks_of_proc] rescans are
   O(n·p) and its list-of-boxed-events trace rebuilds the heap per query;
   the flat pipeline is the point of this section.  Emits
   results/BENCH_sim.json. *)
let run_sim_bench scale out_dir =
  Printf.printf "\n==== campaign/sim -- flat verification pipeline ====\n\n%!";
  let quick = scale = `Quick in
  let report_equal a b =
    match (a, b) with
    | Ok (ra : Validator.report), Ok (rb : Validator.report) ->
      Float.compare ra.Validator.makespan rb.Validator.makespan = 0
      && Float.compare ra.Validator.peak_blue rb.Validator.peak_blue = 0
      && Float.compare ra.Validator.peak_red rb.Validator.peak_red = 0
    | Error ea, Error eb -> List.equal String.equal ea eb
    | _ -> false
  in
  let farr_equal a b =
    Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.compare x y = 0) a b
  in
  let trace_equal (a : Events.trace) (b : Events.trace) =
    farr_equal a.Events.times b.Events.times
    && farr_equal a.Events.blue b.Events.blue
    && farr_equal a.Events.red b.Events.red
  in
  let stats_equal (a : Sched_stats.t) (b : Sched_stats.t) =
    Float.compare a.Sched_stats.makespan b.Sched_stats.makespan = 0
    && Float.compare a.Sched_stats.total_work b.Sched_stats.total_work = 0
    && Float.compare a.Sched_stats.peak_blue b.Sched_stats.peak_blue = 0
    && Float.compare a.Sched_stats.peak_red b.Sched_stats.peak_red = 0
    && Float.compare a.Sched_stats.avg_blue b.Sched_stats.avg_blue = 0
    && Float.compare a.Sched_stats.avg_red b.Sched_stats.avg_red = 0
    && a.Sched_stats.n_transfers = b.Sched_stats.n_transfers
  in
  let time reps f =
    ignore (f ());
    (* warm-up *)
    let t0 = now () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (now () -. t0) /. float_of_int reps
  in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  (* A/B rows: flat vs reference on HEFT schedules validated at HEFT's own
     measured peaks, so the whole pipeline runs end-to-end (Ok verdicts). *)
  let instances =
    let rand size =
      ( "random",
        size,
        (fun () -> List.hd (Workloads.large_rand_set ~count:1 ~size ())),
        Workloads.platform_random )
    in
    let lu n = ("lu", n, (fun () -> Workloads.lu ~n ()), Workloads.platform_mirage) in
    let chol n = ("cholesky", n, (fun () -> Workloads.cholesky ~n ()), Workloads.platform_mirage) in
    if quick then [ rand 300; lu 8; chol 8 ] else [ rand 300; rand 1000; lu 13; chol 13 ]
  in
  List.iter
    (fun (family, param, mk, platform) ->
      let g = mk () in
      let n = Dag.n_tasks g in
      let s, (pb, pr) = Heuristics.heft_measured g platform in
      let p = Platform.with_bounds platform ~m_blue:pb ~m_red:pr in
      let reps = if quick then 3 else if n >= 1000 then 5 else 10 in
      List.iter
        (fun (comp, opt, refr, identical) ->
          let t_opt = time reps opt in
          let t_ref = time reps refr in
          Printf.printf
            "%-8s %-9s n=%-5d  opt %7.2f ms  ref %7.2f ms  speedup %5.2fx  identical %b\n%!" comp
            family n (1e3 *. t_opt) (1e3 *. t_ref) (t_ref /. t_opt) identical;
          push
            [ ("section", Bench_json.S "ab"); ("family", Bench_json.S family);
              ("param", Bench_json.I param); ("n_tasks", Bench_json.I n);
              ("component", Bench_json.S comp); ("opt_ms", Bench_json.F (1e3 *. t_opt));
              ("ref_ms", Bench_json.F (1e3 *. t_ref)); ("speedup", Bench_json.F (t_ref /. t_opt));
              ("identical", Bench_json.B identical) ])
        [ ( "validate",
            (fun () -> ignore (Validator.validate g p s)),
            (fun () -> ignore (Validator.validate_reference g p s)),
            report_equal (Validator.validate g p s) (Validator.validate_reference g p s) );
          ( "trace",
            (fun () -> ignore (Events.memory_trace g p s)),
            (fun () -> ignore (Events.memory_trace_reference g p s)),
            trace_equal (Events.memory_trace g p s) (Events.memory_trace_reference g p s) );
          ( "stats",
            (fun () -> ignore (Sched_stats.compute g p s)),
            (fun () -> ignore (Sched_stats.compute_reference g p s)),
            stats_equal (Sched_stats.compute g p s) (Sched_stats.compute_reference g p s) ) ])
    instances;
  (* --jobs byte-identity of the sharded validator: a valid schedule and a
     collapsed one (many planted errors), each vs the serial report. *)
  let g = Workloads.lu ~n:(if quick then 10 else 13) () in
  let n_jobs_tasks = Dag.n_tasks g in
  let s, (pb, pr) = Heuristics.heft_measured g Workloads.platform_mirage in
  let p = Platform.with_bounds Workloads.platform_mirage ~m_blue:pb ~m_red:pr in
  let bad =
    {
      Schedule.starts = Array.make (Dag.n_tasks g) 0.;
      procs = Array.make (Dag.n_tasks g) 0;
      comm_starts = Array.make (Dag.n_edges g) None;
    }
  in
  let serial_ok = Validator.validate g p s in
  let serial_bad = Validator.validate g p bad in
  (match serial_bad with
  | Ok _ -> failwith "campaign/sim: collapsed schedule accepted"
  | Error _ -> ());
  List.iter
    (fun jobs ->
      let t0 = now () in
      let pooled_ok, pooled_bad =
        Par.with_pool ~jobs (fun pool ->
            (Validator.validate ~pool g p s, Validator.validate ~pool g p bad))
      in
      let t = now () -. t0 in
      let identical = report_equal serial_ok pooled_ok && report_equal serial_bad pooled_bad in
      Printf.printf "validate  --jobs %d  n=%-5d  %7.3f s  identical %b\n%!" jobs n_jobs_tasks t
        identical;
      push
        [ ("section", Bench_json.S "jobs"); ("jobs", Bench_json.I jobs);
          ("n_tasks", Bench_json.I n_jobs_tasks); ("wall_s", Bench_json.F t);
          ("identical", Bench_json.B identical) ])
    [ 1; 2; 8 ];
  (* The 10^6-task pin: single-digit seconds for validate + trace + stats.
     Steady-state methodology: one Events.scratch is shared across the
     sweep (the intended way to run repeated verifications at this size)
     and each component reports the best of two timed passes, so the row
     measures the pipeline rather than the first-touch page-fault cost of
     the buffers on a cold machine. *)
  let big_n = 144 in
  let big_reps = 2 in
  let g = Lu.generate ~pipeline_broadcasts:false ~n:big_n () in
  let n = Dag.n_tasks g in
  let t0 = now () in
  let s, (pb, pr) = Heuristics.heft_measured g Workloads.platform_mirage in
  let t_sched = now () -. t0 in
  let p = Platform.with_bounds Workloads.platform_mirage ~m_blue:pb ~m_red:pr in
  let scratch = Events.scratch () in
  let best f =
    let best = ref infinity in
    for _ = 1 to big_reps do
      let t0 = now () in
      f ();
      let t = now () -. t0 in
      if t < !best then best := t
    done;
    !best
  in
  let t_validate =
    best (fun () ->
        match Validator.validate ~scratch g p s with
        | Ok _ -> ()
        | Error errs -> failwith ("campaign/sim: 10^6-task schedule rejected: " ^ List.hd errs))
  in
  let t_trace = best (fun () -> ignore (Events.memory_trace ~scratch g p s)) in
  let t_stats = best (fun () -> ignore (Sched_stats.compute ~scratch g p s)) in
  Printf.printf
    "big       lu        n=%-8d sched %7.0f ms  validate %7.0f ms  trace %7.0f ms  stats %7.0f \
     ms  (reference skipped)\n%!"
    n (1e3 *. t_sched) (1e3 *. t_validate) (1e3 *. t_trace) (1e3 *. t_stats);
  push
    [ ("section", Bench_json.S "big"); ("family", Bench_json.S "lu");
      ("param", Bench_json.I big_n); ("n_tasks", Bench_json.I n);
      ("schedule_ms", Bench_json.F (1e3 *. t_sched));
      ("validate_ms", Bench_json.F (1e3 *. t_validate));
      ("trace_ms", Bench_json.F (1e3 *. t_trace)); ("stats_ms", Bench_json.F (1e3 *. t_stats));
      ("ref", Bench_json.S "skipped") ];
  Bench_json.write ~out_dir ~file:"BENCH_sim.json" ~bench:"sim"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "flat verification pipeline vs *_reference; every ab/jobs row cross-checks \
            bit-identity; the big row's reference leg is skipped by design") ]
    (List.rev !entries)

(* --------------------------------------------------- campaign/exact ------ *)

(* Perf trajectory of the exact branch-and-bound: node throughput of the
   commit/undo search against the in-tree per-node-copy reference
   ([Exact.solve_reference]), wall-clock of warm-started vs cold node LPs in
   [Mip.solve], and a --jobs sweep of the parallel frontier decomposition.
   Emits results/BENCH_exact.json.

   Both engines are run in parity mode (frontier 1, no dominance) on the
   same node budget, so nodes/sec is compared over the identical tree.  The
   jobs sweep records honest wall times: on a single-core container the
   extra domains can only add overhead — the section's point there is the
   determinism cross-check (bit-identical results for every jobs count), not
   a speedup. *)
let run_exact_bench scale out_dir =
  Printf.printf "\n==== campaign/exact -- commit/undo B&B vs per-node-copy reference ====\n\n%!";
  let quick = scale = `Quick in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* Four DAG families at a memory bound that keeps the search busy. *)
  let instances =
    let bounded g platform =
      let peak = Outcome.peak_max (Outcome.run Heuristics.HEFT g platform) in
      Platform.with_bounds platform ~m_blue:(0.7 *. peak) ~m_red:(0.7 *. peak)
    in
    let rand size =
      let g = List.hd (Workloads.large_rand_set ~count:1 ~size ()) in
      ("random", size, g, bounded g Workloads.platform_random)
    in
    let lu n =
      let g = Workloads.lu ~n () in
      ("lu", n, g, bounded g Workloads.platform_mirage)
    in
    let chol n =
      let g = Workloads.cholesky ~n () in
      ("cholesky", n, g, bounded g Workloads.platform_mirage)
    in
    let fork width =
      let g = Toy.fork_join ~width ~w:1. ~f:1. ~c:1. in
      ("fork_join", width, g, Platform.make ~p_blue:2 ~p_red:1 ~m_blue:(float_of_int width) ~m_red:(float_of_int width))
    in
    if quick then [ rand 40; lu 6; chol 6; fork 8 ]
    else [ rand 100; lu 10; chol 10; fork 12 ]
  in
  let node_limit = if quick then 5_000 else 50_000 in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  (* Section 1: copy-vs-undo node throughput, identical tree (parity mode). *)
  List.iter
    (fun (family, param, g, p) ->
      let r_ref, t_ref = time (fun () -> Exact.solve_reference ~node_limit g p) in
      let r_undo, t_undo =
        time (fun () -> Exact.solve ~frontier:1 ~dominance:false ~node_limit g p)
      in
      let nps n t = float_of_int n /. t in
      Printf.printf
        "search    %-9s n=%-5d  ref %8.0f n/s  undo %8.0f n/s  speedup %5.2fx  (%d vs %d nodes)\n%!"
        family (Dag.n_tasks g)
        (nps r_ref.Exact.nodes t_ref) (nps r_undo.Exact.nodes t_undo)
        (nps r_undo.Exact.nodes t_undo /. nps r_ref.Exact.nodes t_ref)
        r_ref.Exact.nodes r_undo.Exact.nodes;
      push
        [ ("section", Bench_json.S "search_state"); ("family", Bench_json.S family);
          ("param", Bench_json.I param); ("n_tasks", Bench_json.I (Dag.n_tasks g));
          ("node_limit", Bench_json.I node_limit);
          ("ref_nodes", Bench_json.I r_ref.Exact.nodes);
          ("undo_nodes", Bench_json.I r_undo.Exact.nodes);
          ("ref_nodes_per_s", Bench_json.F (nps r_ref.Exact.nodes t_ref));
          ("undo_nodes_per_s", Bench_json.F (nps r_undo.Exact.nodes t_undo));
          ("speedup", Bench_json.F (nps r_undo.Exact.nodes t_undo /. nps r_ref.Exact.nodes t_ref)) ])
    instances;
  (* Section 2: warm-started vs cold node LPs on the ILP cross-check toys. *)
  let lp_cases =
    let base =
      [ ("chain2", Toy.chain ~n:2 ~w:2. ~f:1. ~c:1.,
         Platform.make ~p_blue:1 ~p_red:1 ~m_blue:3. ~m_red:3., 5_000);
        ("chain3", Toy.chain ~n:3 ~w:2. ~f:1. ~c:1.,
         Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4., 5_000) ]
    in
    if quick then base
    else
      base
      @ [ ("fork2", Toy.fork_join ~width:2 ~w:1. ~f:1. ~c:1.,
           Platform.make ~p_blue:1 ~p_red:1 ~m_blue:6. ~m_red:6., 150) ]
  in
  List.iter
    (fun (name, g, p, lp_nodes) ->
      let model = Ilp_model.build g p in
      let seed =
        match Exact.solve g p with
        | { Exact.status = Exact.Proven_optimal; makespan; _ } -> Some (makespan +. 1e-3)
        | _ -> None
      in
      let cold, t_cold =
        time (fun () -> Mip.solve ~node_limit:lp_nodes ?incumbent:seed ~warm_start:false (Ilp_model.lp model))
      in
      let warm, t_warm =
        time (fun () -> Mip.solve ~node_limit:lp_nodes ?incumbent:seed ~warm_start:true (Ilp_model.lp model))
      in
      Printf.printf "warm-lp   %-9s cold %7.3f s (%4d nodes)  warm %7.3f s (%4d nodes)  speedup %5.2fx\n%!"
        name t_cold cold.Mip.nodes t_warm warm.Mip.nodes (t_cold /. t_warm);
      push
        [ ("section", Bench_json.S "warm_lp"); ("instance", Bench_json.S name);
          ("node_limit", Bench_json.I lp_nodes);
          ("cold_s", Bench_json.F t_cold); ("cold_nodes", Bench_json.I cold.Mip.nodes);
          ("warm_s", Bench_json.F t_warm); ("warm_nodes", Bench_json.I warm.Mip.nodes);
          ("speedup", Bench_json.F (t_cold /. t_warm)) ])
    lp_cases;
  (* Section 3: --jobs sweep of the parallel frontier decomposition; the
     determinism contract (identical result for every jobs count) is checked
     on every row. *)
  let jobs_node_limit = if quick then 2_000 else 20_000 in
  List.iter
    (fun (family, param, g, p) ->
      let serial, t_serial = time (fun () -> Exact.solve ~node_limit:jobs_node_limit g p) in
      List.iter
        (fun jobs ->
          let r, t =
            if jobs = 1 then (serial, t_serial)
            else
              time (fun () ->
                  Par.with_pool ~jobs (fun pool ->
                      Exact.solve ~pool ~node_limit:jobs_node_limit g p))
          in
          let identical =
            r.Exact.status = serial.Exact.status
            && Int64.equal (Int64.bits_of_float r.Exact.makespan)
                 (Int64.bits_of_float serial.Exact.makespan)
            && Int64.equal (Int64.bits_of_float r.Exact.best_bound)
                 (Int64.bits_of_float serial.Exact.best_bound)
            && r.Exact.nodes = serial.Exact.nodes
          in
          Printf.printf "jobs      %-9s --jobs %d  %7.3f s  identical %b\n%!" family jobs t identical;
          push
            [ ("section", Bench_json.S "jobs"); ("family", Bench_json.S family);
              ("param", Bench_json.I param); ("jobs", Bench_json.I jobs);
              ("node_limit", Bench_json.I jobs_node_limit); ("wall_s", Bench_json.F t);
              ("identical", Bench_json.B identical) ])
        [ 1; 2; 8 ])
    instances;
  Bench_json.write ~out_dir ~file:"BENCH_exact.json" ~bench:"exact"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "single-core container: the jobs sweep measures determinism overhead, not speedup") ]
    (List.rev !entries)

(* --------------------------------------------------- campaign/serve ------ *)

(* Throughput and completion-latency of the scheduling daemon (lib/serve):
   a burst of distinct requests is piped through the real [Server.serve]
   loop — writer domain in, server domain on the pool, response frames
   timestamped here as they arrive — first against a cold result cache,
   then replayed against the warm one, at --jobs 1/2/8.  Emits
   results/BENCH_serve.json.  The response-stream digest is cross-checked
   on every row: every jobs count and both cache states must produce the
   identical bytes (the daemon's core contract). *)
let run_serve_bench scale out_dir =
  Printf.printf "\n==== campaign/serve -- daemon throughput, cold vs warm cache ====\n\n%!";
  let quick = scale = `Quick in
  let n_requests = if quick then 24 else 60 in
  let size = if quick then 40 else 80 in
  let dags = Workloads.large_rand_set ~count:n_requests ~size () in
  let platform = Workloads.platform_random in
  let algos =
    [| Heuristics.MemHEFT; Heuristics.MemMinMin; Heuristics.HEFT; Heuristics.MinMin |]
  in
  let script =
    String.concat ""
      (List.mapi
         (fun k g ->
           let req =
             { Wire.id = Int64.of_int (k + 1); algo = Wire.Heuristic algos.(k mod 4); seed = 0L;
               restarts = 0; node_limit = 0; platform; dag = g }
           in
           Wire.frame (Wire.encode_message (Wire.Request req)))
         dags)
  in
  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let rec go off =
      if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
    in
    go 0
  in
  let read_exact fd n =
    let buf = Bytes.create n in
    let rec go off =
      if off = n then Some (Bytes.unsafe_to_string buf)
      else
        match Unix.read fd buf off (n - off) with 0 -> None | k -> go (off + k)
    in
    go 0
  in
  (* One pass of the whole script through a server sharing [pool] and
     [cache]; returns wall time, per-response completion times and the
     digest of the response byte stream. *)
  let run_pass pool cache =
    let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
    let writer =
      Domain.spawn (fun () ->
          write_all in_w script;
          Unix.close in_w)
    in
    let server =
      Domain.spawn (fun () ->
          let c = Server.serve ~pool ~cache ~input:in_r ~output:out_w () in
          Unix.close out_w;
          c)
    in
    let t0 = now () in
    let times = ref [] and all = Buffer.create 4096 in
    let rec read_frames () =
      match read_exact out_r 4 with
      | None -> ()
      | Some prefix -> (
        let declared = Int32.to_int (String.get_int32_be prefix 0) land 0xFFFF_FFFF in
        match read_exact out_r declared with
        | None -> ()
        | Some payload ->
          times := (now () -. t0) :: !times;
          Buffer.add_string all prefix;
          Buffer.add_string all payload;
          read_frames ())
    in
    read_frames ();
    let wall = now () -. t0 in
    let counters = Domain.join server in
    Domain.join writer;
    Unix.close in_r;
    Unix.close out_r;
    let times = Array.of_list (List.rev !times) in
    Array.sort Float.compare times;
    (wall, times, Digest.to_hex (Digest.string (Buffer.contents all)), counters)
  in
  let pct times q =
    let n = Array.length times in
    if n = 0 then nan
    else times.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let entries = ref [] in
  let reference = ref None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let cache = Serve_cache.create () in
          List.iter
            (fun phase ->
              let wall, times, digest, c = run_pass pool cache in
              let identical =
                match !reference with
                | None ->
                  reference := Some digest;
                  true
                | Some d -> d = digest
              in
              let rps = float_of_int n_requests /. wall in
              let p50 = 1e3 *. pct times 0.50 and p99 = 1e3 *. pct times 0.99 in
              Printf.printf
                "--jobs %d  %-5s %3d req  %7.3f s  %8.1f req/s  p50 %7.2f ms  p99 %7.2f ms  \
                 computed %2d  identical %b\n%!"
                jobs phase n_requests wall rps p50 p99 c.Server.computed identical;
              entries :=
                [ ("jobs", Bench_json.I jobs); ("phase", Bench_json.S phase);
                  ("n_requests", Bench_json.I n_requests); ("wall_s", Bench_json.F wall);
                  ("rps", Bench_json.F rps); ("p50_ms", Bench_json.F p50);
                  ("p99_ms", Bench_json.F p99); ("computed", Bench_json.I c.Server.computed);
                  ("served", Bench_json.I c.Server.served); ("digest", Bench_json.S digest);
                  ("identical", Bench_json.B identical) ]
                :: !entries)
            [ "cold"; "warm" ]))
    [ 1; 2; 8 ];
  Bench_json.write ~out_dir ~file:"BENCH_serve.json" ~bench:"serve"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "completion-time percentiles under a one-flush burst; single-core container: the jobs \
            sweep pins byte-identity, not speedup") ]
    (List.rev !entries)

(* ------------------------------------------------------ micro-benchmarks *)

open Bechamel
open Toolkit

let micro_tests () =
  let rng = Rng.create 99 in
  let small = Daggen.generate rng Daggen.small_rand_params in
  let large = Daggen.generate rng { Daggen.large_rand_params with Daggen.size = 300 } in
  let lu = Lu.generate ~n:8 () in
  let plat = Platform.unbounded ~p_blue:2 ~p_red:2 in
  let mirage = Platform.unbounded ~p_blue:12 ~p_red:3 in
  let bounded g platform frac =
    let o = Outcome.run Heuristics.HEFT g platform in
    let b = frac *. Outcome.peak_max o in
    Platform.with_bounds platform ~m_blue:b ~m_red:b
  in
  let small_b = bounded small plat 0.7 in
  let large_b = bounded large plat 0.7 in
  let lu_b = bounded lu mirage 0.7 in
  let run h g p () = ignore (Heuristics.run h g p) in
  let stage f = Staged.stage f in
  [ Test.make ~name:"heft/rand30" (stage (run Heuristics.HEFT small plat));
    Test.make ~name:"minmin/rand30" (stage (run Heuristics.MinMin small plat));
    Test.make ~name:"memheft/rand30@0.7" (stage (run Heuristics.MemHEFT small small_b));
    Test.make ~name:"memminmin/rand30@0.7" (stage (run Heuristics.MemMinMin small small_b));
    Test.make ~name:"memheft/rand300@0.7" (stage (run Heuristics.MemHEFT large large_b));
    Test.make ~name:"memminmin/rand300@0.7" (stage (run Heuristics.MemMinMin large large_b));
    Test.make ~name:"memheft/lu8@0.7" (stage (run Heuristics.MemHEFT lu lu_b));
    Test.make ~name:"validator/lu8"
      (stage
         (let s = Heuristics.heft lu mirage in
          fun () -> ignore (Validator.validate lu mirage s)));
    Test.make ~name:"rank/rand300" (stage (fun () -> ignore (Rank.upward_ranks large)));
    Test.make ~name:"daggen/rand30"
      (stage
         (let r = Rng.create 1 in
          fun () -> ignore (Daggen.generate r Daggen.small_rand_params)));
    Test.make ~name:"exact/dex-m4"
      (stage
         (let dex = Toy.dex () in
          let p = Platform.make ~p_blue:1 ~p_red:1 ~m_blue:4. ~m_red:4. in
          fun () -> ignore (Exact.solve dex p)))
  ]

let run_micro () =
  Printf.printf "\n==== Micro-benchmarks (Bechamel) ====\n\n%!";
  let tests = Test.make_grouped ~name:"memsched" ~fmt:"%s %s" (micro_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  (* Bechamel hands back a Hashtbl; rows are List.sort-ed into canonical
     order below, so bucket order cannot reach the printed table. *)
  (* lint: allow order-stability -- sorted before printing *)
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort
      (fun (a, x) (b, y) ->
        let c = String.compare a b in
        if c <> 0 then c else Float.compare x y)
      !rows
  in
  Table.print ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let cell =
           if Float.is_nan ns then "-"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; cell ])
       rows)

(* --------------------------------------------------- campaign/online ----- *)

(* Online planning + perturbed replay throughput (lib/online): plan every
   instance once under jittered arrivals, replay the committed schedule over
   the noise-seed x policy grid at --jobs 1/2/8, and cross-check the
   determinism contract on every row — the CSV digest must be byte-identical
   for every jobs count, and invariant under shuffling/duplicating the
   noise-seed list.  Emits results/BENCH_online.json. *)
let run_online_bench scale out_dir =
  Printf.printf "\n==== campaign/online -- plan, perturb, replay ====\n\n%!";
  let quick = scale = `Quick in
  let count = if quick then 4 else 8 in
  let n_seeds = if quick then 4 else 16 in
  let tile_n = if quick then 6 else 10 in
  let instances =
    List.mapi
      (fun k dag -> (Printf.sprintf "small%02d" k, dag))
      (Workloads.small_rand_set ~count ())
    @ [ ("lu", Workloads.lu ~n:tile_n ()); ("cholesky", Workloads.cholesky ~n:tile_n ()) ]
  in
  let platform = Workloads.platform_random in
  let cfg seeds =
    { Scenario.default_config with
      Scenario.arrival = Arrival.Jittered { gap = 1.0; seed = 5 };
      noise_level = 0.3;
      noise_seeds = seeds }
  in
  let seeds = List.init n_seeds (fun s -> s) in
  let digest rows =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.map (fun r -> Csv.row_to_string (Scenario.csv_row (cfg seeds) r)) rows)))
  in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  let (serial_rows, _), t_serial = time (fun () -> Scenario.run (cfg seeds) instances platform) in
  let serial_digest = digest serial_rows in
  List.iter
    (fun jobs ->
      let (rows, _), t =
        if jobs = 1 then ((serial_rows, []), t_serial)
        else
          time (fun () ->
              Par.with_pool ~jobs (fun pool -> Scenario.run ~pool (cfg seeds) instances platform))
      in
      let identical = String.equal (digest rows) serial_digest in
      Printf.printf "online    --jobs %d  %7.3f s  %d rows  identical %b\n%!" jobs t
        (List.length rows) identical;
      push
        [ ("section", Bench_json.S "jobs"); ("jobs", Bench_json.I jobs);
          ("instances", Bench_json.I (List.length instances));
          ("seeds", Bench_json.I n_seeds); ("rows", Bench_json.I (List.length rows));
          ("wall_s", Bench_json.F t); ("identical", Bench_json.B identical) ])
    [ 1; 2; 8 ];
  (* Seed-list order/duplication must not matter: the grid sorts and
     dedupes seeds up front. *)
  let shuffled = List.rev seeds @ seeds in
  let (shuffled_rows, _), t_shuffled =
    time (fun () -> Scenario.run (cfg shuffled) instances platform)
  in
  let identical = String.equal (digest shuffled_rows) serial_digest in
  Printf.printf "online    seed-order shuffle  %7.3f s  identical %b\n%!" t_shuffled identical;
  push
    [ ("section", Bench_json.S "seed_order"); ("jobs", Bench_json.I 1);
      ("instances", Bench_json.I (List.length instances));
      ("seeds", Bench_json.I n_seeds); ("rows", Bench_json.I (List.length shuffled_rows));
      ("wall_s", Bench_json.F t_shuffled); ("identical", Bench_json.B identical) ];
  Bench_json.write ~out_dir ~file:"BENCH_online.json" ~bench:"online"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "single-core container: the jobs sweep measures determinism overhead, not speedup") ]
    (List.rev !entries)

(* ----------------------------------------------------- campaign/lint ---- *)

(* Typed-lint throughput (lib/lint): cold vs warm wall-time of the
   interprocedural pass over the repo's own .cmt artifacts — the warm pass
   must serve every module from the content-addressed summary cache
   (extracted = 0) — plus the findings count and the --jobs 1/2/8
   byte-identity cross-check on the JSON report.  Requires the @check
   build; emits results/BENCH_lint.json. *)
let run_lint_bench scale out_dir =
  Printf.printf "\n==== campaign/lint -- typed pass, cold vs cached ====\n\n%!";
  let root = Sys.getcwd () in
  let cache_file = Filename.temp_file "memsched_lint_bench" ".cache" in
  let run jobs =
    match Lint_engine.run_typed ~jobs ~cache_file ~root () with
    | Ok (findings, _, stats) -> (Lint_engine.render_json findings, List.length findings, stats)
    | Error msg -> failwith ("campaign/lint: " ^ msg)
  in
  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  in
  (* temp_file creates an empty file; drop it so the first pass is truly
     cold (an empty cache, not a malformed one). *)
  Sys.remove cache_file;
  let (cold_json, cold_count, cold_stats), t_cold = time (fun () -> run 2) in
  let (warm_json, _, warm_stats), t_warm = time (fun () -> run 2) in
  let entries = ref [] in
  let push phase jobs json t (stats : Lint_engine.typed_stats) =
    let identical = String.equal json cold_json in
    Printf.printf
      "lint      --jobs %d  %-5s %7.3f s  %d modules  %d cached  %d extracted  %d findings  \
       identical %b\n%!"
      jobs phase t stats.Lint_engine.tp_modules stats.Lint_engine.tp_from_cache
      stats.Lint_engine.tp_extracted cold_count identical;
    entries :=
      [ ("phase", Bench_json.S phase); ("jobs", Bench_json.I jobs); ("wall_s", Bench_json.F t);
        ("modules", Bench_json.I stats.Lint_engine.tp_modules);
        ("from_cache", Bench_json.I stats.Lint_engine.tp_from_cache);
        ("extracted", Bench_json.I stats.Lint_engine.tp_extracted);
        ("stale", Bench_json.I stats.Lint_engine.tp_stale);
        ("findings", Bench_json.I cold_count); ("identical", Bench_json.B identical) ]
      :: !entries
  in
  push "cold" 2 cold_json t_cold cold_stats;
  push "warm" 2 warm_json t_warm warm_stats;
  List.iter
    (fun jobs ->
      let (json, _, stats), t = time (fun () -> run jobs) in
      push "warm" jobs json t stats)
    [ 1; 8 ];
  Sys.remove cache_file;
  Bench_json.write ~out_dir ~file:"BENCH_lint.json" ~bench:"lint"
    ~scale:(match scale with `Quick -> "quick" | `Paper -> "paper" | `Default -> "default")
    ~extra:
      [ ("note",
         Bench_json.S
           "typed pass over the repo's own cmts; warm rows must be fully cache-served and \
            byte-identical to the cold report for every jobs count") ]
    (List.rev !entries)

let () =
  let args = Array.to_list Sys.argv in
  let scale =
    if List.mem "--quick" args then `Quick else if List.mem "--paper" args then `Paper else `Default
  in
  let jobs =
    let rec find = function
      | "--jobs" :: v :: _ -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ ->
          prerr_endline "bench: --jobs expects a positive integer";
          exit 2)
      | _ :: tl -> find tl
      | [] -> Par.default_jobs ()
    in
    find args
  in
  let out_dir = match scale with `Quick -> "results/quick" | `Paper | `Default -> "results" in
  if List.mem "--only-exact" args then run_exact_bench scale out_dir
  else if List.mem "--only-serve" args then run_serve_bench scale out_dir
  else if List.mem "--only-hotpath" args then run_hotpath_bench scale out_dir
  else if List.mem "--only-sim" args then run_sim_bench scale out_dir
  else if List.mem "--only-online" args then run_online_bench scale out_dir
  else if List.mem "--only-lint" args then run_lint_bench scale out_dir
  else begin
    if not (List.mem "--skip-figures" args) then
      Par.with_pool ~jobs (fun pool -> run_figures scale pool out_dir);
    run_sweep_par_bench jobs;
    run_hotpath_bench scale out_dir;
    run_sim_bench scale out_dir;
    run_exact_bench scale out_dir;
    run_serve_bench scale out_dir;
    run_online_bench scale out_dir;
    run_lint_bench scale out_dir;
    if not (List.mem "--skip-micro" args) then run_micro ()
  end;
  Printf.printf "\nAll sections complete; CSVs in %s/\n" out_dir
