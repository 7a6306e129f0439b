(* One run of one workload: set-up, a warm-up pass, then timed passes over
   every job until the time is up, each pass followed by one more set-up
   whose result is dropped.

   Timing metrics are built from each job's fastest pass, and set-up time
   from the fastest set-up: on this kind of allocation-heavy code a raw
   time moves with the host's load, which comes in phases of seconds to
   minutes, while a minimum over a run's samples repeats.  Allocation comes
   from the warm-up pass, the first pass after set-up, where the counts
   repeat exactly. *)

type config = {
  workload : Jobs.workload;
  scale : Jobs.scale;
  seed : int;
  seconds : float;
  trace : bool;
  expected_digest : string option;
}

type metric = { name : string; unit : string; value : float }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end untraced, per-layer traced *)
  notes : string list;  (** human-readable lines printed before the result *)
  spans : Spans.t option;
}

(* The contract's metric names: a letter or digit, then at most 63 of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok c = match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n >= 1 && n <= 64 && String.for_all ok s && s.[0] <> '_' && s.[0] <> '.' && s.[0] <> '-'

let end_to_end_names =
  [ "setup_s"; "tasks_per_s"; "job_p50_ms"; "job_p90_ms"; "alloc_words_per_task";
    "major_words_per_task"; "peak_heap_mb"; "feasible_ratio"; "makespan_ratio" ]

let layer_fields = [ "calls"; "self_ms"; "share"; "words_per_task"; "major_words_per_task" ]

let per_layer_names =
  List.concat_map
    (fun l -> List.map (fun f -> Spans.layer_name l ^ "." ^ f) layer_fields)
    (Array.to_list Spans.layers)
  @ [ "core.memheft.infeasible"; "core.memheft.useful_ratio"; "core.memminmin.infeasible";
      "core.memminmin.useful_ratio"; "sim.trace.steps_per_task"; "sim.validate.rejected";
      "job.glue_share"; "trace.overhead" ]

(* Fewest timed passes a run makes, however short its time. *)
let min_passes = 3

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a

let run_pass run jobs order results times =
  Array.iter
    (fun i ->
      let t0 = Timing.now () in
      let r = run jobs.(i) in
      times.(i) <- Timing.now () -. t0;
      results.(i) <- r)
    order

let words_between (mi0, pr0, ma0) (mi1, pr1, ma1) = (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0), ma1 -. ma0)

let metric name unit value = { name; unit; value }
let oks first = List.filter_map (function Ok o -> Some o | Error _ -> None) (Array.to_list first)

(* [first] holds the warm-up verdicts, [best] each job's fastest pass. *)
let end_to_end first ~setup_s ~best ~tasks ~alloc_words ~major_words ~top_heap_words =
  let feasible = List.filter (fun o -> o.Jobs.verdict.Jobs.feasible) (oks first) in
  let n_feasible = float_of_int (List.length feasible) in
  [ metric "setup_s" "s" (Timing.minimum setup_s);
    metric "tasks_per_s" "tasks/s" (tasks /. sum Fun.id best);
    metric "job_p50_ms" "ms" (1000. *. Timing.percentile 0.5 best);
    metric "job_p90_ms" "ms" (1000. *. Timing.percentile 0.9 best);
    metric "alloc_words_per_task" "words/task" (alloc_words /. tasks);
    metric "major_words_per_task" "words/task" (major_words /. tasks);
    metric "peak_heap_mb" "MiB" (float_of_int top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.);
    metric "feasible_ratio" "ratio" (n_feasible /. float_of_int (Array.length first));
    metric "makespan_ratio" "ratio" (List.fold_left (fun acc o -> acc +. o.Jobs.ratio) 0. feasible /. n_feasible) ]

let per_layer jobs first tot ~tasks ~overhead =
  let layer k l =
    let name f = Spans.layer_name l ^ "." ^ f in
    [ metric (name "calls") "count" (float_of_int tot.Spans.calls.(k));
      metric (name "self_ms") "ms" (1000. *. tot.Spans.self_s.(k));
      metric (name "share") "ratio" (tot.Spans.self_s.(k) /. tot.Spans.job_s);
      metric (name "words_per_task") "words/task" (tot.Spans.words.(k) /. tasks);
      metric (name "major_words_per_task") "words/task" (tot.Spans.major.(k) /. tasks) ]
  in
  (* Tasks placed counts the partial work of aborted runs; useful work is
     what a returned schedule kept. *)
  let planner h =
    let infeasible = ref 0 and placed = ref 0 and useful = ref 0 in
    Array.iteri
      (fun i r ->
        match r with
        | Ok o when Jobs.heuristic_of jobs.(i) = h ->
          placed := !placed + o.Jobs.verdict.Jobs.placed;
          if o.Jobs.verdict.Jobs.feasible then useful := !useful + jobs.(i).Jobs.n_tasks else incr infeasible
        | _ -> ())
      first;
    (float_of_int !infeasible, if !placed = 0 then 0. else float_of_int !useful /. float_of_int !placed)
  in
  let mh_inf, mh_useful = planner Jobs.Memheft and mm_inf, mm_useful = planner Jobs.Memminmin in
  let rejected = Array.fold_left (fun acc r -> match r with Error (Jobs.Rejected _) -> acc + 1 | _ -> acc) 0 first in
  let steps = List.fold_left (fun acc o -> acc + o.Jobs.steps) 0 (oks first) in
  List.concat (List.mapi layer (Array.to_list Spans.layers))
  @ [ metric "core.memheft.infeasible" "count" mh_inf;
      metric "core.memheft.useful_ratio" "ratio" mh_useful;
      metric "core.memminmin.infeasible" "count" mm_inf;
      metric "core.memminmin.useful_ratio" "ratio" mm_useful;
      metric "sim.trace.steps_per_task" "steps/task" (float_of_int steps /. tasks);
      metric "sim.validate.rejected" "count" (float_of_int rejected);
      metric "job.glue_share" "ratio" (tot.Spans.glue_s /. tot.Spans.job_s);
      metric "trace.overhead" "ratio" overhead ]

let run cfg =
  let spin_start = Timing.spin_ms () in
  (* Set-up samples are spread over the whole run, one after each pass, so
     the fastest of them comes from the same fast windows of the host as
     the jobs' fastest passes (a median would read the share of the run the
     host spent in slow phases); each runs on a compacted heap and leaves
     none of its garbage to the jobs. *)
  let setup_samples = ref [] in
  let timed_setup () =
    Gc.compact ();
    let t0 = Timing.now () in
    let jobs = Jobs.setup cfg.workload ~scale:cfg.scale ~seed:cfg.seed in
    setup_samples := (Timing.now () -. t0) :: !setup_samples;
    jobs
  in
  let jobs = timed_setup () in
  let n = Array.length jobs in
  let order = Jobs.order ~seed:cfg.seed n in
  let tasks = sum (fun j -> float_of_int j.Jobs.n_tasks) jobs in
  (* Warm-up: the verdicts every later pass must repeat, and the counts. *)
  let first = Array.make n (Error (Jobs.Failed "not run") : Jobs.result) in
  let times = Array.make n 0. in
  let c0 = Gc.counters () in
  run_pass (Jobs.run Jobs.direct) jobs order first times;
  let alloc_words, major_words = words_between c0 (Gc.counters ()) in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let bad = Array.map Result.is_error first in
  Gc.compact ();
  let spans = if cfg.trace then Some (Spans.create ()) else None in
  let best = Timing.best_create n and best_traced = Timing.best_create n in
  let results = Array.copy first in
  let plain = ref 0 and traced = ref 0 and pass_s = ref [] in
  let deadline = Timing.now () +. cfg.seconds in
  let more () =
    !plain < min_passes || (cfg.trace && !traced < min_passes) || Timing.now () < deadline
  in
  while more () do
    (* Traced runs alternate plain and traced passes, so host drift lands
       on both sides of the overhead estimate alike. *)
    (match spans with
    | Some sp when !plain > !traced ->
      incr traced;
      let pass = !plain + !traced in
      let probe = Jobs.traced sp in
      run_pass (fun job -> Spans.job sp ~pass ~job:job.Jobs.id (fun () -> Jobs.run probe job)) jobs order
        results times;
      Timing.best_record best_traced times
    | _ ->
      incr plain;
      run_pass (Jobs.run Jobs.direct) jobs order results times;
      Timing.best_record best times;
      pass_s := sum Fun.id times :: !pass_s);
    Array.iteri (fun i r -> if not (Jobs.same_verdict first.(i) r) then bad.(i) <- true) results;
    ignore (timed_setup ());
    Gc.compact ()
  done;
  let spin_end = Timing.spin_ms () in
  let digest = Jobs.digest first in
  let digest_check = Jobs.check_digest ~expected:cfg.expected_digest digest in
  let failed =
    match digest_check with
    | Jobs.Mismatch _ -> n
    | Jobs.Match | Jobs.Unchecked -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad
  in
  let metrics, coverage =
    match spans with
    | Some sp ->
      (* Pass 2 is the first traced pass. *)
      let tot = Spans.totals sp ~n_jobs:n ~alloc_pass:2 in
      let overhead = 1. -. (sum Fun.id best /. sum Fun.id best_traced) in
      (* The layer spans should cover the job spans but for what tracing
         itself costs: the uncovered part is compared with the overhead. *)
      let gap = tot.Spans.glue_s /. tot.Spans.job_s in
      ( per_layer jobs first tot ~tasks ~overhead,
        [ Printf.sprintf
            "coverage: layer shares sum to %.4f of job time; the uncovered %.4f is %s the tracing overhead |%.4f|"
            (1. -. gap) gap
            (if gap <= Float.abs overhead then "within" else "OVER")
            overhead ] )
    | None ->
      ( end_to_end first ~setup_s:(Array.of_list !setup_samples) ~best ~tasks ~alloc_words ~major_words
          ~top_heap_words,
        [] )
  in
  let errors =
    List.filter_map
      (fun i ->
        if not bad.(i) then None
        else
          let why = match first.(i) with Error e -> Jobs.error_message e | Ok _ -> "verdict changed between passes" in
          Some (Printf.sprintf "error: job %d: %s" i why))
      (List.init n Fun.id)
  in
  let notes =
    [ Printf.sprintf "workload %s seed %d: %d jobs, %.0f tasks per pass, %d timed passes%s, %d set-ups"
        (Jobs.workload_name cfg.workload) cfg.seed n tasks !plain
        (if cfg.trace then Printf.sprintf " + %d traced" !traced else "")
        (List.length !setup_samples);
      (let p = Array.of_list !pass_s in
       Printf.sprintf "plain pass seconds: min %.3f, median %.3f, max %.3f"
         (Timing.minimum p) (Timing.median p) (Timing.percentile 1. p));
      Printf.sprintf "host spin_ms %.3f at start, %.3f at end" spin_start spin_end;
      Printf.sprintf "digest %s %d %s (%s)" (Jobs.workload_name cfg.workload) cfg.seed digest
        (match digest_check with
        | Jobs.Unchecked -> "no stored digest for this seed"
        | Jobs.Match -> "matches the stored digest"
        | Jobs.Mismatch e -> "MISMATCH, stored " ^ e);
      Printf.sprintf "error_ratio = %.6g ratio (%d of %d jobs)" (float_of_int failed /. float_of_int n) failed n ]
    @ coverage
    @ List.filteri (fun i _ -> i < 5) errors
  in
  let correct =
    failed = 0 && List.for_all (fun x -> Float.is_finite x.value && valid_name x.name) metrics
  in
  { correct; attempted = n; failed; metrics; notes; spans }

(* All digits of each value, as the caller measured it. *)
let render_json r =
  let metric x =
    let v = if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "null" in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name v x.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
