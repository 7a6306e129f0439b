(* The benchmark's workloads and the jobs they submit.

   A job is what a user submits: "schedule this DAG under this memory cap
   and verify the result".  Set-up builds what no job should pay for again
   (the DAGs of the sweeps and their HEFT baselines); a job then calls the
   library's stable public entry points, one span per call, and checks what
   they return. *)

type workload = Rand_sweep | Tiled_pipeline | Tiled_minmin

let workloads = [ Rand_sweep; Tiled_pipeline; Tiled_minmin ]

let workload_name = function
  | Rand_sweep -> "rand-sweep"
  | Tiled_pipeline -> "tiled-pipeline"
  | Tiled_minmin -> "tiled-minmin"

let workload_of_string s = List.find_opt (fun w -> String.equal (workload_name w) s) workloads

(* [Smoke] is a seconds-long miniature of each workload for the test suite;
   only [Full] has stored digests. *)
type scale = Full | Smoke

type heuristic = Memheft | Memminmin
type family = Lu | Cholesky

let generate family n =
  match family with Lu -> Lu.generate ~n () | Cholesky -> Cholesky.generate ~n ()

(* The two platforms of the paper: 2 + 2 processors for the random sets,
   mirage (12 CPU cores + 3 GPUs) for the tiled factorisations. *)
let platform_random = Platform.unbounded ~p_blue:2 ~p_red:2
let platform_mirage = Platform.unbounded ~p_blue:12 ~p_red:3

(* HEFT on the unbounded platform: the reference every sweep point is
   normalised by, with its planned peaks [(blue, red)]. *)
type baseline = {
  n_tasks : int;
  heft_makespan : float;
  heft_blue : float;
  heft_red : float;
  lower_bound : float;
}

type instance = { dag : Dag.t; ranks : float array; baseline : baseline }

let baseline_of platform dag ~ranks =
  let s, (blue, red) = Heuristics.heft_measured ~ranks dag platform in
  let report = Validator.validate_exn dag platform s in
  {
    n_tasks = Dag.n_tasks dag;
    heft_makespan = report.Validator.makespan;
    heft_blue = blue;
    heft_red = red;
    lower_bound = Lower_bound.makespan dag platform;
  }

let instance_of platform dag =
  let ranks = Rank.upward_ranks dag in
  { dag; ranks; baseline = baseline_of platform dag ~ranks }

type spec =
  | Bounded of { inst : instance; platform : Platform.t; heuristic : heuristic; alpha : float }
      (** plan a set-up DAG at [alpha] x its HEFT peak on both memories *)
  | Pipeline of { family : family; n : int; alpha : float; reference : baseline }
      (** build the DAG and run the whole pipeline at [alpha] x HEFT's peak
          on each memory; [reference] is set-up's HEFT run of the same DAG *)

type job = { id : int; spec : spec; n_tasks : int }

let heuristic_of job =
  match job.spec with Bounded { heuristic; _ } -> heuristic | Pipeline _ -> Memheft

(* What the digest pins, bit for bit.  An infeasible answer is a verdict,
   not an error: [placed] then counts the tasks placed before it stopped. *)
type verdict = {
  feasible : bool;
  makespan : float;
  peak_blue : float;
  peak_red : float;
  placed : int;
}

type outcome = {
  verdict : verdict;
  ratio : float;  (** makespan / HEFT makespan of the same DAG; nan when infeasible *)
  steps : int;  (** memory-trace steps; 0 on jobs that draw no trace *)
}

type error = Rejected of string | Failed of string
type result = (outcome, error) Stdlib.result

let error_message = function Rejected m -> "validator rejected: " ^ m | Failed m -> m

(* Calls into a layer go through a probe, so one job body serves the timed
   run (no recording) and the traced run. *)
type probe = { span : 'a. Spans.layer -> (unit -> 'a) -> 'a }

let direct = { span = (fun _ f -> f ()) }
let traced spans = { span = (fun layer f -> Spans.span spans layer f) }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let infeasible placed =
  { verdict = { feasible = false; makespan = nan; peak_blue = nan; peak_red = nan; placed };
    ratio = nan;
    steps = 0 }

exception Check of error

let fail fmt = Printf.ksprintf (fun m -> raise (Check (Failed m))) fmt

let plan probe heuristic ~ranks dag p =
  match heuristic with
  | Memheft -> probe.span Spans.Memheft (fun () -> Heuristics.memheft ~ranks dag p)
  | Memminmin -> probe.span Spans.Memminmin (fun () -> Heuristics.memminmin dag p)

let validate probe dag p s =
  match probe.span Spans.Validate (fun () -> Validator.validate dag p s) with
  | Ok r -> r
  | Error msgs ->
    raise (Check (Rejected (String.concat "; " (List.filteri (fun i _ -> i < 3) msgs))))

(* Checks shared by every feasible answer: never below the makespan lower
   bound, and MemHEFT with HEFT's own peaks as caps takes HEFT's decisions,
   so it must reproduce HEFT's makespan exactly (§6.2.1). *)
let check_feasible ~zero_rejection (b : baseline) (r : Validator.report) =
  let lb = b.lower_bound in
  if r.Validator.makespan < lb -. (1e-9 *. Float.max 1. lb) then
    fail "makespan %h below the lower bound %h" r.Validator.makespan lb;
  if zero_rejection && not (same_bits r.Validator.makespan b.heft_makespan) then
    fail "MemHEFT at HEFT's peaks: makespan %h, HEFT %h" r.Validator.makespan b.heft_makespan

let feasible_outcome (b : baseline) (r : Validator.report) ~steps =
  { verdict =
      { feasible = true;
        makespan = r.Validator.makespan;
        peak_blue = r.Validator.peak_blue;
        peak_red = r.Validator.peak_red;
        placed = b.n_tasks };
    ratio = r.Validator.makespan /. b.heft_makespan;
    steps }

let run_bounded probe ~inst ~platform ~heuristic ~alpha =
  let b = inst.baseline in
  let bound = alpha *. Float.max b.heft_blue b.heft_red in
  let p = Platform.with_bounds platform ~m_blue:bound ~m_red:bound in
  let zero_rejection = match heuristic with Memheft -> Float.equal alpha 1. | Memminmin -> false in
  match plan probe heuristic ~ranks:inst.ranks inst.dag p with
  | Error f ->
    if zero_rejection then fail "MemHEFT at HEFT's peak is infeasible: %s" f.Heuristics.reason;
    infeasible f.Heuristics.n_scheduled
  | Ok s ->
    let r = validate probe inst.dag p s in
    check_feasible ~zero_rejection b r;
    feasible_outcome b r ~steps:0

let run_pipeline probe ~family ~n ~alpha ~(reference : baseline) =
  let platform = platform_mirage in
  let dag = probe.span Spans.Gen (fun () -> generate family n) in
  if Dag.n_tasks dag <> reference.n_tasks then
    fail "generated %d tasks, set-up built %d" (Dag.n_tasks dag) reference.n_tasks;
  let ranks = probe.span Spans.Rank (fun () -> Rank.upward_ranks dag) in
  let _heft, (blue, red) =
    probe.span Spans.Heft (fun () -> Heuristics.heft_measured ~ranks dag platform)
  in
  if not (same_bits blue reference.heft_blue && same_bits red reference.heft_red) then
    fail "HEFT peaks (%h, %h) differ from set-up's (%h, %h)" blue red reference.heft_blue
      reference.heft_red;
  let lb = probe.span Spans.Lower_bound (fun () -> Lower_bound.makespan dag platform) in
  if not (same_bits lb reference.lower_bound) then fail "lower bound %h, set-up %h" lb reference.lower_bound;
  let p = Platform.with_bounds platform ~m_blue:(alpha *. blue) ~m_red:(alpha *. red) in
  let zero_rejection = Float.equal alpha 1. in
  match probe.span Spans.Memheft (fun () -> Heuristics.memheft ~ranks dag p) with
  | Error f ->
    if zero_rejection then fail "MemHEFT at HEFT's peaks is infeasible: %s" f.Heuristics.reason;
    infeasible f.Heuristics.n_scheduled
  | Ok s ->
    let r = validate probe dag p s in
    check_feasible ~zero_rejection reference r;
    let trace = probe.span Spans.Trace (fun () -> Events.memory_trace dag p s) in
    let stats = probe.span Spans.Stats (fun () -> Sched_stats.compute dag p s) in
    let tb = Events.peak trace Platform.Blue and tr = Events.peak trace Platform.Red in
    if not (same_bits tb r.Validator.peak_blue && same_bits tr r.Validator.peak_red) then
      fail "trace peaks (%h, %h), validator (%h, %h)" tb tr r.Validator.peak_blue r.Validator.peak_red;
    if not (same_bits stats.Sched_stats.makespan r.Validator.makespan) then
      fail "stats makespan %h, validator %h" stats.Sched_stats.makespan r.Validator.makespan;
    feasible_outcome reference r ~steps:(Array.length trace.Events.times)

(* Every exception a job raises is an error of that job, never of the run. *)
let run probe job : result =
  match
    match job.spec with
    | Bounded { inst; platform; heuristic; alpha } -> run_bounded probe ~inst ~platform ~heuristic ~alpha
    | Pipeline { family; n; alpha; reference } -> run_pipeline probe ~family ~n ~alpha ~reference
  with
  | o -> Ok o
  | exception Check e -> Error e
  | exception e -> Error (Failed (Printexc.to_string e))

(* ------------------------------------------------------------- set-up --- *)

(* The paper's grid, alpha in {0.05, ..., 1.0}, written so 1.0 is exact. *)
let paper_alphas = List.init 20 (fun k -> float_of_int (k + 1) /. 20.)

(* [m] caps in [lo, hi): one uniform draw inside each of [m] equal strata.
   The seed moves every cap while the mix of tight and loose caps, and so
   the share of infeasible jobs, stays put. *)
let stratified rng ~lo ~hi ~m =
  let w = (hi -. lo) /. float_of_int m in
  List.init m (fun j -> lo +. (w *. (float_of_int j +. Rng.float rng 1.)))

(* Keyed sub-streams of the workload seed: DAGGEN draws, caps, job order. *)
let rng_dags seed = Rng.keyed ~seed ~key:1
let rng_caps seed = Rng.keyed ~seed ~key:2
let rng_order seed = Rng.keyed ~seed ~key:3

let number specs = Array.of_list (List.mapi (fun id (spec, n_tasks) -> { id; spec; n_tasks }) specs)

(* rand-sweep: the Figure 12 campaign on LargeRandSet-shape DAGs. *)
let rand_sweep ~scale ~seed =
  let count, params =
    match scale with
    | Full -> (6, Daggen.large_rand_params)
    | Smoke -> (1, { Daggen.large_rand_params with Daggen.size = 60 })
  in
  let rng = rng_dags seed in
  let insts = List.init count (fun _ -> instance_of platform_random (Daggen.generate rng params)) in
  number
    (List.concat_map
       (fun inst ->
         List.concat_map
           (fun alpha ->
             List.map
               (fun heuristic ->
                 (Bounded { inst; platform = platform_random; heuristic; alpha }, inst.baseline.n_tasks))
               [ Memheft; Memminmin ])
           paper_alphas)
       insts)

(* The tiled sizes: 10^2 to 1.7 x 10^3 tasks, so a job's working set stays
   within a few MB.  Jobs of one spec take about the same time, so the count
   of specs is odd: the median and p90 then fall inside a spec's group of
   jobs, not on the edge between two sizes. *)
let pipeline_sizes = function
  | Full -> [ (Lu, [ 5; 6; 7; 8; 9; 10; 11; 12 ]); (Cholesky, [ 7; 8; 9; 10; 11; 12; 14 ]) ]
  | Smoke -> [ (Lu, [ 3; 4 ]); (Cholesky, [ 3; 4 ]) ]

let minmin_sizes = function
  | Full -> [ (Lu, [ 6; 7; 8; 9; 10; 11; 12 ]); (Cholesky, [ 8; 9; 10; 11; 12; 13; 14 ]) ]
  | Smoke -> [ (Lu, [ 3; 4 ]); (Cholesky, [ 3; 4 ]) ]

let flatten sizes = List.concat_map (fun (family, ns) -> List.map (fun n -> (family, n)) ns) sizes

(* tiled-pipeline: set-up runs HEFT once per spec as the reference each
   job's own HEFT must reproduce, then drops the DAG: jobs build theirs. *)
let tiled_pipeline ~scale ~seed =
  let rng = rng_caps seed in
  let m = match scale with Full -> 6 | Smoke -> 2 in
  number
    (List.concat_map
       (fun (family, n) ->
         let dag = generate family n in
         let reference = baseline_of platform_mirage dag ~ranks:(Rank.upward_ranks dag) in
         List.map
           (fun alpha -> (Pipeline { family; n; alpha; reference }, reference.n_tasks))
           (1. :: stratified rng ~lo:0.7 ~hi:1. ~m))
       (flatten (pipeline_sizes scale)))

(* tiled-minmin: MemMinMin across the feasibility edge of the tiled DAGs. *)
let tiled_minmin ~scale ~seed =
  let rng = rng_caps seed in
  let m = match scale with Full -> 8 | Smoke -> 3 in
  number
    (List.concat_map
       (fun (family, n) ->
         let inst = instance_of platform_mirage (generate family n) in
         List.map
           (fun alpha ->
             ( Bounded { inst; platform = platform_mirage; heuristic = Memminmin; alpha },
               inst.baseline.n_tasks ))
           (stratified rng ~lo:0.3 ~hi:1. ~m))
       (flatten (minmin_sizes scale)))

let setup workload ~scale ~seed =
  match workload with
  | Rand_sweep -> rand_sweep ~scale ~seed
  | Tiled_pipeline -> tiled_pipeline ~scale ~seed
  | Tiled_minmin -> tiled_minmin ~scale ~seed

(* The order jobs run in within every pass. *)
let order ~seed n =
  let a = Array.init n Fun.id in
  Rng.shuffle (rng_order seed) a;
  a

(* ------------------------------------------------------------- digest --- *)

let verdict_line id (r : result) =
  match r with
  | Error _ -> Printf.sprintf "%d error" id
  | Ok { verdict = v; _ } ->
    Printf.sprintf "%d %b %Lx %Lx %Lx %d" id v.feasible (Int64.bits_of_float v.makespan)
      (Int64.bits_of_float v.peak_blue) (Int64.bits_of_float v.peak_red) v.placed

let digest results =
  Digest.to_hex (Digest.string (String.concat "\n" (List.mapi verdict_line (Array.to_list results))))

let same_verdict (a : result) (b : result) =
  match (a, b) with
  | Ok a, Ok b ->
    let a = a.verdict and b = b.verdict in
    Bool.equal a.feasible b.feasible
    && same_bits a.makespan b.makespan
    && same_bits a.peak_blue b.peak_blue
    && same_bits a.peak_red b.peak_red
    && a.placed = b.placed
  | _ -> false

(* Stored digests, one "<workload> <seed> <md5 hex>" per line; '#' starts a
   comment line. *)
let parse_digests text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (lineno, l) ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [ w; s; d ] when Option.is_some (workload_of_string w) && Option.is_some (int_of_string_opt s)
                            && String.length d = 32 ->
           ((w, int_of_string s), d)
         | _ -> failwith (Printf.sprintf "digests line %d: expected <workload> <seed> <md5 hex>" lineno))

type digest_check = Unchecked | Match | Mismatch of string

let check_digest ~expected actual =
  match expected with
  | None -> Unchecked
  | Some e when String.equal e actual -> Match
  | Some e -> Mismatch e
