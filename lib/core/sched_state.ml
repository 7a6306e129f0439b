type comm_mode = Est.comm_mode = Jit_per_edge | Jit_batched | Eager
type proc_policy = Est.proc_policy = Earliest_available | Insertion

type options = Est.options = {
  comm_mode : comm_mode;
  proc_policy : proc_policy;
}

let default_options = Est.default_options
let eps = Est.eps

(* One trail record per [commit], capturing every piece of state the commit
   overwrites (plus journal marks for the two staircases) so [uncommit] can
   restore the state bit-for-bit.  Shared structure (the previous [busy]
   list) is captured by reference: a persistent list that [commit] replaces
   rather than mutates.  The ready set needs no capture: it is derived from
   [assigned]/[pending_parents] (see below), both of which uncommit
   restores. *)
type undo = {
  u_task : int;
  u_proc : int;
  u_avail : float;
  u_busy : (float * float) list;
  u_min_blue : float;
  u_min_red : float;
  u_aft : float;
  u_start : float;
  u_sproc : int;
  mutable u_comms : (int * float option) list;
  u_planned_blue : float;
  u_planned_red : float;
  u_mark_blue : Staircase.mark;
  u_mark_red : Staircase.mark;
}

type t = {
  g : Dag.t;
  platform : Platform.t;
  options : options;
  est_ctx : Est.ctx;  (* shares every mutable array below *)
  free_blue : Staircase.t;
  free_red : Staircase.t;
  avail : float array;  (* per processor: finish time of its last task *)
  busy : (float * float) list array;
      (* per processor: sorted busy intervals.  Only maintained under the
         Insertion policy — nothing reads it under Earliest_available, and
         the sorted insert is quadratic on 10^5-task schedules. *)
  aft : float array;  (* actual finish time, per task *)
  assigned : bool array;
  mem_of : Platform.memory option array;
  mem_code : int array;  (* mem_of as -1/0/1, for the flat estimate walks *)
  pending_parents : int array;
  sched : Schedule.t;
  procs_blue : int list;  (* Platform.procs_of, cached: [estimate] is hot *)
  procs_red : int list;
  out_sizes : float array;  (* Dag.Csr.out_sz view, cached likewise *)
  (* Flat ready set.  A task is ready iff [not assigned && pending = 0]; the
     arrays below are a superset index over that predicate: [ready_arr]
     (sorted ascending, possibly holding stale entries) plus an unsorted
     insertion buffer, with [in_ready] flagging physical presence in either.
     Invariant: every ready task is present; [ready_stale] counts the
     present-but-not-ready entries so compaction can be amortised.  This
     replaces the sorted-list maintenance whose O(width) insert/remove per
     commit dominated large runs. *)
  mutable ready_arr : int array;
  mutable ready_len : int;
  ready_buf : int array;
  mutable ready_buf_len : int;
  in_ready : bool array;
  mutable ready_scratch : int array;
  mutable ready_stale : int;
  mutable assigned_count : int;
  mutable planned_blue : float;
  mutable planned_red : float;
  mutable trailing : bool;
  mutable trail : undo list;
  (* Committed task ids, most recent first; [commit_order] reverses it.  The
     replay engine uses it to recover the exact decision sequence of a plan. *)
  mutable commit_log : int list;
}

let create ?(options = default_options) g platform =
  let n = Dag.n_tasks g in
  let pending = Array.init n (Dag.Csr.in_degree g) in
  let ready_arr = Array.make (max 1 n) 0 in
  let in_ready = Array.make n false in
  let ready_len = ref 0 in
  for i = 0 to n - 1 do
    if pending.(i) = 0 then begin
      ready_arr.(!ready_len) <- i;
      incr ready_len;
      in_ready.(i) <- true
    end
  done;
  let procs_blue = Platform.procs_of platform Platform.Blue in
  let procs_red = Platform.procs_of platform Platform.Red in
  let min_avail procs = List.fold_left (fun acc (_ : int) -> Float.min acc 0.) infinity procs in
  let free_blue = Staircase.create (Platform.capacity platform Platform.Blue) in
  let free_red = Staircase.create (Platform.capacity platform Platform.Red) in
  let avail = Array.make (Platform.n_procs platform) 0. in
  let busy = Array.make (Platform.n_procs platform) [] in
  let aft = Array.make n 0. in
  let mem_code = Array.make n (-1) in
  let est_ctx =
    Est.make ~options ~g ~free_blue ~free_red ~aft ~mem_code ~avail ~busy ~procs_blue ~procs_red
  in
  est_ctx.Est.min_avail_blue <- min_avail procs_blue;
  est_ctx.Est.min_avail_red <- min_avail procs_red;
  {
    g;
    platform;
    options;
    est_ctx;
    free_blue;
    free_red;
    avail;
    busy;
    aft;
    assigned = Array.make n false;
    mem_of = Array.make n None;
    mem_code;
    pending_parents = pending;
    sched = Schedule.create g;
    procs_blue;
    procs_red;
    out_sizes = Dag.Csr.out_sz g;
    ready_arr;
    ready_len = !ready_len;
    ready_buf = Array.make (max 1 n) 0;
    ready_buf_len = 0;
    in_ready;
    ready_scratch = Array.make (max 1 n) 0;
    ready_stale = 0;
    assigned_count = 0;
    planned_blue = 0.;
    planned_red = 0.;
    trailing = false;
    trail = [];
    commit_log = [];
  }

let copy t =
  let free_blue = Staircase.copy t.free_blue in
  let free_red = Staircase.copy t.free_red in
  let avail = Array.copy t.avail in
  let busy = Array.copy t.busy in
  let aft = Array.copy t.aft in
  let mem_code = Array.copy t.mem_code in
  let est_ctx =
    Est.make ~options:t.options ~g:t.g ~free_blue ~free_red ~aft ~mem_code ~avail ~busy
      ~procs_blue:t.procs_blue ~procs_red:t.procs_red
  in
  est_ctx.Est.min_avail_blue <- t.est_ctx.Est.min_avail_blue;
  est_ctx.Est.min_avail_red <- t.est_ctx.Est.min_avail_red;
  {
    t with
    est_ctx;
    free_blue;
    free_red;
    avail;
    busy;
    aft;
    assigned = Array.copy t.assigned;
    mem_of = Array.copy t.mem_of;
    mem_code;
    pending_parents = Array.copy t.pending_parents;
    sched =
      {
        Schedule.starts = Array.copy t.sched.Schedule.starts;
        procs = Array.copy t.sched.Schedule.procs;
        comm_starts = Array.copy t.sched.Schedule.comm_starts;
      };
    ready_arr = Array.copy t.ready_arr;
    ready_buf = Array.copy t.ready_buf;
    in_ready = Array.copy t.in_ready;
    ready_scratch = Array.make (Array.length t.ready_scratch) 0;
    trailing = false;
    trail = [];
  }

let set_trail t on =
  t.trailing <- on;
  t.trail <- [];
  Staircase.set_journal t.free_blue on;
  Staircase.set_journal t.free_red on

let snapshot_schedule t =
  {
    Schedule.starts = Array.copy t.sched.Schedule.starts;
    procs = Array.copy t.sched.Schedule.procs;
    comm_starts = Array.copy t.sched.Schedule.comm_starts;
  }

let graph t = t.g
let platform t = t.platform
let schedule t = t.sched
let n_assigned t = t.assigned_count
let commit_order t = List.rev t.commit_log
let is_assigned t i = t.assigned.(i)
let is_ready t i = (not t.assigned.(i)) && t.pending_parents.(i) = 0

(* --- flat ready set maintenance --- *)

(* Record [i] as present; caller has just made it ready (or is restoring
   readiness on uncommit).  If it is still physically present from an
   earlier membership it was counted stale — it no longer is. *)
let ready_add t i =
  if t.in_ready.(i) then t.ready_stale <- t.ready_stale - 1
  else begin
    t.ready_buf.(t.ready_buf_len) <- i;
    t.ready_buf_len <- t.ready_buf_len + 1;
    t.in_ready.(i) <- true
  end

(* [i] just stopped being ready (committed, or demoted by an uncommit of a
   parent).  Removal is purely logical — the entry stays until compaction. *)
let ready_drop t i = if t.in_ready.(i) then t.ready_stale <- t.ready_stale + 1

(* Fold the insertion buffer into the sorted array and drop every stale
   entry.  The buffer is insertion-sorted (it holds at most the handful of
   tasks that became ready since the last compaction); the merge is linear
   and reuses two preallocated arrays.  Cost is amortised O(1) per commit. *)
let compact_ready t =
  for idx = 1 to t.ready_buf_len - 1 do
    let v = t.ready_buf.(idx) in
    let j = ref (idx - 1) in
    while !j >= 0 && t.ready_buf.(!j) > v do
      t.ready_buf.(!j + 1) <- t.ready_buf.(!j);
      decr j
    done;
    t.ready_buf.(!j + 1) <- v
  done;
  let dst = t.ready_scratch in
  let d = ref 0 in
  let keep i =
    if is_ready t i then begin
      dst.(!d) <- i;
      incr d
    end
    else t.in_ready.(i) <- false
  in
  let a = ref 0 and b = ref 0 in
  (* [ready_arr] and [ready_buf] are disjoint (the [in_ready] guard), so a
     plain two-way merge keeps ascending order. *)
  while !a < t.ready_len && !b < t.ready_buf_len do
    if t.ready_arr.(!a) < t.ready_buf.(!b) then begin
      keep t.ready_arr.(!a);
      incr a
    end
    else begin
      keep t.ready_buf.(!b);
      incr b
    end
  done;
  while !a < t.ready_len do
    keep t.ready_arr.(!a);
    incr a
  done;
  while !b < t.ready_buf_len do
    keep t.ready_buf.(!b);
    incr b
  done;
  t.ready_scratch <- t.ready_arr;
  t.ready_arr <- dst;
  t.ready_len <- !d;
  t.ready_buf_len <- 0;
  t.ready_stale <- 0

let maybe_compact t =
  if t.ready_buf_len > 0 || t.ready_stale * 2 > t.ready_len then compact_ready t

let iter_ready t f =
  maybe_compact t;
  for k = 0 to t.ready_len - 1 do
    let i = t.ready_arr.(k) in
    if is_ready t i then f i
  done

let ready_tasks t =
  maybe_compact t;
  let acc = ref [] in
  for k = t.ready_len - 1 downto 0 do
    let i = t.ready_arr.(k) in
    if is_ready t i then acc := i :: !acc
  done;
  !acc

let finish_time t i = t.aft.(i)
let free_of t = function Platform.Blue -> t.free_blue | Platform.Red -> t.free_red
let free_mem_final t mu = Staircase.final_value (free_of t mu)

let planned_peak t = function
  | Platform.Blue -> t.planned_blue
  | Platform.Red -> t.planned_red

type estimate = Est.estimate = {
  task : int;
  memory : Platform.memory;
  est : float;
  eft : float;
  comm_batch : float;
}

let procs_of_mem t = function
  | Platform.Blue -> t.procs_blue
  | Platform.Red -> t.procs_red

let estimate t i mu = if not (is_ready t i) then None else Est.estimate_ready t.est_ctx i mu

let estimate_pair t i =
  if not (is_ready t i) then (None, None) else Est.estimate_pair_ready t.est_ctx i

let better_estimate = Est.better_estimate

let best_estimate t i =
  let blue, red = estimate_pair t i in
  better_estimate blue red

(* Processor of [mu] minimising idle time before task [i] starting at
   [start] (paper: maximise avail among procs available by then). *)
let select_proc t mu ~start i =
  match t.options.proc_policy with
  | Earliest_available ->
    let best = ref None in
    List.iter
      (fun p ->
        if t.avail.(p) <= start +. eps then begin
          match !best with
          | Some q when t.avail.(q) >= t.avail.(p) -> ()
          | _ -> best := Some p
        end)
      (procs_of_mem t mu);
    (match !best with
    | Some p -> p
    | None -> invalid_arg "Sched_state.commit: stale estimate (no processor available)")
  | Insertion ->
    let w = Platform.w t.g i mu in
    let fits p =
      List.for_all
        (fun (b0, b1) -> b1 <= start +. eps || b0 +. eps >= start +. w)
        t.busy.(p)
    in
    (match List.find_opt fits (procs_of_mem t mu) with
    | Some p -> p
    | None -> invalid_arg "Sched_state.commit: stale estimate (no insertion slot)")

let insert_interval t p ~start ~finish =
  (match t.options.proc_policy with
  | Earliest_available ->
    (* Nothing reads [busy] under this policy; the sorted insert below is
       the one per-commit cost that is linear in the schedule length. *)
    ignore start
  | Insertion ->
    let rec ins = function
      | [] -> [ (start, finish) ]
      | (b0, b1) :: rest as l -> if start <= b0 then (start, finish) :: l else (b0, b1) :: ins rest
    in
    t.busy.(p) <- ins t.busy.(p));
  if finish > t.avail.(p) then begin
    t.avail.(p) <- finish;
    (* Refresh the cached per-memory minima with the same fold the
       pre-optimisation resource_EST ran on every estimate, so the cached
       value is bit-identical to what that fold would return now. *)
    let min_avail procs = List.fold_left (fun acc q -> Float.min acc t.avail.(q)) infinity procs in
    t.est_ctx.Est.min_avail_blue <- min_avail t.procs_blue;
    t.est_ctx.Est.min_avail_red <- min_avail t.procs_red
  end

let commit t e =
  let i = e.task and mu = e.memory in
  if t.assigned.(i) then invalid_arg "Sched_state.commit: task already assigned";
  if not (is_ready t i) then invalid_arg "Sched_state.commit: task not ready";
  let g = t.g in
  let code = Est.code_of_mem mu in
  let start = e.est and eft = e.eft in
  let free_mu = free_of t mu and free_other = free_of t (Platform.other mu) in
  let proc = select_proc t mu ~start i in
  (* Capture the about-to-be-overwritten state before any mutation.  The
     record only reads; it cannot perturb the commit, so a trailing commit is
     bit-identical to a plain one. *)
  let undo =
    if not t.trailing then None
    else
      Some
        {
          u_task = i;
          u_proc = proc;
          u_avail = t.avail.(proc);
          u_busy = t.busy.(proc);
          u_min_blue = t.est_ctx.Est.min_avail_blue;
          u_min_red = t.est_ctx.Est.min_avail_red;
          u_aft = t.aft.(i);
          u_start = t.sched.Schedule.starts.(i);
          u_sproc = t.sched.Schedule.procs.(i);
          u_comms = [];
          u_planned_blue = t.planned_blue;
          u_planned_red = t.planned_red;
          u_mark_blue = Staircase.mark t.free_blue;
          u_mark_red = Staircase.mark t.free_red;
        }
  in
  insert_interval t proc ~start ~finish:eft;
  t.sched.Schedule.starts.(i) <- start;
  t.sched.Schedule.procs.(i) <- proc;
  (* Incoming cross-memory transfers, walked over the packed CSR predecessor
     row (ascending eid — the historical list order).  In both just-in-time
     modes each transfer starts at [start - C(j,i)] so that it completes
     exactly at the task start; the recorded memory profile is therefore
     exact: the file appears in the destination at the transfer start and
     leaves the source at the transfer end (= the task start). *)
  let pred_off = Dag.Csr.pred_off g and pred_eid = Dag.Csr.pred_eid g in
  let pred_src = Dag.Csr.pred_src g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let deferred_frees = ref [] in
  for p = pred_off.(i) to pred_off.(i + 1) - 1 do
    let j = pred_src.(p) in
    let mj = t.mem_code.(j) in
    if mj < 0 then invalid_arg "Sched_state.commit: parent not assigned";
    if mj <> code then begin
      let eid = pred_eid.(p) in
      let tau =
        match t.options.comm_mode with
        | Jit_per_edge | Jit_batched -> start -. e_comm.(eid)
        | Eager -> t.aft.(j)
      in
      (match undo with
      | Some u -> u.u_comms <- (eid, t.sched.Schedule.comm_starts.(eid)) :: u.u_comms
      | None -> ());
      t.sched.Schedule.comm_starts.(eid) <- Some tau;
      Staircase.add_from free_mu tau (-.e_size.(eid));
      deferred_frees := (free_other, tau +. e_comm.(eid), e_size.(eid)) :: !deferred_frees
    end
  done;
  (* Output files are held from the task start... *)
  Staircase.add_from free_mu start (-.t.out_sizes.(i));
  (* All allocations of this decision are now recorded but none of its
     releases: the worst usage of the chosen memory at this instant is the
     planner's own accounting of what the heuristic needs — the quantity the
     paper normalises the memory axis by (and the one for which "MemHEFT
     with HEFT's bounds replays HEFT" holds exactly). *)
  let cap = Platform.capacity t.platform mu in
  if cap < infinity then begin
    let used = cap -. Staircase.min_from free_mu 0. in
    match mu with
    | Platform.Blue -> if used > t.planned_blue then t.planned_blue <- used
    | Platform.Red -> if used > t.planned_red then t.planned_red <- used
  end;
  (* ... the source copies disappear at the transfer ends, and all input
     files are released from this memory at the task end. *)
  List.iter (fun (stair, time, amount) -> Staircase.add_from stair time amount) !deferred_frees;
  Staircase.add_from free_mu eft (Dag.in_size g i);
  t.aft.(i) <- eft;
  t.assigned.(i) <- true;
  t.mem_of.(i) <- Some mu;
  t.mem_code.(i) <- code;
  t.assigned_count <- t.assigned_count + 1;
  ready_drop t i;
  let succ_off = Dag.Csr.succ_off g and succ_dst = Dag.Csr.succ_dst g in
  for p = succ_off.(i) to succ_off.(i + 1) - 1 do
    let c = succ_dst.(p) in
    t.pending_parents.(c) <- t.pending_parents.(c) - 1;
    if t.pending_parents.(c) = 0 then ready_add t c
  done;
  t.commit_log <- i :: t.commit_log;
  match undo with Some u -> t.trail <- u :: t.trail | None -> ()

let uncommit t =
  match t.trail with
  | [] -> invalid_arg "Sched_state.uncommit: empty trail (enable set_trail and commit first)"
  | u :: rest ->
    t.trail <- rest;
    let i = u.u_task in
    Staircase.undo_to t.free_blue u.u_mark_blue;
    Staircase.undo_to t.free_red u.u_mark_red;
    t.busy.(u.u_proc) <- u.u_busy;
    t.avail.(u.u_proc) <- u.u_avail;
    t.est_ctx.Est.min_avail_blue <- u.u_min_blue;
    t.est_ctx.Est.min_avail_red <- u.u_min_red;
    t.sched.Schedule.starts.(i) <- u.u_start;
    t.sched.Schedule.procs.(i) <- u.u_sproc;
    List.iter (fun (eid, prev) -> t.sched.Schedule.comm_starts.(eid) <- prev) u.u_comms;
    t.aft.(i) <- u.u_aft;
    t.assigned.(i) <- false;
    t.mem_of.(i) <- None;
    t.mem_code.(i) <- -1;
    t.assigned_count <- t.assigned_count - 1;
    t.planned_blue <- u.u_planned_blue;
    t.planned_red <- u.u_planned_red;
    let succ_off = Dag.Csr.succ_off t.g and succ_dst = Dag.Csr.succ_dst t.g in
    for p = succ_off.(i) to succ_off.(i + 1) - 1 do
      let c = succ_dst.(p) in
      if t.pending_parents.(c) = 0 then ready_drop t c;
      t.pending_parents.(c) <- t.pending_parents.(c) + 1
    done;
    (match t.commit_log with _ :: log -> t.commit_log <- log | [] -> ());
    ready_add t i

(* Pre-optimisation reference machinery, kept verbatim for the A/B
   bit-identity tests and the campaign/hotpath reference timings: three
   traversals of the predecessor list per estimate and O(breakpoints)
   staircase scans instead of the suffix-minimum binary search. *)
module Reference = struct
  let ready_tasks t =
    let acc = ref [] in
    for i = Dag.n_tasks t.g - 1 downto 0 do
      if is_ready t i then acc := i :: !acc
    done;
    !acc

  (* Verbatim pre-optimisation resource_EST: rebuilds the processor list and
     refolds the availability minimum on every call. *)
  let resource_est t mu ~lb ~w =
    match t.options.proc_policy with
    | Earliest_available ->
      let procs = Platform.procs_of t.platform mu in
      let min_avail = List.fold_left (fun acc p -> Float.min acc t.avail.(p)) infinity procs in
      Float.max lb min_avail
    | Insertion ->
      let earliest_on p =
        let rec scan start = function
          | [] -> start
          | (b0, b1) :: rest ->
            if start +. w <= b0 +. eps then start else scan (Float.max start b1) rest
        in
        scan lb t.busy.(p)
      in
      List.fold_left
        (fun acc p -> Float.min acc (earliest_on p))
        infinity
        (Platform.procs_of t.platform mu)

  let cross_edges t i mu =
    List.filter
      (fun (e : Dag.edge) ->
        match t.mem_of.(e.Dag.src) with Some m -> m <> mu | None -> false)
      (Dag.pred t.g i)

  let cross_summary t i mu =
    List.fold_left
      (fun (size, cmax, min_aft) (e : Dag.edge) ->
        (size +. e.Dag.size, Float.max cmax e.Dag.comm, Float.min min_aft t.aft.(e.Dag.src)))
      (0., 0., infinity) (cross_edges t i mu)

  let precedence_est t i mu =
    List.fold_left
      (fun acc (e : Dag.edge) ->
        let j = e.Dag.src in
        let arrival =
          match t.mem_of.(j) with
          | Some m when m = mu -> t.aft.(j)
          | Some _ -> t.aft.(j) +. e.Dag.comm
          | None -> invalid_arg "Sched_state: parent not assigned"
        in
        Float.max acc arrival)
      0. (Dag.pred t.g i)

  let memory_lb t i mu =
    let free = free_of t mu in
    let cross_in, c_batch, min_cross_aft = cross_summary t i mu in
    let task_level = cross_in +. Dag.out_size t.g i in
    match Staircase.earliest_suffix_ge_scan free ~level:task_level ~from:0. with
    | None -> None
    | Some t_task -> (
      if Float.equal cross_in 0. then Some (t_task, c_batch)
      else begin
        match t.options.comm_mode with
        | Jit_batched -> (
          match Staircase.earliest_suffix_ge_scan free ~level:cross_in ~from:0. with
          | None -> None
          | Some t_comm -> Some (Float.max t_task (Fp.lb_plus t_comm c_batch), c_batch))
        | Jit_per_edge ->
          let sorted =
            List.sort
              (fun (a : Dag.edge) (b : Dag.edge) -> Float.compare b.Dag.comm a.Dag.comm)
              (cross_edges t i mu)
          in
          let rec prefixes acc lb = function
            | [] -> Some lb
            | (e : Dag.edge) :: rest -> (
              let acc = acc +. e.Dag.size in
              match Staircase.earliest_suffix_ge_scan free ~level:acc ~from:0. with
              | None -> None
              | Some t_k -> prefixes acc (Float.max lb (Fp.lb_plus t_k e.Dag.comm)) rest)
          in
          Option.map (fun lb -> (Float.max t_task lb, c_batch)) (prefixes 0. 0. sorted)
        | Eager -> (
          match Staircase.earliest_suffix_ge_scan free ~level:cross_in ~from:0. with
          | Some t_comm when t_comm <= min_cross_aft +. eps -> Some (t_task, c_batch)
          | _ -> None)
      end)

  let estimate t i mu =
    if not (is_ready t i) then None
    else begin
      match memory_lb t i mu with
      | None -> None
      | Some (mem_lb, c_batch) ->
        let lb = Float.max mem_lb (precedence_est t i mu) in
        let w = Platform.w t.g i mu in
        let est = resource_est t mu ~lb ~w in
        Some { task = i; memory = mu; est; eft = est +. w; comm_batch = c_batch }
    end

  let best_estimate t i =
    better_estimate (estimate t i Platform.Blue) (estimate t i Platform.Red)
end
