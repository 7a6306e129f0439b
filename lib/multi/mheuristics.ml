type failure = { reason : string; n_scheduled : int }
type result = (Mschedule.t, failure) Result.t

let eps = 1e-9

let upward_ranks problem =
  let comm = Dag.Csr.e_comm problem.Mproblem.graph in
  Paths.bottom_levels problem.Mproblem.graph
    ~node_weight:(Mproblem.mean_duration problem)
    ~edge_weight:(fun k -> comm.(k) /. 2.)

let priority_list ?rng problem =
  let g = problem.Mproblem.graph in
  let ranks = upward_ranks problem in
  let n = Dag.n_tasks g in
  let jitter =
    match rng with
    | Some rng -> Array.init n (fun _ -> Rng.float rng 1.)
    | None -> Array.make n 0.
  in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare ranks.(b) ranks.(a) in
      if c <> 0 then c
      else begin
        let c = Float.compare jitter.(a) jitter.(b) in
        if c <> 0 then c else compare a b
      end)
    order;
  order

type state = {
  problem : Mproblem.t;
  platform : Mplatform.t;
  free : Staircase.t array;  (** per pool *)
  avail : float array;  (** per processor *)
  aft : float array;
  assigned : bool array;
  pool_of : int array;  (** -1 when unassigned *)
  pending : int array;
  sched : Mschedule.t;
  mutable n_assigned : int;
}

let create problem platform =
  let g = problem.Mproblem.graph in
  let n = Dag.n_tasks g in
  let pending = Array.make n 0 in
  Array.iter (fun (e : Dag.edge) -> pending.(e.Dag.dst) <- pending.(e.Dag.dst) + 1) (Dag.edges g);
  {
    problem;
    platform;
    free =
      Array.init (Mplatform.n_pools platform) (fun k ->
          Staircase.create (Mplatform.capacity platform k));
    avail = Array.make (Mplatform.n_procs platform) 0.;
    aft = Array.make n 0.;
    assigned = Array.make n false;
    pool_of = Array.make n (-1);
    pending;
    sched = Mschedule.create g;
    n_assigned = 0;
  }

let is_ready st i = (not st.assigned.(i)) && st.pending.(i) = 0

type estimate = { task : int; pool : int; est : float; eft : float }

let cross_edges st i pool =
  List.filter
    (fun (e : Dag.edge) -> st.pool_of.(e.Dag.src) >= 0 && st.pool_of.(e.Dag.src) <> pool)
    (Dag.pred st.problem.Mproblem.graph i)

let estimate st i pool =
  if not (is_ready st i) then None
  else begin
    let g = st.problem.Mproblem.graph in
    let free = st.free.(pool) in
    let cross = cross_edges st i pool in
    let cross_in = List.fold_left (fun acc (e : Dag.edge) -> acc +. e.Dag.size) 0. cross in
    let task_level = cross_in +. Dag.out_size g i in
    match Staircase.earliest_suffix_ge free ~level:task_level ~from:0. with
    | None -> None
    | Some t_task ->
      (* Per-edge just-in-time windows, sorted by decreasing transfer time. *)
      let sorted =
        List.sort (fun (a : Dag.edge) (b : Dag.edge) -> Float.compare b.Dag.comm a.Dag.comm) cross
      in
      let rec prefixes acc lb = function
        | [] -> Some lb
        | (e : Dag.edge) :: rest -> (
          let acc = acc +. e.Dag.size in
          match Staircase.earliest_suffix_ge free ~level:acc ~from:0. with
          | None -> None
          | Some t -> prefixes acc (Float.max lb (Fp.lb_plus t e.Dag.comm)) rest)
      in
      (match prefixes 0. 0. sorted with
      | None -> None
      | Some comm_lb ->
        let precedence =
          List.fold_left
            (fun acc (e : Dag.edge) ->
              let j = e.Dag.src in
              let arrival =
                if st.pool_of.(j) = pool then st.aft.(j) else st.aft.(j) +. e.Dag.comm
              in
              Float.max acc arrival)
            0. (Dag.pred g i)
        in
        let resource =
          List.fold_left (fun acc p -> Float.min acc st.avail.(p)) infinity (Mplatform.procs_of st.platform pool)
        in
        let est = Float.max (Float.max t_task comm_lb) (Float.max precedence resource) in
        Some { task = i; pool; est; eft = est +. Mproblem.duration st.problem i pool })
  end

let best_estimate st i =
  let better a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some ea, Some eb ->
      if eb.eft +. eps < ea.eft then b
      else if ea.eft +. eps < eb.eft then a
      else if eb.est +. eps < ea.est then b
      else a
  in
  let best = ref None in
  for pool = 0 to Mplatform.n_pools st.platform - 1 do
    best := better !best (estimate st i pool)
  done;
  !best

let commit st e =
  let g = st.problem.Mproblem.graph in
  let i = e.task and pool = e.pool in
  if st.assigned.(i) then invalid_arg "Mheuristics.commit: task already assigned";
  let start = e.est and eft = e.eft in
  (* Min-idle processor selection. *)
  let proc =
    let best = ref None in
    List.iter
      (fun p ->
        if st.avail.(p) <= start +. eps then begin
          match !best with
          | Some q when st.avail.(q) >= st.avail.(p) -> ()
          | _ -> best := Some p
        end)
      (Mplatform.procs_of st.platform pool);
    match !best with
    | Some p -> p
    | None -> invalid_arg "Mheuristics.commit: stale estimate"
  in
  st.avail.(proc) <- Float.max st.avail.(proc) eft;
  st.sched.Mschedule.starts.(i) <- start;
  st.sched.Mschedule.procs.(i) <- proc;
  let free = st.free.(pool) in
  List.iter
    (fun (edge : Dag.edge) ->
      let j = edge.Dag.src in
      if st.pool_of.(j) <> pool then begin
        let tau = start -. edge.Dag.comm in
        st.sched.Mschedule.comm_starts.(edge.Dag.eid) <- Some tau;
        Staircase.add_from free tau (-.edge.Dag.size);
        Staircase.add_from st.free.(st.pool_of.(j)) (tau +. edge.Dag.comm) edge.Dag.size
      end)
    (Dag.pred g i);
  Staircase.add_from free start (-.Dag.out_size g i);
  Staircase.add_from free eft (Dag.in_size g i);
  st.aft.(i) <- eft;
  st.assigned.(i) <- true;
  st.pool_of.(i) <- pool;
  st.n_assigned <- st.n_assigned + 1;
  List.iter (fun c -> st.pending.(c) <- st.pending.(c) - 1) (Dag.children g i)

let fail st reason = Error { reason; n_scheduled = st.n_assigned }

let memheft ?rng problem platform =
  let st = create problem platform in
  let g = problem.Mproblem.graph in
  let order = priority_list ?rng problem in
  let n = Dag.n_tasks g in
  let done_ = Array.make n false in
  let remaining = ref n in
  let rec round () =
    if !remaining = 0 then Ok st.sched
    else begin
      let committed = ref false in
      let k = ref 0 in
      while (not !committed) && !k < n do
        let i = order.(!k) in
        if (not done_.(i)) && is_ready st i then begin
          match best_estimate st i with
          | Some e ->
            commit st e;
            done_.(i) <- true;
            decr remaining;
            committed := true
          | None -> ()
        end;
        incr k
      done;
      if !committed then round () else fail st "no ready task fits within the memory bounds"
    end
  in
  round ()

let memminmin problem platform =
  let st = create problem platform in
  let g = problem.Mproblem.graph in
  let n = Dag.n_tasks g in
  let rec round () =
    if st.n_assigned = n then Ok st.sched
    else begin
      let best = ref None in
      for i = 0 to n - 1 do
        if is_ready st i then begin
          match best_estimate st i with
          | Some e -> (
            match !best with
            | Some b when b.eft <= e.eft -> ()
            | _ -> best := Some e)
          | None -> ()
        end
      done;
      match !best with
      | Some e ->
        commit st e;
        round ()
      | None -> fail st "no ready task fits within the memory bounds"
    end
  in
  round ()

let heft ?rng problem platform =
  let unbounded =
    Mplatform.with_capacities platform (List.init (Mplatform.n_pools platform) (fun _ -> infinity))
  in
  match memheft ?rng problem unbounded with
  | Ok s -> s
  | Error _ -> assert false
