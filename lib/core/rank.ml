let upward_ranks g =
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let comm = Dag.Csr.e_comm g in
  Paths.bottom_levels g
    ~node_weight:(fun i -> (wb.(i) +. wr.(i)) /. 2.)
    ~edge_weight:(fun k -> comm.(k) /. 2.)

let priority_list ?rng ?ranks g =
  let ranks = match ranks with Some r -> r | None -> upward_ranks g in
  let n = Dag.n_tasks g in
  (* Without an rng every jitter would be 0. and tie nothing, so none is
     stored: a task-sized float array per call would go straight to the
     major heap. *)
  let jitter =
    match rng with Some rng -> Array.init n (fun _ -> Rng.float rng 1.) | None -> [||]
  in
  let order = Array.init n Fun.id in
  (* Sort by decreasing rank; ties by jitter then id for determinism.  The
     comparator is total, so the merge sort gives the one order any sort
     would (and runs faster than [Array.sort]'s heapsort). *)
  Array.stable_sort
    (fun a b ->
      let c = Float.compare ranks.(b) ranks.(a) in
      if c <> 0 then c
      else begin
        let c = if Array.length jitter = 0 then 0 else Float.compare jitter.(a) jitter.(b) in
        if c <> 0 then c else Int.compare a b
      end)
    order;
  order
