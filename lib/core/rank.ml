let upward_ranks g =
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let comm = Dag.Csr.e_comm g in
  Paths.bottom_levels g
    ~node_weight:(fun i -> (wb.(i) +. wr.(i)) /. 2.)
    ~edge_weight:(fun k -> comm.(k) /. 2.)

let priority_list ?rng ?ranks g =
  let ranks = match ranks with Some r -> r | None -> upward_ranks g in
  let n = Dag.n_tasks g in
  let jitter =
    match rng with
    | Some rng -> Array.init n (fun _ -> Rng.float rng 1.)
    | None -> Array.make n 0.
  in
  let order = Array.init n Fun.id in
  (* Sort by decreasing rank; ties by jitter then id for determinism. *)
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
