type t = {
  builder : Dag.Builder.t;
  n : int;
  last_writer : int array;  (* tile (i, j) at [i * n + j]; -1 before its first write *)
}

let create ~n = { builder = Dag.Builder.create (); n; last_writer = Array.make (n * n) (-1) }

let slot t (i, j) =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Tiled.add_kernel: tile out of range";
  (i * t.n) + j

let add_kernel t kernel ~name ~reads ~writes =
  let id =
    Dag.Builder.add_task t.builder ~name ~w_blue:(Kernels.cpu_ms kernel)
      ~w_red:(Kernels.gpu_ms kernel) ()
  in
  let deps =
    List.filter_map
      (fun tile ->
        let w = t.last_writer.(slot t tile) in
        if w < 0 then None else Some w)
      (writes :: reads)
    |> List.sort_uniq Int.compare
  in
  List.iter
    (fun src ->
      Dag.Builder.add_edge t.builder ~src ~dst:id ~size:Kernels.tile_size
        ~comm:Kernels.tile_transfer_ms)
    deps;
  t.last_writer.(slot t writes) <- id

let finalize ?(pipeline_broadcasts = true) t =
  let g = Dag.Builder.finalize t.builder in
  if pipeline_broadcasts then Broadcast.linearize g else g
