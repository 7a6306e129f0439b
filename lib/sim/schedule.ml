type t = {
  starts : float array;
  procs : int array;
  comm_starts : float option array;
}

let create g =
  {
    starts = Array.make (Dag.n_tasks g) 0.;
    procs = Array.make (Dag.n_tasks g) 0;
    comm_starts = Array.make (Dag.n_edges g) None;
  }

let memory_of platform s i = Platform.memory_of_proc platform s.procs.(i)
(* Inlined, like [Platform.w], so [finish] adds an unboxed duration. *)
let[@inline] duration g platform s i = Platform.w g i (memory_of platform s i)
let finish g platform s i = s.starts.(i) +. duration g platform s i

let is_cut platform s (e : Dag.edge) =
  memory_of platform s e.Dag.src <> memory_of platform s e.Dag.dst

let comm_duration platform s (e : Dag.edge) = if is_cut platform s e then e.Dag.comm else 0.

let comm_finish g platform s (e : Dag.edge) =
  if is_cut platform s e then begin
    match s.comm_starts.(e.Dag.eid) with
    | Some tau -> tau +. e.Dag.comm
    | None -> invalid_arg "Schedule.comm_finish: cut edge without transfer"
  end
  else finish g platform s e.Dag.src

let makespan g platform s =
  let n = Dag.n_tasks g in
  let m = ref 0. in
  for i = 0 to n - 1 do
    m := Float.max !m (finish g platform s i)
  done;
  !m

(* Flat per-task finish times in one pass over the SoA cost arrays: the same
   [starts.(i) +. w] addition as [finish], so the values are bit-identical. *)
let finishes g platform s =
  let n = Dag.n_tasks g in
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let fin = Array.make (max 1 n) 0. in
  for i = 0 to n - 1 do
    let w =
      match Platform.memory_of_proc platform s.procs.(i) with
      | Platform.Blue -> wb.(i)
      | Platform.Red -> wr.(i)
    in
    fin.(i) <- s.starts.(i) +. w
  done;
  fin

(* Group all tasks by processor in one counting-sort pass (O(n + p)), then
   sort each group in place by (start, finish, id).  The id tie-break makes
   the comparator total, which reproduces [tasks_of_proc] exactly: that path
   stable-sorts ascending task ids by (start, finish), so fully-tied tasks
   stay in ascending-id order there too.  Being total, it also makes the
   sort algorithm invisible: [Array.stable_sort] (merge sort) is used
   because it beats [Array.sort]'s heapsort here. *)
let tasks_by_proc g platform s =
  let n = Dag.n_tasks g in
  let nprocs = Platform.n_procs platform in
  let off = Array.make (nprocs + 1) 0 in
  for i = 0 to n - 1 do
    let p = s.procs.(i) in
    if p < 0 || p >= nprocs then
      invalid_arg "Schedule.tasks_by_proc: processor index out of range";
    off.(p + 1) <- off.(p + 1) + 1
  done;
  for p = 1 to nprocs do
    off.(p) <- off.(p) + off.(p - 1)
  done;
  let order = Array.make (max 1 n) 0 in
  let next = Array.copy off in
  for i = 0 to n - 1 do
    let p = s.procs.(i) in
    order.(next.(p)) <- i;
    next.(p) <- next.(p) + 1
  done;
  let fin = finishes g platform s in
  let starts = s.starts in
  let cmp a b =
    let c = Float.compare starts.(a) starts.(b) in
    if c <> 0 then c
    else
      let c = Float.compare fin.(a) fin.(b) in
      if c <> 0 then c else Int.compare a b
  in
  for p = 0 to nprocs - 1 do
    let lo = off.(p) and hi = off.(p + 1) in
    if hi - lo > 1 then begin
      let seg = Array.sub order lo (hi - lo) in
      Array.stable_sort cmp seg;
      Array.blit seg 0 order lo (hi - lo)
    end
  done;
  (off, order)

let tasks_of_proc g platform s p =
  let on_p = ref [] in
  for i = Dag.n_tasks g - 1 downto 0 do
    if s.procs.(i) = p then on_p := i :: !on_p
  done;
  (* Sort by (start, finish) so that a zero-duration task sharing its start
     instant with a longer task is ordered first (it legally precedes it). *)
  List.sort
    (fun a b ->
      let c = Float.compare s.starts.(a) s.starts.(b) in
      if c <> 0 then c else Float.compare (finish g platform s a) (finish g platform s b))
    !on_p

let pp g platform ppf s =
  Format.fprintf ppf "@[<v>";
  for i = 0 to Dag.n_tasks g - 1 do
    Format.fprintf ppf "%s: proc %d (%a) [%g, %g)@,"
      (Dag.task g i).Dag.name s.procs.(i) Platform.pp_memory (memory_of platform s i)
      s.starts.(i) (finish g platform s i)
  done;
  Array.iter
    (fun (e : Dag.edge) ->
      match s.comm_starts.(e.Dag.eid) with
      | Some tau ->
        Format.fprintf ppf "comm %s->%s [%g, %g)@,"
          (Dag.task g e.Dag.src).Dag.name (Dag.task g e.Dag.dst).Dag.name tau (tau +. e.Dag.comm)
      | None -> ())
    (Dag.edges g);
  Format.fprintf ppf "@]"
