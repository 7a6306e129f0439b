type trace = {
  times : float array;
  blue : float array;
  red : float array;
}

(* kind 0 = free (applied first at equal times), kind 1 = alloc *)
type event = { time : float; kind : int; mem : Platform.memory; delta : float }

(* ------------------------------------------------------------ flat path --- *)

(* The flat reconstruction generates events straight into preallocated
   parallel arrays sized from [n_tasks + 2 * n_edges] and orders them with
   one insertion-seeded bottom-up merge sort over those arrays instead of a
   heap: a million-event heap drain does O(m log m) *random* probes across
   the slot arrays (every sift level is a cache miss at this size), while
   merge passes stream sequentially and run an order of magnitude faster.  The
   [Event_queue] SoA heap remains the right tool for incremental
   produce/consume interleavings (and still backs the reference pipeline
   below); the trace's single generate-then-drain batch does not need one.

   Each event carries a packed int key [kind . (cap - seq) . mem]: key
   ascending is exactly the heap's pop order — kind ascending, then seq
   DESCENDING (the reverse-insertion tie rule that reproduces the
   historical reversed-accumulator + stable-sort pipeline) — and the mem
   bit rides along in the low bit where it can never affect the order
   (the seq field is distinct across events).  Sorting by (time, key) is
   therefore bit-identical to draining the queue, which is asserted
   against [memory_trace_reference] by the A/B tests and the sim-parity
   fuzz oracle.

   Generation order (and with it the seq tie-break) is exactly the
   reference's: per task, the start allocation then the finish free, tasks
   in id order; then per edge in id order, the transfer allocation then the
   transfer free.  Zero-delta events are skipped, as before. *)

(* Reusable working memory: the generation triple, the merge double buffer,
   the step accumulators and the per-task memory codes, each grown on
   demand and retained across calls.  On large instances the fresh-page
   cost of these buffers dominates a verification sweep; sharing one
   scratch across validate/trace/stats makes the trace of every call after
   the first allocate a constant few words (the sort's result tuple),
   whatever the event count. *)
type scratch = {
  mutable sc_time : float array;
  mutable sc_key : int array;
  mutable sc_delta : float array;
  mutable sc_aux_time : float array;
  mutable sc_aux_key : int array;
  mutable sc_aux_delta : float array;
  mutable sc_tacc : float array;
  mutable sc_bacc : float array;
  mutable sc_racc : float array;
  mutable sc_mem : int array;
}

let scratch () =
  {
    sc_time = [||];
    sc_key = [||];
    sc_delta = [||];
    sc_aux_time = [||];
    sc_aux_key = [||];
    sc_aux_delta = [||];
    sc_tacc = [||];
    sc_bacc = [||];
    sc_racc = [||];
    sc_mem = [||];
  }

let grown_f a need = if Array.length a >= need then a else Array.make (Int.max 1 need) 0.
let grown_i a need = if Array.length a >= need then a else Array.make (Int.max 1 need) 0

(* Events are ordered by (time, key).  The keys are distinct (the seq
   field), so this is a total order and every correct sort yields the same
   permutation.  NaN never reaches here (rejected at generation), so
   "neither time is [<] the other" means equal times (including a -0./0.
   pair, which [Float.compare] also calls equal) and the tie reads the key.

   Every comparison is spelled out inline over arrays typed [float array] /
   [int array]: a helper call would box its float arguments, and an
   unannotated array would compare and store through the polymorphic
   runtime primitives. *)

(* Width of the runs insertion-sorted in place before the first merge pass. *)
let run_width = 16

(* Insertion sort of the triple over [lo, hi). *)
let insertion_sort (ts : float array) (ks : int array) (ds : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let t = ts.(i) and k = ks.(i) and d = ds.(i) in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let tj = ts.(!j) in
      t < tj || ((not (tj < t)) && k < ks.(!j))
    do
      ts.(!j + 1) <- ts.(!j);
      ks.(!j + 1) <- ks.(!j);
      ds.(!j + 1) <- ds.(!j);
      decr j
    done;
    ts.(!j + 1) <- t;
    ks.(!j + 1) <- k;
    ds.(!j + 1) <- d
  done

(* Sort of the parallel (time, key, delta) arrays over the prefix [0, m):
   runs of [run_width] insertion-sorted in place, then bottom-up merge
   passes double-buffered against the caller-supplied aux triple.  Returns
   the arrays holding the sorted prefix (either the originals or the aux
   triple, depending on pass parity). *)
let sort_events (times : float array) (keys : int array) (deltas : float array)
    (aux_t : float array) (aux_k : int array) (aux_d : float array) m =
  let lo = ref 0 in
  while !lo < m do
    let hi = Int.min (!lo + run_width) m in
    insertion_sort times keys deltas !lo hi;
    lo := hi
  done;
  let src_t = ref times and src_k = ref keys and src_d = ref deltas in
  let dst_t = ref aux_t and dst_k = ref aux_k and dst_d = ref aux_d in
  let width = ref run_width in
  while !width < m do
    let a_t = !src_t and a_k = !src_k and a_d = !src_d in
    let b_t = !dst_t and b_k = !dst_k and b_d = !dst_d in
    let lo = ref 0 in
    while !lo < m do
      let mid = Int.min (!lo + !width) m in
      let hi = Int.min (mid + !width) m in
      let i = ref !lo and j = ref mid and k = ref !lo in
      while !i < mid && !j < hi do
        let ta = a_t.(!i) and tb = a_t.(!j) in
        if ta < tb || ((not (tb < ta)) && a_k.(!i) <= a_k.(!j)) then begin
          b_t.(!k) <- ta;
          b_k.(!k) <- a_k.(!i);
          b_d.(!k) <- a_d.(!i);
          incr i
        end
        else begin
          b_t.(!k) <- tb;
          b_k.(!k) <- a_k.(!j);
          b_d.(!k) <- a_d.(!j);
          incr j
        end;
        incr k
      done;
      while !i < mid do
        b_t.(!k) <- a_t.(!i);
        b_k.(!k) <- a_k.(!i);
        b_d.(!k) <- a_d.(!i);
        incr i;
        incr k
      done;
      while !j < hi do
        b_t.(!k) <- a_t.(!j);
        b_k.(!k) <- a_k.(!j);
        b_d.(!k) <- a_d.(!j);
        incr j;
        incr k
      done;
      lo := hi
    done;
    src_t := b_t;
    src_k := b_k;
    src_d := b_d;
    dst_t := a_t;
    dst_k := a_k;
    dst_d := a_d;
    width := 2 * !width
  done;
  (!src_t, !src_k, !src_d)

(* Store one event at generation index [i] and return the next free index;
   a zero-delta event is skipped.  Top-level and inlined over typed arrays
   so [time] and [delta] stay unboxed (a local closure would box both on
   every event). *)
let[@inline] push (g_time : float array) (g_key : int array) (g_delta : float array) cap i time
    kind mem_code delta =
  if Float.equal delta 0. then i
  else begin
    (* Same rejection (and message) the reference path gets from
       [Event_queue.add], so error behaviour stays bit-identical. *)
    if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
    g_time.(i) <- time;
    g_key.(i) <- (((kind lsl 40) lor (cap - i)) lsl 1) lor mem_code;
    g_delta.(i) <- delta;
    i + 1
  end

(* Compute the trace into [sc]'s step accumulators without copying out:
   returns the step count.  Steps [0, count) live in
   [sc_tacc]/[sc_bacc]/[sc_racc] until the next trace over the scratch —
   the zero-copy form behind [memory_trace], used directly by the
   validator's memory phase and [Sched_stats.compute] so a verification
   sweep never materialises trace arrays it is only going to fold over. *)
let memory_trace_into sc g platform s =
  let n = Dag.n_tasks g and ne = Dag.n_edges g in
  let cap = (2 * n) + (2 * ne) in
  (* Generation arrays indexed by generation index (== the seq counter):
     key = [kind lsl 41  lor  (cap - seq) lsl 1  lor  mem_code] with
     0 = blue, 1 = red.  [cap - seq] keeps the field positive and makes key
     ascending mean seq descending; a cap at or beyond 2^40 events would
     need terabytes of event storage, so the field cannot overflow in any
     representable trace. *)
  sc.sc_time <- grown_f sc.sc_time cap;
  sc.sc_key <- grown_i sc.sc_key cap;
  sc.sc_delta <- grown_f sc.sc_delta cap;
  let g_time = sc.sc_time and g_key = sc.sc_key and g_delta = sc.sc_delta in
  let next = ref 0 in
  let starts = s.Schedule.starts and procs = s.Schedule.procs in
  let wb = Dag.Csr.w_blue g and wr = Dag.Csr.w_red g in
  let in_sz = Dag.Csr.in_sz g and out_sz = Dag.Csr.out_sz g in
  (* Memory code per task, with the same range check [memory_of] applied. *)
  sc.sc_mem <- grown_i sc.sc_mem n;
  let mem_code = sc.sc_mem in
  for i = 0 to n - 1 do
    mem_code.(i) <-
      (match Platform.memory_of_proc platform procs.(i) with Platform.Blue -> 0 | Platform.Red -> 1)
  done;
  for i = 0 to n - 1 do
    let m = mem_code.(i) in
    let finish = starts.(i) +. (if m = 0 then wb.(i) else wr.(i)) in
    next := push g_time g_key g_delta cap !next starts.(i) 1 m out_sz.(i);
    next := push g_time g_key g_delta cap !next finish 0 m (-.in_sz.(i))
  done;
  let e_src = Dag.Csr.e_src g and e_dst = Dag.Csr.e_dst g in
  let e_size = Dag.Csr.e_size g and e_comm = Dag.Csr.e_comm g in
  let comm_starts = s.Schedule.comm_starts in
  for eid = 0 to ne - 1 do
    let src_mem = mem_code.(e_src.(eid)) in
    if src_mem <> mem_code.(e_dst.(eid)) then begin
      match comm_starts.(eid) with
      | Some tau ->
        next := push g_time g_key g_delta cap !next tau 1 (1 - src_mem) e_size.(eid);
        next := push g_time g_key g_delta cap !next (tau +. e_comm.(eid)) 0 src_mem (-.e_size.(eid))
      | None -> invalid_arg "Events.memory_trace: cut edge without transfer"
    end
  done;
  (* Order the events — one streaming merge sort over the flat triple... *)
  let m = !next in
  sc.sc_aux_time <- grown_f sc.sc_aux_time m;
  sc.sc_aux_key <- grown_i sc.sc_aux_key m;
  sc.sc_aux_delta <- grown_f sc.sc_aux_delta m;
  let ord_times, ord_keys, ord_deltas =
    sort_events g_time g_key g_delta sc.sc_aux_time sc.sc_aux_key sc.sc_aux_delta m
  in
  (* ... and accumulate into step arrays grown once.  Step 0 is (0., 0., 0.);
     an event at an already-open instant overwrites the step in place, so
     the count only moves forward — exactly the reference's flush rule. *)
  sc.sc_tacc <- grown_f sc.sc_tacc (m + 1);
  sc.sc_bacc <- grown_f sc.sc_bacc (m + 1);
  sc.sc_racc <- grown_f sc.sc_racc (m + 1);
  let t_acc = sc.sc_tacc and b_acc = sc.sc_bacc and r_acc = sc.sc_racc in
  (* Step 0 must read (0., 0., 0.) even from a reused buffer. *)
  t_acc.(0) <- 0.;
  b_acc.(0) <- 0.;
  r_acc.(0) <- 0.;
  let count = ref 1 in
  let cur_blue = ref 0. and cur_red = ref 0. in
  for k = 0 to m - 1 do
    (if ord_keys.(k) land 1 = 0 then cur_blue := !cur_blue +. ord_deltas.(k)
     else cur_red := !cur_red +. ord_deltas.(k));
    let t = ord_times.(k) in
    let last = !count - 1 in
    if Float.equal t_acc.(last) t then begin
      b_acc.(last) <- !cur_blue;
      r_acc.(last) <- !cur_red
    end
    else begin
      t_acc.(!count) <- t;
      b_acc.(!count) <- !cur_blue;
      r_acc.(!count) <- !cur_red;
      incr count
    end
  done;
  !count

let scratch_steps sc = (sc.sc_tacc, sc.sc_bacc, sc.sc_racc)

let memory_trace ?scratch:sc g platform s =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let count = memory_trace_into sc g platform s in
  {
    times = Array.sub sc.sc_tacc 0 count;
    blue = Array.sub sc.sc_bacc 0 count;
    red = Array.sub sc.sc_racc 0 count;
  }

(* ------------------------------------------------------- reference path --- *)

(* The pre-flattening pipeline, kept verbatim: events drained from the queue
   into a tuple list, re-boxed through [List.map], accumulated into reversed
   lists.  [memory_trace] above must stay bit-identical to this. *)
let events_of_reference g platform s =
  let q = Event_queue.create () in
  let push time kind mem delta =
    if not (Float.equal delta 0.) then Event_queue.add q ~time ~kind (mem, delta)
  in
  for i = 0 to Dag.n_tasks g - 1 do
    let mem = Schedule.memory_of platform s i in
    push s.Schedule.starts.(i) 1 mem (Dag.out_size g i);
    push (Schedule.finish g platform s i) 0 mem (-.Dag.in_size g i)
  done;
  Array.iter
    (fun (e : Dag.edge) ->
      if Schedule.is_cut platform s e then begin
        match s.Schedule.comm_starts.(e.Dag.eid) with
        | Some tau ->
          let src_mem = Schedule.memory_of platform s e.Dag.src in
          push tau 1 (Platform.other src_mem) e.Dag.size;
          push (tau +. e.Dag.comm) 0 src_mem (-.e.Dag.size)
        | None -> invalid_arg "Events.memory_trace: cut edge without transfer"
      end)
    (Dag.edges g);
  List.map (fun (time, kind, (mem, delta)) -> { time; kind; mem; delta }) (Event_queue.drain q)

let memory_trace_reference g platform s =
  let evs = events_of_reference g platform s in
  let times = ref [ 0. ] and blue = ref [ 0. ] and red = ref [ 0. ] in
  let cur_blue = ref 0. and cur_red = ref 0. in
  let flush_step t =
    match !times with
    | last :: _ when Float.equal last t ->
      (* overwrite the step we just opened at the same instant *)
      blue := !cur_blue :: List.tl !blue;
      red := !cur_red :: List.tl !red
    | _ ->
      times := t :: !times;
      blue := !cur_blue :: !blue;
      red := !cur_red :: !red
  in
  List.iter
    (fun ev ->
      (match ev.mem with
      | Platform.Blue -> cur_blue := !cur_blue +. ev.delta
      | Platform.Red -> cur_red := !cur_red +. ev.delta);
      flush_step ev.time)
    evs;
  {
    times = Array.of_list (List.rev !times);
    blue = Array.of_list (List.rev !blue);
    red = Array.of_list (List.rev !red);
  }

(* ------------------------------------------------------------- queries --- *)

let step_index trace t =
  let lo = ref 0 and hi = ref (Array.length trace.times - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if trace.times.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

let usage_at trace mem t =
  let k = step_index trace t in
  match mem with Platform.Blue -> trace.blue.(k) | Platform.Red -> trace.red.(k)

let peak trace mem =
  let a = match mem with Platform.Blue -> trace.blue | Platform.Red -> trace.red in
  Array.fold_left Float.max 0. a

let peaks g platform s =
  let trace = memory_trace g platform s in
  (peak trace Platform.Blue, peak trace Platform.Red)

let usage_at_task_start g platform s i =
  let trace = memory_trace g platform s in
  usage_at trace (Schedule.memory_of platform s i) s.Schedule.starts.(i)
