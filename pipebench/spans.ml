(* In-memory span recorder for the traced run.

   A span is opened around one call into a layer of the library, from the
   benchmark's own code: the library itself is not instrumented.  Job spans
   are the roots; every layer span records the job span that caused it and
   the job id.  Spans are kept in growable parallel arrays and written out
   once, when the run ends, so recording costs two clock reads and two
   [Gc.counters] reads per span and no I/O. *)

type layer = Gen | Rank | Heft | Memheft | Memminmin | Lower_bound | Validate | Trace | Stats

let layers = [| Gen; Rank; Heft; Memheft; Memminmin; Lower_bound; Validate; Trace; Stats |]

let layer_index = function
  | Gen -> 0
  | Rank -> 1
  | Heft -> 2
  | Memheft -> 3
  | Memminmin -> 4
  | Lower_bound -> 5
  | Validate -> 6
  | Trace -> 7
  | Stats -> 8

(* Named after the modules they time: generators.gen covers the generator
   together with the Builder.finalize it ends with. *)
let layer_name = function
  | Gen -> "generators.gen"
  | Rank -> "core.rank"
  | Heft -> "core.heft"
  | Memheft -> "core.memheft"
  | Memminmin -> "core.memminmin"
  | Lower_bound -> "core.lower_bound"
  | Validate -> "sim.validate"
  | Trace -> "sim.trace"
  | Stats -> "sim.stats"

let job_kind = -1

type t = {
  mutable len : int;
  mutable kind : int array;  (** layer index, or [job_kind] *)
  mutable job : int array;
  mutable parent : int array;  (** index of the causing job span; -1 on a job span *)
  mutable pass : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable words : float array;  (** words allocated inside the span *)
  mutable major : float array;  (** major-heap words (direct + promoted) inside the span *)
  mutable open_job : int;  (** index of the open job span, -1 between jobs *)
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    kind = Array.make cap 0;
    job = Array.make cap 0;
    parent = Array.make cap 0;
    pass = Array.make cap 0;
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    words = Array.make cap 0.;
    major = Array.make cap 0.;
    open_job = -1;
  }

let length t = t.len

let grow t =
  let cap = 2 * Array.length t.kind in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.kind <- ext t.kind 0;
  t.job <- ext t.job 0;
  t.parent <- ext t.parent 0;
  t.pass <- ext t.pass 0;
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.words <- ext t.words 0.;
  t.major <- ext t.major 0.

(* The counters are read before the clock on open and after it on close, so
   their own cost stays outside the span's interval. *)
let open_span t ~kind ~job ~parent ~pass =
  if t.len = Array.length t.kind then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.kind.(i) <- kind;
  t.job.(i) <- job;
  t.parent.(i) <- parent;
  t.pass.(i) <- pass;
  let minor, promoted, major = Gc.counters () in
  t.words.(i) <- -.(minor +. major -. promoted);
  t.major.(i) <- -.major;
  t.start.(i) <- Timing.now ();
  i

let close_span t i =
  t.stop.(i) <- Timing.now ();
  let minor, promoted, major = Gc.counters () in
  t.words.(i) <- t.words.(i) +. (minor +. major -. promoted);
  t.major.(i) <- t.major.(i) +. major

let job t ~pass ~job f =
  let i = open_span t ~kind:job_kind ~job ~parent:(-1) ~pass in
  t.open_job <- i;
  let finish () =
    close_span t i;
    t.open_job <- -1
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let span t layer f =
  let p = t.open_job in
  if p < 0 then invalid_arg "Spans.span: no open job span";
  let i = open_span t ~kind:(layer_index layer) ~job:t.job.(p) ~parent:p ~pass:t.pass.(p) in
  match f () with
  | r ->
    close_span t i;
    r
  | exception e ->
    close_span t i;
    raise e

(* Self time: the span's duration minus the part its direct children cover. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stop.(i) -. t.start.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. (t.stop.(i) -. t.start.(i))
  done;
  self

type layer_totals = {
  calls : int array;  (** per layer, over the jobs' fastest traced passes *)
  self_s : float array;  (** per layer, summed over each job's fastest traced pass *)
  job_s : float;  (** sum over jobs of their fastest job-span duration *)
  glue_s : float;  (** job-span self time: the part no layer span covers *)
  words : float array;  (** per layer, over the spans of [alloc_pass] *)
  major : float array;
}

(* Per job, the traced pass whose job span was fastest supplies the layer
   self times, so the layers and the glue sum exactly to [job_s].  Words
   come from one whole pass, where they repeat from run to run. *)
let totals t ~n_jobs ~alloc_pass =
  let n_layers = Array.length layers in
  let self = self_times t in
  let best = Array.make n_jobs (-1) in
  for i = 0 to t.len - 1 do
    if t.kind.(i) = job_kind then begin
      let j = t.job.(i) in
      let d = t.stop.(i) -. t.start.(i) in
      if best.(j) < 0 || d < t.stop.(best.(j)) -. t.start.(best.(j)) then best.(j) <- i
    end
  done;
  let calls = Array.make n_layers 0 in
  let self_s = Array.make n_layers 0. in
  let words = Array.make n_layers 0. in
  let major = Array.make n_layers 0. in
  let job_s = ref 0. and glue_s = ref 0. in
  Array.iter
    (fun i ->
      if i >= 0 then begin
        job_s := !job_s +. (t.stop.(i) -. t.start.(i));
        glue_s := !glue_s +. self.(i)
      end)
    best;
  for i = 0 to t.len - 1 do
    let k = t.kind.(i) in
    if k <> job_kind then begin
      if best.(t.job.(i)) = t.parent.(i) then begin
        calls.(k) <- calls.(k) + 1;
        self_s.(k) <- self_s.(k) +. self.(i)
      end;
      if t.pass.(i) = alloc_pass then begin
        words.(k) <- words.(k) +. t.words.(i);
        major.(k) <- major.(k) +. t.major.(i)
      end
    end
  done;
  { calls; self_s; job_s = !job_s; glue_s = !glue_s; words; major }

let kind_name k = if k = job_kind then "job" else layer_name layers.(k)

(* One JSON object per line, times in microseconds from the first span. *)
let write t path =
  let t0 = if t.len = 0 then 0. else t.start.(0) in
  let us x = (x -. t0) *. 1e6 in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"name\":\"%s\",\"job\":%d,\"parent\":%d,\"pass\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"words\":%.0f,\"major_words\":%.0f}\n"
          i (kind_name t.kind.(i)) t.job.(i) t.parent.(i) t.pass.(i) (us t.start.(i)) (us t.stop.(i))
          t.words.(i) t.major.(i)
      done)
